// Congestion marking (paper §6.1).
//
// A probed slot is marked congested when
//   (a) any packet of its probe was lost, or
//   (b) the probe lies within `tau` seconds of a loss indication AND its
//       one-way delay exceeds (1 - alpha) * OWD_max,
// where OWD_max is estimated from the delay of the most recent successfully
// transmitted packet of probes that experienced loss, averaged over a small
// window of such estimates (which "effectively filters loss at end-host
// buffers", §6.1).
//
// The marker works on raw one-way delays: it tracks the minimum delay seen as
// the path's base (propagation) delay and thresholds the *queueing* component,
// which also makes it robust to a constant clock offset between the hosts
// (§7): an offset shifts base and measured delay equally.
#ifndef BB_CORE_MARKING_H
#define BB_CORE_MARKING_H

#include <cstddef>
#include <deque>
#include <utility>
#include <vector>

#include "core/report_sink.h"
#include "core/types.h"
#include "util/time.h"

namespace bb::core {

struct MarkingConfig {
    TimeNs tau{milliseconds(80)};  // temporal proximity to a loss indication
    double alpha{0.1};             // high-water fraction below OWD_max
    std::size_t owd_max_window{10};  // estimates averaged for OWD_max
    // Disable rule (b) to mark on probe loss only — the naive scheme the
    // paper's Section 6.1 improves upon; kept for ablation.
    bool use_delay_rule{true};
    // Treat a CE-marked probe as a congestion indication, equivalent to a
    // loss: it seeds the tau window and marks its slot.  Inert unless the
    // probes were ECN-capable and an AQM hop actually marked them.
    bool use_ce{true};
};

struct SlotMark {
    SlotIndex slot{0};
    bool congested{false};
    bool by_loss{false};   // marked because the probe itself lost a packet
    bool by_delay{false};  // marked by the tau/alpha delay rule
    bool by_ce{false};     // marked because the probe carried a CE mark
};

class CongestionMarker {
public:
    explicit CongestionMarker(MarkingConfig cfg = {}) : cfg_{cfg} {}

    // Mark a full trace of probe outcomes (must be sorted by send_time).
    // Two passes: the first collects loss indications and OWD_max estimates,
    // the second applies the tau/alpha rule, so probes *before* a loss are
    // also captured (episodes are delimited on both sides, §6.1).
    [[nodiscard]] std::vector<SlotMark> mark(const std::vector<ProbeOutcome>& probes);

    // Estimated maximum queueing delay after the last mark() call.
    [[nodiscard]] TimeNs owd_max_estimate() const noexcept { return owd_max_; }
    [[nodiscard]] TimeNs base_delay() const noexcept { return base_delay_; }

private:
    MarkingConfig cfg_;
    TimeNs owd_max_{TimeNs::zero()};
    TimeNs base_delay_{TimeNs::zero()};
};

// The one path from slot marks to experiment reports.  Each experiment fed
// to consume() is scored against the marks and its report forwarded to
// `out`.  A slot with no mark is uncongested; a slot marked more than once
// (possible in external traces) takes its last mark.  As a Sink<Experiment>
// it scores a design streamed record by record; score_marks_into() covers a
// design held in memory.
//
// The marks are held as one slot-sorted array (sorted here only when the
// input is not already in slot order).  Experiments of a design arrive in
// start order, so each lookup steps a cursor a few marks from the previous
// one; a far jump (an external design in arbitrary order) binary-searches.
class MarkScorer final : public Sink<Experiment> {
public:
    MarkScorer(const std::vector<SlotMark>& marks, ReportSink& out);

    void consume(const Experiment& e) override;

private:
    using Mark = std::pair<SlotIndex, bool>;  // slot, congested

    [[nodiscard]] bool congested(SlotIndex slot);

    // Sorted by slot, one entry per slot; a flat array keeps the walk in
    // slot order (determinism rule no-unordered-container, DESIGN.md §14).
    std::vector<Mark> marks_;
    std::size_t cursor_{0};  // first mark at or after the last slot looked up
    ReportSink* out_;
};

void score_marks_into(const std::vector<Experiment>& experiments,
                      const std::vector<SlotMark>& marks, ReportSink& sink);

}  // namespace bb::core

#endif  // BB_CORE_MARKING_H
