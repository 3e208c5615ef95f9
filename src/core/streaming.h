// The §5 analysis as one ReportSink: StreamingAnalyzer tallies experiment
// reports into a StateCounts as they complete (O(1) memory) and evaluates
// every estimate over whatever has been consumed so far through
// estimate_all(), the same function a batch caller applies to its own
// tally — so streaming and batch cannot disagree.
//
// The EstimatorOptions are fixed when the analyzer is constructed (a
// streaming observer cannot re-tally the past), so choose them up front when
// re-analysis under different options is needed.
#ifndef BB_CORE_STREAMING_H
#define BB_CORE_STREAMING_H

#include <cstdint>

#include "core/estimators.h"
#include "core/report_sink.h"
#include "core/types.h"

namespace bb::obs {
class Counter;
}  // namespace bb::obs

namespace bb::core {

// The streaming replacement for "collect a report vector, then run the batch
// estimators" and the engine behind the tools' --stream mode.
class StreamingAnalyzer final : public ReportSink {
public:
    struct Result : Estimates {
        std::uint64_t reports{0};
    };

    explicit StreamingAnalyzer(EstimatorOptions opts = {});
    // Publishes the accumulated per-state tallies to the obs registry exactly
    // once per analyzer lifetime, hence no copies.
    ~StreamingAnalyzer() override;
    StreamingAnalyzer(const StreamingAnalyzer&) = delete;
    StreamingAnalyzer& operator=(const StreamingAnalyzer&) = delete;

    void consume(const ExperimentResult& r) override;

    [[nodiscard]] Result finalize() const;

    [[nodiscard]] const StateCounts& counts() const noexcept { return counts_; }
    [[nodiscard]] std::uint64_t reports() const noexcept {
        return counts_.basic_total() + counts_.extended_total();
    }

private:
    EstimatorOptions opts_;
    StateCounts counts_;
    // Registry handle cached at construction so the hot consume() path pays
    // one relaxed atomic add, never a registry lookup.
    obs::Counter* reports_ctr_;
};

}  // namespace bb::core

#endif  // BB_CORE_STREAMING_H
