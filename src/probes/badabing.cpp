#include "probes/badabing.h"

#include "core/streaming.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/contract.h"

namespace bb::probes {

BadabingTool::BadabingTool(sim::Scheduler& sched, const BadabingConfig& cfg,
                           sim::PacketSink& out, Rng rng)
    : sched_{&sched},
      cfg_{cfg},
      design_{core::design_probe_process(
          rng, cfg.total_slots, {cfg.p, cfg.improved, cfg.extended_fraction})},
      train_{sched,
             out,
             {cfg.flow, cfg.packets_per_probe, cfg.packet_bytes, cfg.intra_probe_gap,
              cfg.ecn_probes},
             sim::flow_id_block(0xBA, cfg.flow)} {
    train_.reserve(design_.probe_slots.size());
    for (const core::SlotIndex slot : design_.probe_slots) {
        const TimeNs at = cfg_.start + cfg_.slot_width * slot;
        sched_->schedule_at(at, [this, slot] { emit_probe(slot); });
    }
}

void BadabingTool::emit_probe(core::SlotIndex slot) {
    // bb-det: allow(no-mutable-static) — obs registry cache, telemetry only
    static obs::Counter& sent_ctr = obs::counter("probes.badabing.probes_sent");
    sent_ctr.inc();
    train_.send(slot);
}

void BadabingTool::accept(const sim::Packet& pkt) {
    // The receiver's clock runs `receiver_clock_offset` ahead of the
    // sender's and drifts by `receiver_clock_skew_ppm` of elapsed time.
    const TimeNs skew =
        seconds(sched_->now().to_seconds() * cfg_.receiver_clock_skew_ppm * 1e-6);
    if (!train_.receive(pkt, sched_->now() + cfg_.receiver_clock_offset + skew)) return;
    // bb-det: allow(no-mutable-static) — obs registry cache, telemetry only
    static obs::Counter& recv_ctr = obs::counter("probes.badabing.packets_received");
    recv_ctr.inc();
}

void BadabingTool::stream_outcomes(core::OutcomeSink& sink) const {
    ProbeTrain::OutcomeWalk walk = train_.walk();
    for (const core::SlotIndex slot : design_.probe_slots) {
        sink.consume(walk.next(slot, cfg_.start + cfg_.slot_width * slot));
    }
}

std::vector<core::ProbeOutcome> BadabingTool::outcomes() const {
    core::VectorSink<core::ProbeOutcome> sink;
    sink.reserve(design_.probe_slots.size());
    stream_outcomes(sink);
    return sink.take();
}

void BadabingTool::emit_reports(const core::MarkingConfig& marking,
                                core::ReportSink& sink) const {
    score_outcomes(outcomes(), marking, sink);
}

void BadabingTool::score_outcomes(const std::vector<core::ProbeOutcome>& probe_outcomes,
                                  const core::MarkingConfig& marking,
                                  core::ReportSink& sink) const {
    core::CongestionMarker marker{marking};
    core::score_marks_into(design_.experiments, marker.mark(probe_outcomes), sink);
}

BadabingResult BadabingTool::analyze(const core::MarkingConfig& marking,
                                     core::EstimatorOptions opts) const {
    const obs::Span span{"badabing.analyze", "probes"};
    BadabingResult res;
    const std::vector<core::ProbeOutcome> probe_outcomes = outcomes();
    core::StreamingAnalyzer analyzer{opts};
    score_outcomes(probe_outcomes, marking, analyzer);

    const core::StreamingAnalyzer::Result summary = analyzer.finalize();
    // Every designed experiment must be scored exactly once: the §5.2.2
    // estimators divide by the experiment count, so a silently dropped or
    // double-scored report skews ŷ tallies without any other symptom.
    BB_CHECK_MSG(summary.reports == design_.experiments.size(),
                 "badabing: scored report count != designed experiment count");
    res.counts = analyzer.counts();
    res.frequency = summary.frequency;
    res.duration_basic = summary.duration_basic;
    res.duration_improved = summary.duration_improved;
    res.validation = summary.validation;

    res.probes_sent = train_.probes_sent();
    res.packets_sent = train_.packets_sent();
    res.bytes_sent = train_.bytes_sent();
    res.experiments = design_.experiments.size();
    for (const core::ProbeOutcome& po : probe_outcomes) {
        res.packets_lost += static_cast<std::uint64_t>(po.packets_lost);
    }
    return res;
}

double BadabingTool::offered_load_fraction(std::int64_t link_rate_bps) const noexcept {
    const TimeNs span = cfg_.slot_width * cfg_.total_slots;
    const double link_bytes =
        static_cast<double>(link_rate_bps) / 8.0 * span.to_seconds();
    return link_bytes > 0 ? static_cast<double>(train_.bytes_sent()) / link_bytes : 0.0;
}

// --- FixedIntervalProber ----------------------------------------------------

FixedIntervalProber::FixedIntervalProber(sim::Scheduler& sched, const Config& cfg,
                                         sim::PacketSink& out)
    : sched_{&sched},
      cfg_{cfg},
      train_{sched,
             out,
             {cfg.flow, cfg.packets_per_probe, cfg.packet_bytes, cfg.intra_probe_gap},
             sim::flow_id_block(0xB1, cfg.flow)} {
    sched_->schedule_at(cfg_.start, [this] { emit(); });
}

void FixedIntervalProber::emit() {
    if (sched_->now() >= cfg_.stop) return;
    train_.send(static_cast<std::int64_t>(train_.probes_sent()));
    sched_->schedule_after(cfg_.interval, [this] { emit(); });
}

void FixedIntervalProber::accept(const sim::Packet& pkt) {
    train_.receive(pkt, sched_->now());
}

void FixedIntervalProber::stream_outcomes(core::OutcomeSink& sink) const {
    ProbeTrain::OutcomeWalk walk = train_.walk();
    const auto probes = static_cast<std::int64_t>(train_.probes_sent());
    for (std::int64_t i = 0; i < probes; ++i) {
        sink.consume(walk.next(i, cfg_.start + cfg_.interval * i));
    }
}

std::vector<core::ProbeOutcome> FixedIntervalProber::outcomes() const {
    core::VectorSink<core::ProbeOutcome> sink;
    sink.reserve(train_.probes_sent());
    stream_outcomes(sink);
    return sink.take();
}

}  // namespace bb::probes
