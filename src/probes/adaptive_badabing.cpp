#include "probes/adaptive_badabing.h"

#include "core/report_sink.h"

namespace bb::probes {

AdaptiveBadabingTool::AdaptiveBadabingTool(sim::Scheduler& sched,
                                           const AdaptiveBadabingConfig& cfg,
                                           sim::PacketSink& out, Rng rng)
    : sched_{&sched},
      cfg_{cfg},
      process_{cfg.p, cfg.improved, cfg.extended_fraction},
      rng_{std::move(rng)},
      rule_{cfg.stopping},
      train_{sched,
             out,
             {cfg.flow, cfg.packets_per_probe, cfg.packet_bytes, cfg.intra_probe_gap},
             sim::flow_id_block(0xAD, cfg.flow)} {
    core::validate_probe_process(process_);
    sched_->schedule_at(cfg_.start, [this] { slot_tick(); });
    sched_->schedule_at(cfg_.start + cfg_.evaluation_interval, [this] { evaluate(); });
}

void AdaptiveBadabingTool::slot_tick() {
    if (stopped_) return;
    const TimeNs elapsed = sched_->now() - cfg_.start;
    if (elapsed >= cfg_.max_duration) {
        stopped_ = true;
        stopped_at_ = sched_->now();
        return;
    }

    if (const auto kind = core::draw_experiment_start(rng_, process_)) {
        const core::Experiment e{current_slot_, *kind};
        experiments_.push_back(e);
        for (int k = 0; k < e.probes(); ++k) {
            const core::SlotIndex slot = current_slot_ + k;
            if (!probe_slots_.empty() && slot <= probe_slots_.back()) continue;  // shared
            probe_slots_.push_back(slot);
            if (k == 0) {
                train_.send(slot);
            } else {
                sched_->schedule_after(cfg_.slot_width * k, [this, slot] { train_.send(slot); });
            }
        }
    }
    ++current_slot_;
    sched_->schedule_after(cfg_.slot_width, [this] { slot_tick(); });
}

void AdaptiveBadabingTool::accept(const sim::Packet& pkt) {
    train_.receive(pkt, sched_->now());
}

core::StateCounts AdaptiveBadabingTool::counts_up_to(TimeNs horizon) const {
    // Assemble outcomes, in slot (= send time) order, for probes old enough
    // to have settled.
    std::vector<core::ProbeOutcome> outcomes;
    outcomes.reserve(probe_slots_.size());
    ProbeTrain::OutcomeWalk walk = train_.walk();
    for (const core::SlotIndex slot : probe_slots_) {
        const TimeNs sent_at = cfg_.start + cfg_.slot_width * slot;
        if (sent_at > horizon) break;
        outcomes.push_back(walk.next(slot, sent_at));
    }
    const core::SlotIndex last_settled = outcomes.empty() ? -1 : outcomes.back().slot;

    std::vector<core::Experiment> complete;
    complete.reserve(experiments_.size());
    for (const auto& e : experiments_) {
        if (e.start_slot + e.probes() - 1 <= last_settled) complete.push_back(e);
    }
    // A plain tally, not a StreamingAnalyzer: re-scoring the past at every
    // evaluation must not fold reports into the run-state hash chain.
    core::StateCounts counts;
    auto tally = core::make_fn_sink<core::ExperimentResult>(
        [&counts](const core::ExperimentResult& r) { counts.add(r); });
    core::CongestionMarker marker{cfg_.marking};
    core::score_marks_into(complete, marker.mark(outcomes), tally);
    return counts;
}

void AdaptiveBadabingTool::evaluate() {
    if (stopped_) return;
    const auto counts = counts_up_to(sched_->now() - cfg_.settle_margin);
    decision_ = rule_.evaluate(counts);
    if (decision_ != core::StoppingRule::Decision::keep_going) {
        stopped_ = true;
        stopped_at_ = sched_->now();
        return;
    }
    sched_->schedule_after(cfg_.evaluation_interval, [this] { evaluate(); });
}

AdaptiveBadabingTool::Snapshot AdaptiveBadabingTool::snapshot() const {
    return core::estimate_all(counts_up_to(sched_->now()));
}

}  // namespace bb::probes
