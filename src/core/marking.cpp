#include "core/marking.h"

#include <algorithm>
#include <cstdint>

#include "core/probe_process.h"
#include "obs/metrics.h"
#include "util/contract.h"

namespace bb::core {

std::vector<SlotMark> CongestionMarker::mark(const std::vector<ProbeOutcome>& probes) {
    std::vector<SlotMark> marks;
    marks.reserve(probes.size());
    if (probes.empty()) return marks;

    BB_DCHECK_MSG(std::is_sorted(probes.begin(), probes.end(),
                                 [](const ProbeOutcome& a, const ProbeOutcome& b) {
                                     return a.send_time < b.send_time;
                                 }),
                  "marking: probe outcomes must arrive in send-time order");

    // Pass 1: base (propagation) delay and OWD_max estimates.
    bool have_base = false;
    TimeNs base{TimeNs::zero()};
    for (const auto& pr : probes) {
        BB_DCHECK_MSG(pr.packets_lost <= pr.packets_sent,
                      "marking: probe reports more losses than packets sent");
        if (!pr.any_received) continue;
        if (!have_base || pr.max_owd < base) {
            base = pr.max_owd;
            have_base = true;
        }
    }
    base_delay_ = base;

    std::deque<TimeNs> owd_max_samples;
    std::vector<TimeNs> loss_times;
    for (const auto& pr : probes) {
        // A CE mark is congestion observed without loss: it seeds the tau
        // window and contributes an OWD_max sample exactly like a loss.
        const bool indicated = pr.any_lost() || (cfg_.use_ce && pr.ce_marked);
        if (!indicated) continue;
        loss_times.push_back(pr.send_time);
        if (pr.any_received) {
            // Queueing component of the delay of the most recent successfully
            // transmitted packet -> estimate of the maximum queue depth.
            owd_max_samples.push_back(pr.max_owd - base);
            if (owd_max_samples.size() > cfg_.owd_max_window) owd_max_samples.pop_front();
        }
    }

    if (owd_max_samples.empty()) {
        owd_max_ = TimeNs::zero();
    } else {
        std::int64_t sum = 0;
        for (auto v : owd_max_samples) sum += v.ns();
        owd_max_ = TimeNs{sum / static_cast<std::int64_t>(owd_max_samples.size())};
    }

    const TimeNs threshold =
        seconds(owd_max_.to_seconds() * (1.0 - cfg_.alpha));

    // Pass 2: apply the rules.
    auto near_loss = [&](TimeNs t) {
        // Any loss indication within tau (either direction)?
        const auto it = std::lower_bound(loss_times.begin(), loss_times.end(), t - cfg_.tau);
        return it != loss_times.end() && *it <= t + cfg_.tau;
    };

    std::uint64_t by_loss = 0;
    std::uint64_t by_ce = 0;
    std::uint64_t by_delay = 0;
    for (const auto& pr : probes) {
        SlotMark m;
        m.slot = pr.slot;
        if (pr.any_lost()) {
            m.congested = true;
            m.by_loss = true;
            ++by_loss;
        } else if (cfg_.use_ce && pr.ce_marked) {
            m.congested = true;
            m.by_ce = true;
            ++by_ce;
        } else if (cfg_.use_delay_rule && owd_max_.ns() > 0 && pr.any_received) {
            const TimeNs qd = pr.max_owd - base;
            if (qd > threshold && near_loss(pr.send_time)) {
                m.congested = true;
                m.by_delay = true;
                ++by_delay;
            }
        }
        marks.push_back(m);
    }

    // Marking-rule decision tallies, flushed once per mark() call; obs
    // registry caches are telemetry only, never folded into results.
    static obs::Counter& loss_ctr = obs::counter("core.marking.by_loss");  // bb-det: allow(no-mutable-static)
    static obs::Counter& ce_ctr = obs::counter("core.marking.by_ce");
    static obs::Counter& delay_ctr = obs::counter("core.marking.by_delay");  // bb-det: allow(no-mutable-static)
    static obs::Counter& clear_ctr = obs::counter("core.marking.uncongested");
    if (by_loss > 0) loss_ctr.inc(by_loss);
    if (by_ce > 0) ce_ctr.inc(by_ce);
    if (by_delay > 0) delay_ctr.inc(by_delay);
    const std::uint64_t clear = marks.size() - by_loss - by_ce - by_delay;
    if (clear > 0) clear_ctr.inc(clear);
    return marks;
}

MarkScorer::MarkScorer(const std::vector<SlotMark>& marks, ReportSink& out) : out_{&out} {
    marks_.reserve(marks.size());
    for (const SlotMark& m : marks) marks_.emplace_back(m.slot, m.congested);
    const auto by_slot = [](const Mark& a, const Mark& b) { return a.first < b.first; };
    if (!std::is_sorted(marks_.begin(), marks_.end(), by_slot)) {
        // Stable, so a slot's marks keep their input order for the last to win.
        std::stable_sort(marks_.begin(), marks_.end(), by_slot);
    }
    std::size_t kept = 0;
    for (const Mark& m : marks_) {
        if (kept > 0 && marks_[kept - 1].first == m.first) {
            marks_[kept - 1].second = m.second;
        } else {
            marks_[kept++] = m;
        }
    }
    marks_.resize(kept);
}

bool MarkScorer::congested(SlotIndex slot) {
    // Overlapping experiments step back at most two slots and the next
    // experiment starts a few slots on, so a handful of steps reaches the
    // first mark at or after `slot`.
    constexpr int kNearSteps = 4;
    std::size_t i = cursor_;
    int steps = 0;
    for (; steps < kNearSteps; ++steps) {
        if (i > 0 && marks_[i - 1].first >= slot) {
            --i;
        } else if (i < marks_.size() && marks_[i].first < slot) {
            ++i;
        } else {
            break;
        }
    }
    if (steps == kNearSteps) {
        i = static_cast<std::size_t>(
            std::lower_bound(marks_.begin(), marks_.end(), slot,
                             [](const Mark& m, SlotIndex s) { return m.first < s; }) -
            marks_.begin());
    }
    cursor_ = i;
    return i < marks_.size() && marks_[i].first == slot && marks_[i].second;
}

void MarkScorer::consume(const Experiment& e) {
    out_->consume(score_experiment(e, [this](SlotIndex s) { return congested(s); }));
}

void score_marks_into(const std::vector<Experiment>& experiments,
                      const std::vector<SlotMark>& marks, ReportSink& sink) {
    MarkScorer scorer{marks, sink};
    for (const auto& e : experiments) scorer.consume(e);
}

}  // namespace bb::core
