// Seed-pinned golden tests for the probe paths golden_droptail_test does not
// reach: the fixed-interval prober of Figures 7/8, the open-ended adaptive
// BADABING tool, and BADABING with ECN-capable probes through a marking AQM
// hop read by a receiver whose clock is offset and skewed.
//
// Every probe sender shares one packet train and one receive record, and
// every experiment start comes from one per-slot draw; these pins fail on
// any drift there: an extra RNG draw, a reordered event, a packet id out of
// sequence, a changed outcome field.
//
// Regenerating the constants (only after an *intentional* behaviour change):
//   BB_GOLDEN_PRINT=1 ./build/tests/golden_probe_paths_test
// and paste the printed values below.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "probes/adaptive_badabing.h"
#include "scenarios/experiment.h"
#include "scenarios/testbed.h"
#include "scenarios/workload.h"

namespace bb {
namespace {

bool golden_print() { return std::getenv("BB_GOLDEN_PRINT") != nullptr; }

// FNV-1a over the per-probe fields the estimators read.
std::uint64_t outcome_digest(const std::vector<core::ProbeOutcome>& outcomes) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto fold = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFFU;
            h *= 0x100000001b3ULL;
        }
    };
    for (const core::ProbeOutcome& po : outcomes) {
        fold(static_cast<std::uint64_t>(po.send_time.ns()));
        fold(static_cast<std::uint64_t>(po.packets_lost));
        fold(static_cast<std::uint64_t>(po.max_owd.ns()));
        fold(po.ce_marked ? 1U : 0U);
    }
    return h;
}

std::uint64_t lost_packets(const std::vector<core::ProbeOutcome>& outcomes) {
    std::uint64_t lost = 0;
    for (const core::ProbeOutcome& po : outcomes) {
        lost += static_cast<std::uint64_t>(po.packets_lost);
    }
    return lost;
}

scenarios::TestbedConfig golden_testbed() {
    scenarios::TestbedConfig cfg;
    cfg.bottleneck_rate_bps = 20'000'000;
    return cfg;
}

scenarios::WorkloadConfig cbr_workload(TimeNs duration, std::uint64_t seed) {
    scenarios::WorkloadConfig wl;
    wl.kind = scenarios::TrafficKind::cbr_uniform;
    wl.duration = duration;
    wl.seed = seed;
    wl.mean_episode_gap = seconds_i(4);
    return wl;
}

// --- pinned values (regenerate with BB_GOLDEN_PRINT=1; see header) ---------

constexpr std::uint64_t kFixedCount = 6000u;
constexpr std::uint64_t kFixedLost = 316u;
constexpr std::uint64_t kFixedDigest = 0x463288d8e7a40e10ULL;

constexpr std::uint64_t kAdaptiveProbes = 42606u;
constexpr std::uint64_t kAdaptiveExperiments = 23971u;
constexpr std::int64_t kAdaptiveStoppedAtNs = 300000000000;
constexpr int kAdaptiveDecision = 1;  // stop_valid
constexpr double kAdaptiveFreq = 0.026698927871177672;
constexpr double kAdaptiveDurSlots = 19.375;
constexpr double kAdaptiveDurImprovedSlots = 17.004032258064516;

constexpr std::uint64_t kEcnProbes = 6070u;
constexpr std::uint64_t kEcnLost = 252u;
constexpr std::uint64_t kEcnCeProbes = 73u;
constexpr std::uint64_t kEcnDigest = 0xc1414ca6173080bcULL;
constexpr double kEcnFreq = 0.045746164574616457;
constexpr double kEcnDurSlots = 9.4000000000000004;

TEST(GoldenProbePaths, FixedIntervalProberOutcomes) {
    scenarios::Experiment exp{golden_testbed(), cbr_workload(seconds_i(60), 42)};
    probes::FixedIntervalProber::Config pc;
    pc.interval = milliseconds(10);
    pc.packets_per_probe = 4;
    auto& prober = exp.add_fixed_prober(pc);
    exp.run();

    const auto outcomes = prober.outcomes();
    const auto count = static_cast<std::uint64_t>(outcomes.size());
    const std::uint64_t lost = lost_packets(outcomes);
    const std::uint64_t digest = outcome_digest(outcomes);
    if (golden_print()) {
        std::printf("golden fixed: count %lluu, lost %lluu, digest 0x%016llxULL\n",
                    static_cast<unsigned long long>(count),
                    static_cast<unsigned long long>(lost),
                    static_cast<unsigned long long>(digest));
        return;
    }
    EXPECT_EQ(count, kFixedCount);
    EXPECT_EQ(lost, kFixedLost);
    EXPECT_EQ(digest, kFixedDigest);
}

TEST(GoldenProbePaths, AdaptiveBadabingRun) {
    scenarios::Testbed tb{golden_testbed()};
    scenarios::Workload workload{tb, cbr_workload(seconds_i(600), 1)};
    probes::AdaptiveBadabingConfig cfg;
    cfg.p = 0.4;
    cfg.max_duration = seconds_i(600);
    cfg.evaluation_interval = seconds_i(20);
    cfg.stopping.min_transitions = 30;
    cfg.stopping.tolerance = 0.35;
    cfg.marking.tau = milliseconds(20);
    cfg.marking.alpha = 0.1;
    probes::AdaptiveBadabingTool tool{tb.sched(), cfg, tb.forward_in(), Rng{2}};
    tb.fwd_demux().bind(cfg.flow, tool);
    tb.sched().run_until(seconds_i(602));

    const auto snap = tool.snapshot();
    const double dur = snap.duration_basic.valid ? snap.duration_basic.slots : -1.0;
    const double dur_improved =
        snap.duration_improved.valid ? snap.duration_improved.slots : -1.0;
    if (golden_print()) {
        std::printf("golden adaptive: probes %lluu, experiments %lluu, stopped_at %lld, "
                    "decision %d, freq %.17g, dur %.17g, dur_improved %.17g\n",
                    static_cast<unsigned long long>(tool.probes_sent()),
                    static_cast<unsigned long long>(tool.experiments_started()),
                    static_cast<long long>(tool.stopped_at().ns()),
                    static_cast<int>(tool.decision()), snap.frequency.value, dur,
                    dur_improved);
        return;
    }
    EXPECT_EQ(tool.probes_sent(), kAdaptiveProbes);
    EXPECT_EQ(static_cast<std::uint64_t>(tool.experiments_started()), kAdaptiveExperiments);
    EXPECT_EQ(tool.stopped_at().ns(), kAdaptiveStoppedAtNs);
    EXPECT_EQ(static_cast<int>(tool.decision()), kAdaptiveDecision);
    EXPECT_EQ(snap.frequency.value, kAdaptiveFreq);
    EXPECT_EQ(dur, kAdaptiveDurSlots);
    EXPECT_EQ(dur_improved, kAdaptiveDurImprovedSlots);
}

TEST(GoldenProbePaths, EcnProbesWithSkewedReceiverClock) {
    scenarios::TestbedConfig tb = golden_testbed();
    tb.discipline = scenarios::QueueDiscipline::red;
    tb.red.ecn = true;
    scenarios::Experiment exp{tb, cbr_workload(seconds_i(60), 42)};
    probes::BadabingConfig bc;
    bc.p = 0.3;
    bc.total_slots = 0;
    bc.ecn_probes = true;
    bc.receiver_clock_offset = milliseconds(3);
    bc.receiver_clock_skew_ppm = 50.0;
    auto& tool = exp.add_badabing(bc);
    exp.run();

    const auto outcomes = tool.outcomes();
    std::uint64_t ce = 0;
    for (const core::ProbeOutcome& po : outcomes) {
        if (po.ce_marked) ++ce;
    }
    const std::uint64_t digest = outcome_digest(outcomes);
    const auto res = tool.analyze(exp.default_marking(bc.p));
    const double dur = res.duration_basic.valid ? res.duration_basic.slots : -1.0;
    if (golden_print()) {
        std::printf("golden ecn: probes %lluu, lost %lluu, ce %lluu, digest 0x%016llxULL, "
                    "freq %.17g, dur %.17g\n",
                    static_cast<unsigned long long>(res.probes_sent),
                    static_cast<unsigned long long>(res.packets_lost),
                    static_cast<unsigned long long>(ce),
                    static_cast<unsigned long long>(digest), res.frequency.value, dur);
        return;
    }
    EXPECT_GT(ce, 0u) << "ECT probes through a marking RED hop must pick up CE";
    EXPECT_EQ(res.probes_sent, kEcnProbes);
    EXPECT_EQ(res.packets_lost, kEcnLost);
    EXPECT_EQ(ce, kEcnCeProbes);
    EXPECT_EQ(digest, kEcnDigest);
    EXPECT_EQ(res.frequency.value, kEcnFreq);
    EXPECT_EQ(dur, kEcnDurSlots);
}

}  // namespace
}  // namespace bb
