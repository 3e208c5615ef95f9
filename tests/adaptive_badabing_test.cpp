#include "probes/adaptive_badabing.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "scenarios/experiment.h"
#include "scenarios/testbed.h"
#include "scenarios/workload.h"

namespace bb {
namespace {

scenarios::TestbedConfig testbed_cfg() {
    scenarios::TestbedConfig cfg;
    cfg.bottleneck_rate_bps = 10'000'000;
    return cfg;
}

probes::AdaptiveBadabingConfig adaptive_cfg() {
    probes::AdaptiveBadabingConfig cfg;
    cfg.p = 0.4;
    cfg.evaluation_interval = seconds_i(20);
    cfg.stopping.min_transitions = 30;
    cfg.stopping.tolerance = 0.35;
    cfg.marking.tau = milliseconds(20);
    cfg.marking.alpha = 0.1;
    return cfg;
}

TEST(AdaptiveBadabing, StopsValidOnceEnoughEvidenceAccumulates) {
    scenarios::Testbed tb{testbed_cfg()};
    scenarios::WorkloadConfig wl;
    wl.kind = scenarios::TrafficKind::cbr_uniform;
    wl.duration = seconds_i(900);
    wl.seed = 1;
    wl.mean_episode_gap = seconds_i(4);  // frequent episodes: evidence accrues fast
    scenarios::Workload workload{tb, wl};

    auto cfg = adaptive_cfg();
    cfg.max_duration = seconds_i(900);
    probes::AdaptiveBadabingTool tool{tb.sched(), cfg, tb.forward_in(), Rng{2}};
    tb.fwd_demux().bind(cfg.flow, tool);

    tb.sched().run_until(seconds_i(902));
    EXPECT_TRUE(tool.stopped());
    EXPECT_EQ(tool.decision(), core::StoppingRule::Decision::stop_valid);
    EXPECT_LT(tool.stopped_at(), seconds_i(900)) << "should stop before the hard cap";
    EXPECT_GT(tool.probes_sent(), 0u);

    const auto snap = tool.snapshot();
    EXPECT_GT(snap.frequency.value, 0.0);
    EXPECT_TRUE(snap.duration_basic.valid);
}

TEST(AdaptiveBadabing, HardCapOnQuietPath) {
    scenarios::Testbed tb{testbed_cfg()};  // no cross traffic at all
    auto cfg = adaptive_cfg();
    cfg.max_duration = seconds_i(60);
    probes::AdaptiveBadabingTool tool{tb.sched(), cfg, tb.forward_in(), Rng{3}};
    tb.fwd_demux().bind(cfg.flow, tool);
    tb.sched().run_until(seconds_i(62));
    EXPECT_TRUE(tool.stopped());
    EXPECT_EQ(tool.decision(), core::StoppingRule::Decision::keep_going)
        << "no transitions ever appear on an idle path";
    const auto snap = tool.snapshot();
    EXPECT_DOUBLE_EQ(snap.frequency.value, 0.0);
}

TEST(AdaptiveBadabing, StopsProbingAfterDecision) {
    scenarios::Testbed tb{testbed_cfg()};
    scenarios::WorkloadConfig wl;
    wl.kind = scenarios::TrafficKind::cbr_uniform;
    wl.duration = seconds_i(600);
    wl.seed = 4;
    wl.mean_episode_gap = seconds_i(4);
    scenarios::Workload workload{tb, wl};

    auto cfg = adaptive_cfg();
    probes::AdaptiveBadabingTool tool{tb.sched(), cfg, tb.forward_in(), Rng{5}};
    tb.fwd_demux().bind(cfg.flow, tool);
    tb.sched().run_until(seconds_i(602));
    ASSERT_TRUE(tool.stopped());
    const auto sent_at_stop = tool.probes_sent();
    tb.sched().run_until(seconds_i(650));
    EXPECT_EQ(tool.probes_sent(), sent_at_stop) << "no probes after stopping";
}

TEST(AdaptiveBadabing, ExperimentRateMatchesP) {
    scenarios::Testbed tb{testbed_cfg()};
    auto cfg = adaptive_cfg();
    cfg.p = 0.25;
    cfg.max_duration = seconds_i(100);
    probes::AdaptiveBadabingTool tool{tb.sched(), cfg, tb.forward_in(), Rng{6}};
    tb.fwd_demux().bind(cfg.flow, tool);
    tb.sched().run_until(seconds_i(102));
    const double slots = 100.0 / 0.005;
    EXPECT_NEAR(static_cast<double>(tool.experiments_started()) / slots, 0.25, 0.02);
}

TEST(AdaptiveBadabing, RejectsBadProbeProcess) {
    scenarios::Testbed tb{testbed_cfg()};
    const auto make = [&tb](const probes::AdaptiveBadabingConfig& cfg) {
        probes::AdaptiveBadabingTool tool{tb.sched(), cfg, tb.forward_in(), Rng{7}};
    };
    auto cfg = adaptive_cfg();
    cfg.p = 0.0;  // would never probe
    EXPECT_THROW(make(cfg), std::invalid_argument);
    cfg.p = 1.5;  // would silently behave as p = 1
    EXPECT_THROW(make(cfg), std::invalid_argument);
    cfg = adaptive_cfg();
    cfg.extended_fraction = 2.0;
    EXPECT_THROW(make(cfg), std::invalid_argument);
    EXPECT_NO_THROW(make(adaptive_cfg()));
}

}  // namespace
}  // namespace bb
