// The benchmark samples step latency by running each workload in 0.5
// simulated-second run_until chunks.  This pins that the chunking changes
// nothing that is measured: a shortened copy of every workload, run stepped
// and run in one Experiment::run() call, gives the same outputs and the same
// core::RunHasher digest.
#include <gtest/gtest.h>

#include <string>

#include "core/run_hasher.h"
#include "harness.h"
#include "scenarios/spec.h"

namespace {

using namespace bb;

struct Outputs {
    std::uint64_t digest{0};
    std::uint64_t events{0};
    std::uint64_t arrivals{0};
    std::uint64_t drops{0};
    measure::TruthSummary truth;
    probes::BadabingResult result;
};

Outputs run_workload(const std::string& name, bool stepped) {
    scenarios::SpecResult res =
        scenarios::load_scenario_spec_file(std::string{BB_PERFBENCH_WORKLOADS} + "/" + name);
    EXPECT_TRUE(res.ok) << res.error;
    res.spec.workload.duration = seconds_i(30);

    Outputs out;
    core::RunHasher hasher;
    {
        const core::HashScope scope{hasher};
        scenarios::BuiltExperiment built = scenarios::build_experiment(res.spec);
        scenarios::Experiment& exp = *built.experiment;
        if (stepped) {
            perfbench::Tracer tracer{false};
            const auto steps = perfbench::run_stepped(exp, tracer);
            EXPECT_EQ(steps.size(), 64U);  // 32 s horizon in 0.5 s chunks
        } else {
            exp.run();
        }
        out.events = exp.testbed().sched().executed_events();
        out.arrivals = exp.testbed().bottleneck().arrivals();
        out.drops = exp.testbed().bottleneck().drops();
        out.truth = exp.truth();
        out.result = built.badabing->analyze(scenarios::marking_for(res.spec), res.spec.estimator);
    }
    out.digest = hasher.digest();
    return out;
}

class SteppedRun : public ::testing::TestWithParam<const char*> {};

TEST_P(SteppedRun, MatchesSingleRunCall) {
    const Outputs whole = run_workload(GetParam(), false);
    const Outputs stepped = run_workload(GetParam(), true);

    EXPECT_GT(whole.events, 0U);
    EXPECT_GT(whole.result.probes_sent, 0U);
    EXPECT_EQ(stepped.digest, whole.digest);
    EXPECT_EQ(stepped.events, whole.events);
    EXPECT_EQ(stepped.arrivals, whole.arrivals);
    EXPECT_EQ(stepped.drops, whole.drops);
    EXPECT_EQ(stepped.truth.frequency, whole.truth.frequency);
    EXPECT_EQ(stepped.truth.mean_duration_s, whole.truth.mean_duration_s);
    EXPECT_EQ(stepped.truth.episodes, whole.truth.episodes);
    EXPECT_EQ(stepped.truth.total_drops, whole.truth.total_drops);
    EXPECT_EQ(stepped.result.probes_sent, whole.result.probes_sent);
    EXPECT_EQ(stepped.result.packets_lost, whole.result.packets_lost);
    EXPECT_EQ(stepped.result.frequency.value, whole.result.frequency.value);
    EXPECT_EQ(stepped.result.duration_basic.slots, whole.result.duration_basic.slots);
}

INSTANTIATE_TEST_SUITE_P(Workloads, SteppedRun,
                         ::testing::Values("tcp_infinite.json", "web_sessions.json",
                                           "cbr_fig9.json"));

}  // namespace
