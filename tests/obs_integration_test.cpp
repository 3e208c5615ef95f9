// End-to-end checks that the obs counters wired through sim/probes/scenarios
// agree exactly with the quantities the run itself reports: instrumentation
// that cannot drift from the results it describes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "obs/control.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenarios/replica_runner.h"

namespace bb::scenarios {
namespace {

ScenarioSpec short_cbr_spec(std::size_t replicas, std::size_t threads) {
    auto r = load_scenario_spec_text(R"({
      "traffic": {"kind": "cbr_uniform", "duration_s": 8, "episode_ms": 68,
                  "mean_episode_gap_s": 2},
      "probe": {"badabing": {"p": 0.3}},
      "run": {"seed": 7}
    })", "short_cbr");
    EXPECT_TRUE(r.ok) << r.error;
    r.spec.replicas = replicas;
    r.spec.threads = threads;
    return r.spec;
}

TEST(ObsIntegration, CountersMatchRunSummaryExactly) {
    obs::set_enabled(true);
    obs::Counter& scored = obs::counter("core.reports_scored");
    obs::Counter& drops = obs::counter("sim.queue.drops");
    obs::Counter& probes_sent = obs::counter("probes.badabing.probes_sent");
    const std::uint64_t scored0 = scored.value();
    const std::uint64_t drops0 = drops.value();
    const std::uint64_t probes0 = probes_sent.value();

    const ReplicaRunner runner{short_cbr_spec(3, 2)};
    const auto results = runner.run();
    ASSERT_EQ(results.size(), 3u);

    std::uint64_t want_experiments = 0;
    std::uint64_t want_drops = 0;
    std::uint64_t want_probes = 0;
    for (const auto& r : results) {
        want_experiments += r.result.experiments;
        want_drops += r.queue_drops;
        want_probes += r.result.probes_sent;
        EXPECT_GT(r.result.experiments, 0u);
    }
    // Loss episodes are engineered into the CBR workload, so drops happen.
    EXPECT_GT(want_drops, 0u);

    // analyze() feeds every designed experiment through StreamingAnalyzer
    // exactly once, and each queue drop increments sim.queue.drops exactly
    // once — so the counter deltas match the run's own summary.
    EXPECT_EQ(scored.value() - scored0, want_experiments);
    EXPECT_EQ(drops.value() - drops0, want_drops);
    EXPECT_EQ(probes_sent.value() - probes0, want_probes);
}

TEST(ObsIntegration, TraceCapturesPerReplicaSpans) {
    obs::set_enabled(true);
    obs::Trace::start();

    const ReplicaRunner runner{short_cbr_spec(2, 2)};
    const auto results = runner.run();
    (void)runner.aggregate(results);

    // One "replica" span per replica, plus nested experiment.run /
    // badabing.analyze spans and the aggregate span.
    EXPECT_GE(obs::Trace::buffered_events(), 2u + 2u * 2u + 1u);

    const std::string path = "obs_integration_trace.json";
    ASSERT_TRUE(obs::Trace::write(path));
    std::string doc;
    {
        std::FILE* f = std::fopen(path.c_str(), "r");
        ASSERT_NE(f, nullptr);
        char buf[4096];
        std::size_t n = 0;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) doc.append(buf, n);
        std::fclose(f);
    }
    std::remove(path.c_str());

    EXPECT_NE(doc.find("\"name\":\"replica\""), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"experiment.run\""), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"badabing.analyze\""), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"aggregate\""), std::string::npos);
    EXPECT_NE(doc.find("\"args\":{\"replica\":0}"), std::string::npos);
    EXPECT_NE(doc.find("\"args\":{\"replica\":1}"), std::string::npos);
}

TEST(ObsIntegration, KillSwitchFreezesCountersWithoutChangingResults) {
    obs::set_enabled(true);
    const ReplicaRunner runner{short_cbr_spec(1, 1)};

    const auto on_results = runner.run();

    obs::Counter& scored = obs::counter("core.reports_scored");
    const std::uint64_t before = scored.value();
    obs::set_enabled(false);
    const auto off_results = runner.run();
    EXPECT_EQ(scored.value(), before);  // nothing counted while disabled
    obs::set_enabled(true);

    // The kill switch is pure observation: results are bit-identical.
    ASSERT_EQ(on_results.size(), off_results.size());
    EXPECT_EQ(on_results[0].result.counts.basic, off_results[0].result.counts.basic);
    EXPECT_EQ(on_results[0].result.frequency.value, off_results[0].result.frequency.value);
    EXPECT_EQ(on_results[0].queue_drops, off_results[0].queue_drops);
}

}  // namespace
}  // namespace bb::scenarios
