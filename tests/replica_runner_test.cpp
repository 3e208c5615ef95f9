#include "scenarios/replica_runner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "scenarios/sweep.h"

namespace bb::scenarios {
namespace {

// A small-but-real scenario: CBR with engineered 68 ms loss episodes every
// ~2 s, 8 simulated seconds per replica, BADABING at p = 0.3, master seed 7.
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

void expect_identical(const ReplicaResult& a, const ReplicaResult& b) {
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.seed, b.seed);
    // Sufficient statistics of the estimate: the full y-state tallies.
    EXPECT_EQ(a.result.counts.basic, b.result.counts.basic);
    EXPECT_EQ(a.result.counts.extended, b.result.counts.extended);
    EXPECT_EQ(a.result.probes_sent, b.result.probes_sent);
    EXPECT_EQ(a.result.packets_lost, b.result.packets_lost);
    EXPECT_EQ(a.result.frequency.value, b.result.frequency.value);
    EXPECT_EQ(a.result.duration_basic.slots, b.result.duration_basic.slots);
    EXPECT_EQ(a.truth.frequency, b.truth.frequency);
    EXPECT_EQ(a.truth.mean_duration_s, b.truth.mean_duration_s);
    EXPECT_EQ(a.truth.total_drops, b.truth.total_drops);
    EXPECT_EQ(a.offered_load, b.offered_load);
}

void expect_identical(const AggregateStat& a, const AggregateStat& b) {
    EXPECT_EQ(a.mean, b.mean);
    EXPECT_EQ(a.stddev, b.stddev);
    EXPECT_EQ(a.ci.lo, b.ci.lo);
    EXPECT_EQ(a.ci.hi, b.ci.hi);
    EXPECT_EQ(a.ci.point, b.ci.point);
}

// The tentpole invariant: same master seed => bit-identical per-replica
// results and aggregates, regardless of thread count.  Seeding is
// positional, so the scheduler can only reorder work, not change it.
TEST(ReplicaRunner, ThreadCountDoesNotChangeResults) {
    const ReplicaRunner serial{short_cbr_spec(6, 1)};
    const ReplicaRunner parallel{short_cbr_spec(6, 8)};

    const auto r1 = serial.run();
    const auto r8 = parallel.run();
    ASSERT_EQ(r1.size(), 6u);
    ASSERT_EQ(r8.size(), 6u);
    for (std::size_t i = 0; i < r1.size(); ++i) {
        SCOPED_TRACE(i);
        expect_identical(r1[i], r8[i]);
    }

    const auto a1 = serial.aggregate(r1);
    const auto a8 = parallel.aggregate(r8);
    EXPECT_EQ(a1.replicas, a8.replicas);
    expect_identical(a1.true_frequency, a8.true_frequency);
    expect_identical(a1.est_frequency, a8.est_frequency);
    expect_identical(a1.true_duration_s, a8.true_duration_s);
    expect_identical(a1.est_duration_s, a8.est_duration_s);
    expect_identical(a1.offered_load, a8.offered_load);
}

TEST(ReplicaRunner, SeedsArePositionalAndPrefixStable) {
    const auto s4 = ReplicaRunner::replica_seeds(7, 4);
    const auto s8 = ReplicaRunner::replica_seeds(7, 8);
    ASSERT_EQ(s4.size(), 4u);
    ASSERT_EQ(s8.size(), 8u);
    // Growing the replica count must not disturb earlier replicas' streams.
    for (std::size_t i = 0; i < s4.size(); ++i) EXPECT_EQ(s4[i], s8[i]);
    // All seeds distinct.
    const std::set<std::uint64_t> unique(s8.begin(), s8.end());
    EXPECT_EQ(unique.size(), s8.size());
    // Different master seed => different streams.
    EXPECT_NE(ReplicaRunner::replica_seeds(8, 4)[0], s4[0]);
}

TEST(ReplicaRunner, ReplicasAreActuallyIndependentRuns) {
    const ReplicaRunner runner{short_cbr_spec(4, 2)};
    const auto results = runner.run();
    ASSERT_EQ(results.size(), 4u);
    // Different seeds produce different probe designs (geometric draws), so
    // at least one pair of replicas must differ in probes sent.
    bool any_difference = false;
    for (std::size_t i = 1; i < results.size(); ++i) {
        if (results[i].result.probes_sent != results[0].result.probes_sent ||
            results[i].truth.total_drops != results[0].truth.total_drops) {
            any_difference = true;
        }
    }
    EXPECT_TRUE(any_difference);
    // Every replica saw the engineered congestion.
    for (const auto& r : results) {
        EXPECT_GT(r.result.probes_sent, 0u);
        EXPECT_GT(r.truth.total_drops, 0u);
    }
}

TEST(ReplicaRunner, SingleReplicaAggregationDegeneratesGracefully) {
    const ReplicaRunner runner{short_cbr_spec(1, 1)};
    const auto results = runner.run();
    ASSERT_EQ(results.size(), 1u);
    const auto agg = runner.aggregate(results);

    EXPECT_EQ(agg.replicas, 1u);
    // No NaNs anywhere; the CI collapses to a zero-width interval at the
    // single observed value instead of blowing up.
    for (const AggregateStat* s : {&agg.true_frequency, &agg.est_frequency,
                                   &agg.true_duration_s, &agg.est_duration_s,
                                   &agg.offered_load}) {
        EXPECT_TRUE(std::isfinite(s->mean));
        EXPECT_EQ(s->stddev, 0.0);
        ASSERT_TRUE(s->ci.valid);
        EXPECT_EQ(s->ci.lo, s->mean);
        EXPECT_EQ(s->ci.hi, s->mean);
        EXPECT_EQ(s->ci.std_error, 0.0);
    }
    EXPECT_EQ(agg.est_frequency.mean, results[0].est_frequency());
}

TEST(ReplicaRunner, ZeroReplicasYieldEmptyButFiniteAggregate) {
    const ReplicaRunner runner{short_cbr_spec(0, 4)};
    const auto results = runner.run();
    EXPECT_TRUE(results.empty());
    const auto agg = runner.aggregate(results);
    EXPECT_EQ(agg.replicas, 0u);
    EXPECT_FALSE(agg.est_frequency.ci.valid);
    EXPECT_TRUE(std::isfinite(agg.est_frequency.mean));
    EXPECT_EQ(agg.est_frequency.mean, 0.0);
}

TEST(ReplicaRunner, JsonEmissionContainsRowsAndTrajectories) {
    const ScenarioSpec spec = short_cbr_spec(2, 2);
    const ReplicaRunner runner{spec};
    const auto results = runner.run();
    const auto agg = runner.aggregate(results);
    const auto doc = aggregate_json("unit", spec.badabing.slot_width, agg, results);
    EXPECT_NE(doc.find("\"label\":\"unit\""), std::string::npos);
    EXPECT_NE(doc.find("\"est_frequency\""), std::string::npos);
    EXPECT_NE(doc.find("\"trajectory\""), std::string::npos);
    EXPECT_NE(doc.find("\"replica\":1"), std::string::npos);
    EXPECT_EQ(doc.find("nan"), std::string::npos);
}

// Replica `seed`'s world rebuilt by hand from the spec, analyzed under an
// explicit marking and estimator.
probes::BadabingResult rebuild_replica(ScenarioSpec spec, std::uint64_t seed,
                                       const core::MarkingConfig& marking,
                                       const core::EstimatorOptions& options) {
    spec.testbed.seed = seed ^ 0x5EEDULL;
    spec.workload.seed = seed;
    const BuiltExperiment built = build_experiment(spec);
    built.experiment->run();
    return built.badabing->analyze(marking, options);
}

// The spec is the whole description of a replica run: the run section picks
// the replica count and seeds, probe.badabing.improved the probe design, and
// the analysis section the marking and the estimator options.
TEST(ReplicaRunner, SpecSectionsReachTheReplicaResults) {
    const auto r = load_scenario_spec_text(R"({
      "traffic": {"kind": "cbr_uniform", "duration_s": 8, "mean_episode_gap_s": 2},
      "probe": {"badabing": {"p": 0.5, "improved": true}},
      "analysis": {"alpha": 0.2, "tau_ms": 40, "frequency_from_extended": false,
                   "pairs_from_extended": true},
      "run": {"replicas": 3, "threads": 2, "seed": 11}
    })", "sections");
    ASSERT_TRUE(r.ok) << r.error;
    const auto results = ReplicaRunner{r.spec}.run();
    ASSERT_EQ(results.size(), 3u);
    const auto seeds = ReplicaRunner::replica_seeds(11, 3);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].seed, seeds[i]);
        EXPECT_GT(results[i].result.counts.extended_total(), 0u) << "improved design";
    }

    core::MarkingConfig marking;
    marking.alpha = 0.2;
    marking.tau = milliseconds(40);
    core::EstimatorOptions options;
    options.frequency_from_extended = false;
    options.pairs_from_extended = true;
    const auto want = rebuild_replica(r.spec, seeds[1], marking, options);
    const auto& got = results[1].result;
    EXPECT_EQ(got.counts.basic, want.counts.basic);
    EXPECT_EQ(got.counts.extended, want.counts.extended);
    EXPECT_EQ(got.frequency.value, want.frequency.value);
    EXPECT_EQ(got.frequency.samples, want.frequency.samples);
    EXPECT_EQ(got.duration_basic.R, want.duration_basic.R);
    EXPECT_EQ(got.duration_basic.S, want.duration_basic.S);

    // The paper-default analysis of the same world scores differently, so
    // the match above is the analysis section at work.
    ScenarioSpec defaults = r.spec;
    defaults.marking_alpha.reset();
    defaults.marking_tau.reset();
    const auto paper = rebuild_replica(r.spec, seeds[1], marking_for(defaults), {});
    EXPECT_NE(paper.counts.basic, want.counts.basic);
    EXPECT_NE(paper.frequency.samples, want.frequency.samples);
}

#ifdef BB_EXAMPLES_DIR
// Tables 4-6 as shipped: the p = 0.3 cell of examples/table{4,5,6}.json,
// shortened to 20 s with 2 replicas.  The pinned aggregates are the values
// the former table benches printed for the same run.
struct PinnedStat {
    double mean, ci_lo, ci_hi;
};
struct PinnedRow {
    PinnedStat true_frequency, est_frequency, true_duration_s, est_duration_s;
};

void expect_pinned(const char* name, const AggregateStat& got, const PinnedStat& want) {
    SCOPED_TRACE(name);
    EXPECT_EQ(got.mean, want.mean);
    EXPECT_EQ(got.ci.lo, want.ci_lo);
    EXPECT_EQ(got.ci.hi, want.ci_hi);
}

void expect_table_row(const std::string& file, const PinnedRow& want) {
    SCOPED_TRACE(file);
    const auto sr = load_sweep_spec_file(std::string{BB_EXAMPLES_DIR} + "/" + file);
    ASSERT_TRUE(sr.ok) << sr.error;
    const auto ex = expand_sweep(sr.sweep, file);
    ASSERT_TRUE(ex.ok) << ex.error;
    ScenarioSpec spec = ex.cells.at(1).spec;
    ASSERT_EQ(spec.badabing.p, 0.3);
    spec.workload.duration = seconds_i(20);
    spec.replicas = 2;
    const ReplicaRunner runner{spec};
    const AggregateRow row = runner.aggregate(runner.run());
    ASSERT_EQ(row.replicas, 2u);
    expect_pinned("true_frequency", row.true_frequency, want.true_frequency);
    expect_pinned("est_frequency", row.est_frequency, want.est_frequency);
    expect_pinned("true_duration_s", row.true_duration_s, want.true_duration_s);
    expect_pinned("est_duration_s", row.est_duration_s, want.est_duration_s);
}

TEST(ReplicaRunner, Table4RowFromExample) {
    expect_table_row("table4.json",
                     {{0.00575, 0, 0.0115},
                      {0.00801924619085806, 0, 0.01603849238171612},
                      {0.03616666666666667, 0, 0.07233333333333335},
                      {0.0975, 0, 0.195}});
}

TEST(ReplicaRunner, Table5RowFromExample) {
    expect_table_row("table5.json",
                     {{0.007125, 0, 0.01425},
                      {0.009222133119486768, 0, 0.018444266238973536},
                      {0.043898461666666666, 0, 0.08779692333333333},
                      {0.1125, 0, 0.225}});
}

TEST(ReplicaRunner, Table6RowFromExample) {
    expect_table_row("table6.json",
                     {{0.006375, 0, 0.01275},
                      {0.002617801047120419, 0, 0.005235602094240838},
                      {0.06074, 0, 0.12148},
                      {0, 0, 0}});
}
#endif  // BB_EXAMPLES_DIR

}  // namespace
}  // namespace bb::scenarios
