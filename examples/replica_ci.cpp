// Multi-replica measurement with confidence intervals: the quickstart
// scenario, N times in parallel.
//
//   $ ./examples/replica_ci
//
// A single 5-minute run gives one point estimate; the paper (§5.2, §8)
// stresses that the *variance* of the estimators is the interesting part.
// ReplicaRunner runs independent replicas of the same experiment — each
// with its own RNG stream derived positionally from a master seed — across
// all CPU cores, and reports mean, stddev and a 95% percentile-bootstrap
// confidence interval.  Aggregates are bit-identical for any thread count.
#include <cstdio>

#include "scenarios/replica_runner.h"
#include "scenarios/spec.h"

int main() {
    using namespace bb;

    // The quickstart path as a scenario spec: 30 Mb/s drop-tail dumbbell,
    // CBR cross traffic with engineered 68 ms loss episodes, BADABING at
    // p = 0.3, 8 replicas on all hardware threads.
    const auto parsed = scenarios::load_scenario_spec_text(R"({
      "link": {"rate_mbps": 30},
      "traffic": {"kind": "cbr_uniform", "duration_s": 300,
                  "episode_ms": 68, "mean_episode_gap_s": 10},
      "probe": {"badabing": {"p": 0.3}},
      "run": {"replicas": 8, "threads": 0, "seed": 42}
    })", "replica_ci");
    if (!parsed.ok) {
        std::fprintf(stderr, "%s\n", parsed.error.c_str());
        return 1;
    }
    const scenarios::ScenarioSpec& spec = parsed.spec;

    const scenarios::ReplicaRunner runner{spec};
    std::printf("running %zu replicas of a 300 s CBR scenario (p = %.1f)...\n\n",
                spec.replicas, spec.badabing.p);
    const auto results = runner.run();
    const auto agg = runner.aggregate(results);

    std::printf("%-8s | %-10s | %-10s | %-10s\n", "replica", "true freq", "est freq",
                "est dur(s)");
    for (const auto& r : results) {
        std::printf("%-8zu | %-10.4f | %-10.4f | %-10.3f\n", r.index, r.truth.frequency,
                    r.est_frequency(), r.est_duration_s(spec.badabing.slot_width));
    }

    std::printf("\naggregate over %zu replicas (mean +/- 95%% bootstrap CI):\n",
                results.size());
    std::printf("  true frequency : %.4f (sd %.4f)\n", agg.true_frequency.mean,
                agg.true_frequency.stddev);
    std::printf("  est  frequency : %.4f [%.4f, %.4f]\n", agg.est_frequency.mean,
                agg.est_frequency.ci.lo, agg.est_frequency.ci.hi);
    std::printf("  true duration  : %.3f s (sd %.3f)\n", agg.true_duration_s.mean,
                agg.true_duration_s.stddev);
    std::printf("  est  duration  : %.3f s [%.3f, %.3f]\n", agg.est_duration_s.mean,
                agg.est_duration_s.ci.lo, agg.est_duration_s.ci.hi);

    std::printf("\nReading the result: the CI tells you how much of the gap between the\n"
                "estimate and the truth is estimator bias (persists across replicas)\n"
                "versus sampling noise (averages out).  Single-run comparisons cannot\n"
                "separate the two.\n");
    return 0;
}
