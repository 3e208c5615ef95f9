// End-to-end determinism of the run-state hash chain (DESIGN.md §14): the
// merged digest of a replica run must be a pure function of the spec —
// identical across worker-thread counts and with obs instrumentation on or
// off — for the paper's scenario families (Table 1 TCP, Table 4 CBR,
// Table 5 multi-duration CBR, Table 6 web-like, and the fig9 sensitivity
// base).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/control.h"
#include "scenarios/replica_runner.h"
#include "scenarios/spec.h"
#include "scenarios/sweep.h"

namespace bb::scenarios {
namespace {

std::uint64_t digest_of(ScenarioSpec spec, std::size_t threads,
                        const ReplicaObservers& base = {}) {
    spec.threads = threads;
    ReplicaObservers observers = base;
    observers.hashing = true;
    const auto results = ReplicaRunner{std::move(spec)}.run(observers);
    for (const auto& r : results) EXPECT_GT(r.hash_records, 0u);
    return ReplicaRunner::merged_state_hash(results);
}

// Digests across threads {1, 4, 8}, obs on and off, must all agree.
void expect_thread_and_obs_invariant(const ScenarioSpec& spec) {
    const std::uint64_t reference = digest_of(spec, 1);
    for (const std::size_t threads : {std::size_t{4}, std::size_t{8}}) {
        EXPECT_EQ(digest_of(spec, threads), reference) << "threads " << threads;
    }
    obs::set_enabled(false);
    const std::uint64_t without_obs = digest_of(spec, 4);
    obs::set_enabled(true);
    const std::uint64_t with_obs = digest_of(spec, 4);
    EXPECT_EQ(without_obs, reference);
    EXPECT_EQ(with_obs, reference);
}

// Load a sweep example, expand it, and return cell 0's spec shortened to
// `duration_s` simulated seconds and 3 replicas so the matrix stays fast.
ScenarioSpec spec_from_example(const std::string& file, int duration_s) {
    const auto sr = load_sweep_spec_file(std::string{BB_EXAMPLES_DIR} + "/" + file);
    EXPECT_TRUE(sr.ok) << sr.error;
    const auto ex = expand_sweep(sr.sweep, file);
    EXPECT_TRUE(ex.ok) << ex.error;
    ScenarioSpec spec = ex.cells.at(0).spec;
    spec.workload.duration = seconds_i(duration_s);
    spec.replicas = 3;
    return spec;
}

// A 6 s, 3-replica spec from JSON text (BADABING at p = 0.3, seed 7).
ScenarioSpec short_spec(const std::string& traffic) {
    const auto r = load_scenario_spec_text(
        R"({"traffic": )" + traffic + R"(, "probe": {"badabing": {"p": 0.3}},
            "run": {"replicas": 3, "seed": 7}})",
        "short");
    EXPECT_TRUE(r.ok) << r.error;
    return r.spec;
}

TEST(DeterminismHash, Table4CbrScenarioFromExample) {
    expect_thread_and_obs_invariant(spec_from_example("table4.json", 6));
}

TEST(DeterminismHash, Table5CbrMultiScenarioFromExample) {
    expect_thread_and_obs_invariant(spec_from_example("table5.json", 6));
}

TEST(DeterminismHash, Table6WebScenario) {
    expect_thread_and_obs_invariant(spec_from_example("table6.json", 6));
}

TEST(DeterminismHash, Fig9SensitivityBaseFromExample) {
    expect_thread_and_obs_invariant(spec_from_example("fig9.json", 6));
}

// Table 1's workload family: infinite TCP through the bottleneck.
TEST(DeterminismHash, Table1TcpScenario) {
    expect_thread_and_obs_invariant(
        short_spec(R"({"kind": "infinite_tcp", "duration_s": 6})"));
}

// Recorder sampling rides the simulation scheduler, so recording is part of
// the *plan* (the spec plus its observers) — and therefore part of the
// digest: its sampling dispatches are folded like any other event.  A
// recording run must hash deterministically (thread-count invariant), and
// differently from the non-recording run.
// What recording must NOT change is the estimates, pinned by
// ExperimentRecorder.RecordingDoesNotChangeEstimates.
TEST(DeterminismHash, RecordingIsPartOfThePlanDigest) {
    // The recorder only samples while obs is enabled (BB_OBS=off turns it
    // off, and the tools' explicit --series-out turns obs back on), so pin
    // obs on: scripts/ci.sh also runs the suite under an ambient BB_OBS=off.
    const bool obs_was_enabled = obs::enabled();
    obs::set_enabled(true);
    const ScenarioSpec spec = short_spec(R"({"kind": "cbr_uniform", "duration_s": 6})");
    const std::uint64_t plain = digest_of(spec, 2);
    ReplicaObservers recording;
    recording.recording.enabled = true;
    recording.recording.interval = milliseconds(50);
    const std::uint64_t recorded = digest_of(spec, 1, recording);
    EXPECT_EQ(digest_of(spec, 4, recording), recorded);
    EXPECT_NE(recorded, plain);  // the sampling dispatches are folded
    obs::set_enabled(obs_was_enabled);
}

// Hashing must not perturb the estimates themselves: the same spec with and
// without the chain yields bit-identical results.
TEST(DeterminismHash, HashingDoesNotChangeResults) {
    ScenarioSpec spec = short_spec(R"({"kind": "cbr_uniform", "duration_s": 6})");
    spec.replicas = 2;
    spec.threads = 2;
    const ReplicaRunner runner{spec};
    ReplicaObservers hashed;
    hashed.hashing = true;
    const auto plain = runner.run();
    const auto with_hash = runner.run(hashed);
    ASSERT_EQ(plain.size(), with_hash.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(plain[i].result.frequency.value, with_hash[i].result.frequency.value);
        EXPECT_EQ(plain[i].result.probes_sent, with_hash[i].result.probes_sent);
        EXPECT_EQ(plain[i].truth.frequency, with_hash[i].truth.frequency);
        EXPECT_EQ(plain[i].queue_drops, with_hash[i].queue_drops);
        EXPECT_EQ(plain[i].state_hash, 0u);  // hashing off: no digest
        EXPECT_NE(with_hash[i].state_hash, 0u);
    }
}

}  // namespace
}  // namespace bb::scenarios
