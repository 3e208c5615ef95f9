// micro_record: recorder and hash-chain overhead on a full simulated
// experiment.
//
// Runs the same cbr_uniform BADABING experiment four ways per repetition:
// with no recorder attached (baseline), with an ExperimentRecorder sampling
// at the default cadence (recorded), with a recorder attached while the
// BB_OBS kill switch is off (killed — must reduce to one cached-bool branch),
// and under a core::HashScope that folds every dispatch, rng draw, verdict
// and report into the run-state digest (hashed, DESIGN.md §14).  Asserts
// ground truth, queue drops, and the BADABING estimate are bit-identical
// across all four modes, then gates the recorded and the hashed run each at
// < 5% wall overhead over baseline (best-of-N to shave scheduler noise).
//
//   BB_RECORD_BENCH_SECONDS   simulated seconds per run (default 1200 — long
//                             enough that the timed region is ~150 ms wall and
//                             scheduler jitter stays well under the 5% gate)
//   BB_RECORD_BENCH_REPS      repetitions, best-of (default 3)
//   BB_RECORD_BENCH_GATE      "off" skips the <5% timing asserts (CI smoke mode)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>

#include "common.h"
#include "core/run_hasher.h"
#include "obs/control.h"
#include "scenarios/sim_record.h"

namespace {

using namespace bb;
using namespace bb::bench;

// The four ways one experiment runs; also the index of its row in main().
enum Mode : std::size_t { baseline, recorded, killed, hashed, mode_count };
constexpr const char* kModeNames[mode_count] = {"baseline", "recorded", "BB_OBS=off",
                                                "hashed"};

struct RunResult {
    double ms{0.0};
    double true_frequency{0.0};
    std::size_t episodes{0};
    std::uint64_t queue_drops{0};
    double est_frequency{0.0};
    std::uint64_t probes_sent{0};
    std::uint64_t recorder_samples{0};
    std::uint64_t hash_records{0};
};

RunResult run_once(std::int64_t seconds, Mode mode) {
    obs::set_enabled(mode != killed);

    auto wl = cbr_uniform_workload();
    wl.duration = seconds_i(seconds);
    wl.seed = bench_seed();

    const auto t0 = std::chrono::steady_clock::now();
    core::RunHasher hasher;
    std::optional<core::HashScope> hashing;
    if (mode == hashed) hashing.emplace(hasher);
    scenarios::Experiment exp{bench_testbed(), wl, truth_for(wl)};
    probes::BadabingConfig bc;
    bc.p = 0.3;
    bc.total_slots = 0;
    auto& tool = exp.add_badabing(bc);
    std::unique_ptr<scenarios::ExperimentRecorder> recording;
    if (mode == recorded || mode == killed) {
        scenarios::SimRecordingConfig rc;
        rc.enabled = true;  // default cadence; the kill switch decides for `killed`
        recording = std::make_unique<scenarios::ExperimentRecorder>(exp, rc);
    }
    exp.run();
    if (recording) recording->finish();

    RunResult out;
    out.ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                 .count();
    const auto truth = exp.truth();
    out.true_frequency = truth.frequency;
    out.episodes = truth.episodes;
    out.queue_drops = exp.testbed().bottleneck().drops();
    out.est_frequency = tool.analyze(exp.default_marking(bc.p), {}).frequency.value;
    out.probes_sent = tool.probes_sent();
    if (recording) out.recorder_samples = recording->recorder().samples();
    out.hash_records = hasher.records();
    obs::set_enabled(true);
    return out;
}

bool identical(const RunResult& a, const RunResult& b) {
    return a.true_frequency == b.true_frequency && a.episodes == b.episodes &&
           a.queue_drops == b.queue_drops && a.est_frequency == b.est_frequency &&
           a.probes_sent == b.probes_sent;
}

}  // namespace

int main() {
    const std::int64_t seconds = env_int("BB_RECORD_BENCH_SECONDS", 1200);
    const std::int64_t reps = env_int("BB_RECORD_BENCH_REPS", 3);
    const char* gate_env = std::getenv("BB_RECORD_BENCH_GATE");
    const bool gate = gate_env == nullptr || std::strcmp(gate_env, "off") != 0;

    std::printf("micro_record: recorder and hash-chain overhead on a %llds cbr "
                "experiment (best of %lld)\n",
                static_cast<long long>(seconds), static_cast<long long>(reps));

    // best[m] is mode m's fastest repetition.  Each repetition starts one
    // mode later than the last, so no mode always runs first.
    RunResult best[mode_count]{};
    for (std::int64_t r = 0; r < reps; ++r) {
        for (std::size_t i = 0; i < mode_count; ++i) {
            const std::size_t m = (i + static_cast<std::size_t>(r)) % mode_count;
            const RunResult run = run_once(seconds, static_cast<Mode>(m));
            if (r == 0 || run.ms < best[m].ms) best[m] = run;
        }
    }
    const RunResult& base = best[baseline];
    const RunResult& rec = best[recorded];
    const RunResult& kill = best[killed];
    const RunResult& hash = best[hashed];

    // Recording and hashing only read state: every estimate must be
    // bit-identical.
    if (!identical(base, rec) || !identical(base, kill) || !identical(base, hash)) {
        std::fprintf(stderr, "micro_record: estimates DIVERGED across modes\n");
        return 1;
    }
    if (rec.recorder_samples == 0) {
        std::fprintf(stderr, "micro_record: recorded run took no samples\n");
        return 1;
    }
    if (kill.recorder_samples != 0) {
        std::fprintf(stderr, "micro_record: BB_OBS=off recorder still sampled\n");
        return 1;
    }
    if (hash.hash_records == 0 || base.hash_records != 0) {
        std::fprintf(stderr, "micro_record: only the hashed run may fold (%llu vs %llu)\n",
                     static_cast<unsigned long long>(hash.hash_records),
                     static_cast<unsigned long long>(base.hash_records));
        return 1;
    }

    const auto over = [&base](const RunResult& r) {
        return base.ms > 0.0 ? (r.ms - base.ms) / base.ms : 0.0;
    };
    std::printf("%-12s | %-10s | %-8s | %-10s | %s\n", "mode", "ms", "samples", "folds",
                "est freq");
    std::printf("-------------------------------------------------------------\n");
    for (std::size_t m = 0; m < mode_count; ++m) {
        const RunResult& r = best[m];
        std::printf("%-12s | %-10.1f | %-8llu | %-10llu | %.6f\n", kModeNames[m], r.ms,
                    static_cast<unsigned long long>(r.recorder_samples),
                    static_cast<unsigned long long>(r.hash_records), r.est_frequency);
    }
    std::printf("overhead: recorded %.2f%%, killed %.2f%%, hashed %.2f%% (budget 5%%%s)\n",
                over(rec) * 100.0, over(kill) * 100.0, over(hash) * 100.0,
                gate ? "" : ", gate off");

    if (gate && over(rec) > 0.05) {
        std::fprintf(stderr, "micro_record: recorder overhead %.2f%% exceeds the 5%% budget\n",
                     over(rec) * 100.0);
        return 1;
    }
    if (gate && over(hash) > 0.05) {
        std::fprintf(stderr, "micro_record: hash-chain overhead %.2f%% exceeds the 5%% budget\n",
                     over(hash) * 100.0);
        return 1;
    }
    return 0;
}
