// Parallel multi-replica experiment execution (Monte Carlo over seeds).
//
// The paper's evaluation reports point estimates from single 15-minute runs,
// yet §5.2 derives Var(F̂) and Figure 9 studies estimator sensitivity —
// variance is the story.  ReplicaRunner runs N independent copies of one
// scenario spec, each with its own RNG stream derived *positionally* from
// (master_seed, replica_index) via Rng::fork, and aggregates the per-replica
// results into mean / stddev / percentile-bootstrap confidence intervals.
//
// Concurrency model: scenarios::Experiment is non-copyable and strictly
// single-threaded; parallelism is across replicas only.  Each replica builds
// its whole world (testbed, workload, prober) inside its task, and results
// are stored by replica index.  Because seeds are computed serially before
// any task is submitted and aggregation walks results in index order, the
// output is bit-identical for any thread count — the scheduler can only
// change *when* a replica runs, never *what* it computes.
#ifndef BB_SCENARIOS_REPLICA_RUNNER_H
#define BB_SCENARIOS_REPLICA_RUNNER_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/bootstrap.h"
#include "core/run_hasher.h"
#include "obs/recorder.h"
#include "scenarios/sim_record.h"
#include "scenarios/spec.h"

namespace bb::scenarios {

// Per-call observers of a replica run.  They are not part of the scenario:
// they choose what a run leaves behind, never what it estimates.
struct ReplicaObservers {
    // Sim-time series recording.  Only replica 0 records (replica i always
    // computes the same world regardless of thread count, so the recorded
    // series stays bit-identical at any parallelism); sampling reads state
    // without mutating it, so estimates are unchanged.
    SimRecordingConfig recording{};
    // Determinism hash chain (DESIGN.md §14): each replica folds its whole
    // build+run+analyze into a core::RunHasher scoped to its worker thread,
    // so the per-replica digest — and the merged run digest — is a pure
    // function of the spec and the recording settings, at any thread count.
    bool hashing{false};
    // Bounded trace ring kept by replica 0 for --hash-trace-out (0 = none).
    std::size_t hash_trace_capacity{0};
};

struct ReplicaResult {
    std::size_t index{0};
    std::uint64_t seed{0};
    measure::TruthSummary truth;
    probes::BadabingResult result;
    double offered_load{0.0};
    // Drops summed across the bottleneck and every upstream hop of this
    // replica's testbed; lets the obs counters be cross-checked against the
    // run summary exactly.
    std::uint64_t queue_drops{0};
    // Path-level extras used by the sweep engine's per-cell reports (the AQM
    // ablation keys).  Zero when the relevant instrumentation is off.
    std::size_t episodes{0};
    double path_loss_rate{0.0};      // (queue + GE drops) / queue arrivals
    double passive_loss_rate{0.0};   // Q-bit observer estimate of the same
    std::uint64_t qbit_merged_blocks{0};
    // Sim-time series (observers.recording; replica 0 only, else nullptr).
    std::shared_ptr<obs::Recorder> series;
    // Determinism hash chain (observers.hashing): this replica's final digest
    // and record count; the hasher itself rides along on replica 0 when a
    // trace ring was requested (observers.hash_trace_capacity > 0).
    std::uint64_t state_hash{0};
    std::uint64_t hash_records{0};
    std::shared_ptr<core::RunHasher> hash_trace;

    [[nodiscard]] double est_frequency() const noexcept { return result.frequency.value; }
    [[nodiscard]] double est_duration_s(TimeNs slot_width) const noexcept {
        return result.duration_basic.valid ? result.duration_basic.seconds(slot_width) : 0.0;
    }
};

// One metric collapsed across replicas.
struct AggregateStat {
    double mean{0.0};
    double stddev{0.0};              // sample stddev across replicas (0 if n < 2)
    core::BootstrapInterval ci;      // percentile bootstrap over replica values
};

// Per-spec aggregate row: the multi-replica analogue of a paper table row.
struct AggregateRow {
    double p{0.0};
    std::size_t replicas{0};
    AggregateStat true_frequency;
    AggregateStat est_frequency;
    AggregateStat true_duration_s;
    AggregateStat est_duration_s;
    AggregateStat offered_load;
};

// Runs spec.replicas copies of one scenario across spec.threads workers
// (0 = hardware concurrency), seeded off spec.seed.  The spec must name the
// BADABING prober: the replica harness estimates with it.
class ReplicaRunner {
public:
    // Percentile-bootstrap controls for aggregate().
    static constexpr std::size_t kBootstrapReplicates = 1000;
    static constexpr double kConfidence = 0.95;

    explicit ReplicaRunner(ScenarioSpec spec);

    // Per-replica seeds: Rng{master}.fork_seed(i) drawn in index order.  A
    // pure function of (master_seed, n) — prefix-stable, so growing n keeps
    // every earlier replica's stream unchanged.
    [[nodiscard]] static std::vector<std::uint64_t> replica_seeds(std::uint64_t master_seed,
                                                                  std::size_t n);

    // Run every replica.  results[i] always belongs to replica i.
    [[nodiscard]] std::vector<ReplicaResult> run(const ReplicaObservers& observers = {}) const;

    // Merged run digest: per-replica digests folded in replica-index order
    // (core::RunHasher::merge), so the value printed by --state-hash is the
    // same at 1, 4, or 8 threads.  Only meaningful when observers.hashing
    // was on.
    [[nodiscard]] static std::uint64_t merged_state_hash(
        const std::vector<ReplicaResult>& results);

    // Collapse per-replica results (in index order) into an AggregateRow.
    // Deterministic given (results, spec.seed); does not depend on how the
    // results were scheduled.
    [[nodiscard]] AggregateRow aggregate(const std::vector<ReplicaResult>& results) const;

private:
    ScenarioSpec spec_;
};

// JSON document for one aggregate row plus its per-replica trajectory (a
// one-element "rows" array, the format downstream plotters read).  Emitted
// by badabing_sim --json.
[[nodiscard]] std::string aggregate_json(const std::string& label, TimeNs slot_width,
                                         const AggregateRow& row,
                                         const std::vector<ReplicaResult>& replicas);

}  // namespace bb::scenarios

#endif  // BB_SCENARIOS_REPLICA_RUNNER_H
