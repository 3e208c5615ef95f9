#include "scenarios/replica_runner.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <utility>

#include "obs/trace.h"
#include "util/contract.h"
#include "util/json.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace bb::scenarios {

namespace {

ReplicaResult run_one(const ScenarioSpec& base, const ReplicaObservers& observers,
                      std::size_t index, std::uint64_t seed) {
    const obs::Span span{"replica", "scenarios", "replica",
                         static_cast<std::int64_t>(index)};
    // The hash scope covers the replica's whole life — world construction,
    // run, and analyze — on whichever worker thread it landed on.  The main
    // thread never gets a scope, so aggregation bootstrap draws stay out of
    // the digest by construction.
    std::shared_ptr<core::RunHasher> hasher;
    std::optional<core::HashScope> hash_scope;
    if (observers.hashing) {
        hasher = std::make_shared<core::RunHasher>(
            index == 0 ? observers.hash_trace_capacity : 0);
        hash_scope.emplace(*hasher);
    }
    ScenarioSpec spec = base;
    // RED's randomized drops get their own stream so queue and workload
    // randomness stay decoupled within a replica.
    spec.testbed.seed = seed ^ 0x5EEDULL;
    spec.workload.seed = seed;

    const BuiltExperiment built = build_experiment(spec);
    Experiment& exp = *built.experiment;
    const probes::BadabingTool& tool = *built.badabing;
    // Replica 0 carries the sim-time series when recording is requested; the
    // recorder only reads simulation state, so every estimate below is
    // bit-identical with recording on or off.
    std::unique_ptr<ExperimentRecorder> recording;
    if (observers.recording.enabled && index == 0) {
        recording = std::make_unique<ExperimentRecorder>(exp, observers.recording);
    }
    exp.run();
    if (recording) recording->finish();

    ReplicaResult r;
    r.index = index;
    r.seed = seed;
    r.truth = exp.truth();
    r.result = tool.analyze(marking_for(spec), spec.estimator);
    r.offered_load = tool.offered_load_fraction(spec.testbed.bottleneck_rate_bps);
    r.queue_drops = exp.testbed().bottleneck().drops();
    for (const auto& hop : exp.testbed().upstream_hops()) r.queue_drops += hop->drops();
    r.episodes = r.truth.episodes;
    const auto& queue = exp.testbed().bottleneck();
    const std::uint64_t ge_drops = exp.testbed().ge() ? exp.testbed().ge()->drops() : 0;
    if (queue.arrivals() > 0) {
        r.path_loss_rate = static_cast<double>(queue.drops() + ge_drops) /
                           static_cast<double>(queue.arrivals());
    }
    if (auto* obs = exp.testbed().qbit_observer()) {
        r.passive_loss_rate = obs->loss_rate();
        r.qbit_merged_blocks = obs->merged_blocks();
    }
    if (recording) r.series = recording->share();
    if (hasher) {
        r.state_hash = hasher->digest();
        r.hash_records = hasher->records();
        if (index == 0 && observers.hash_trace_capacity > 0) r.hash_trace = hasher;
    }
    return r;
}

AggregateStat collapse(const std::vector<double>& values, Rng& rng) {
    AggregateStat s;
    RunningStats stats;
    for (double v : values) stats.add(v);
    s.mean = stats.mean();
    s.stddev = stats.stddev();
    s.ci = core::bootstrap_mean(values, ReplicaRunner::kBootstrapReplicates,
                                ReplicaRunner::kConfidence, rng);
    return s;
}

void write_stat(JsonWriter& w, const char* name, const AggregateStat& s) {
    w.key(name).begin_object();
    w.key("mean").value_double(s.mean);
    w.key("stddev").value_double(s.stddev);
    w.key("ci_lo").value_double(s.ci.lo);
    w.key("ci_hi").value_double(s.ci.hi);
    w.end_object();
}

}  // namespace

ReplicaRunner::ReplicaRunner(ScenarioSpec spec) : spec_{std::move(spec)} {
    BB_CHECK_MSG(spec_.tool == ScenarioSpec::ProbeTool::badabing,
                 "replica runner: the replica harness estimates with BADABING");
}

std::vector<std::uint64_t> ReplicaRunner::replica_seeds(std::uint64_t master_seed,
                                                        std::size_t n) {
    Rng master{master_seed};
    std::vector<std::uint64_t> seeds;
    seeds.reserve(n);
    for (std::size_t i = 0; i < n; ++i) seeds.push_back(master.fork_seed(i));
    return seeds;
}

std::vector<ReplicaResult> ReplicaRunner::run(const ReplicaObservers& observers) const {
    const std::size_t n = spec_.replicas;
    const auto seeds = replica_seeds(spec_.seed, n);
    std::vector<ReplicaResult> results(n);
    if (n == 0) return results;

    // Never spin up more workers than replicas.
    const std::size_t want = spec_.threads == 0 ? ThreadPool::default_threads() : spec_.threads;
    const std::size_t threads = std::min(want, n);
    if (threads <= 1) {
        for (std::size_t i = 0; i < n; ++i) {
            results[i] = run_one(spec_, observers, i, seeds[i]);
        }
        return results;
    }

    ThreadPool pool{threads};
    pool.for_each_index(n, [this, &observers, &seeds, &results](std::size_t i) {
        results[i] = run_one(spec_, observers, i, seeds[i]);
    });
    // Bit-identical aggregates at any thread count rest on every worker
    // having written its own slot with its own positional seed.
    for (std::size_t i = 0; i < results.size(); ++i) {
        BB_DCHECK_MSG(results[i].index == i && results[i].seed == seeds[i],
                      "replica runner: replica result landed in the wrong slot");
    }
    return results;
}

std::uint64_t ReplicaRunner::merged_state_hash(const std::vector<ReplicaResult>& results) {
    std::vector<std::uint64_t> digests;
    digests.reserve(results.size());
    for (const auto& r : results) digests.push_back(r.state_hash);
    return core::RunHasher::merge(digests);
}

AggregateRow ReplicaRunner::aggregate(const std::vector<ReplicaResult>& results) const {
    const obs::Span span{"aggregate", "scenarios"};
    AggregateRow row;
    row.p = spec_.badabing.p;
    row.replicas = results.size();

    std::vector<double> true_f, est_f, true_d, est_d, load;
    true_f.reserve(results.size());
    est_f.reserve(results.size());
    true_d.reserve(results.size());
    est_d.reserve(results.size());
    load.reserve(results.size());
    for (const auto& r : results) {
        true_f.push_back(r.truth.frequency);
        est_f.push_back(r.est_frequency());
        true_d.push_back(r.truth.mean_duration_s);
        est_d.push_back(r.est_duration_s(spec_.badabing.slot_width));
        load.push_back(r.offered_load);
    }

    // One serial bootstrap stream per aggregation keeps the row a pure
    // function of (results order, master_seed) — thread count cannot leak in.
    Rng rng{spec_.seed ^ 0xB007B007ULL};
    row.true_frequency = collapse(true_f, rng);
    row.est_frequency = collapse(est_f, rng);
    row.true_duration_s = collapse(true_d, rng);
    row.est_duration_s = collapse(est_d, rng);
    row.offered_load = collapse(load, rng);
    return row;
}

std::string aggregate_json(const std::string& label, TimeNs slot_width,
                           const AggregateRow& row,
                           const std::vector<ReplicaResult>& replicas) {
    JsonWriter w;  // compact house style: downstream plotters parse this byte format
    w.begin_object();
    w.key("label").value(label);
    w.key("rows").begin_array();
    w.begin_object();
    w.key("p").value_double(row.p);
    w.key("replicas").value_uint(row.replicas);
    write_stat(w, "true_frequency", row.true_frequency);
    write_stat(w, "est_frequency", row.est_frequency);
    write_stat(w, "true_duration_s", row.true_duration_s);
    write_stat(w, "est_duration_s", row.est_duration_s);
    write_stat(w, "offered_load", row.offered_load);
    std::uint64_t total_drops = 0;
    std::uint64_t total_experiments = 0;
    w.key("trajectory").begin_array();
    for (const auto& r : replicas) {
        w.begin_object();
        w.key("replica").value_uint(r.index);
        w.key("seed").value_uint(r.seed);
        w.key("true_frequency").value_double(r.truth.frequency);
        w.key("est_frequency").value_double(r.est_frequency());
        w.key("true_duration_s").value_double(r.truth.mean_duration_s);
        w.key("est_duration_s").value_double(r.est_duration_s(slot_width));
        w.key("queue_drops").value_uint(r.queue_drops);
        w.key("experiments").value_uint(r.result.experiments);
        w.end_object();
        total_drops += r.queue_drops;
        total_experiments += r.result.experiments;
    }
    w.end_array();
    w.key("total_queue_drops").value_uint(total_drops);
    w.key("total_experiments").value_uint(total_experiments);
    w.end_object();
    w.end_array();
    w.end_object();
    return w.take() + "\n";
}

}  // namespace bb::scenarios
