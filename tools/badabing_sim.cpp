// badabing_sim: run a BADABING measurement against a simulated congested
// path and print the paper's estimates; optionally dump the probe trace and
// experiment design for offline analysis with `estimate_trace`.
//
//   $ badabing_sim --scenario=cbr --p=0.3 --duration-s=300 --trace=run.csv
//
// With --replicas=N the run becomes a Monte Carlo experiment: N independent
// replicas (seeds derived positionally from --seed) executed across
// --threads workers, reported as mean +/- 95% bootstrap CI and optionally
// dumped with --json=FILE.
//
// With --stream the tool runs the fully online pipeline instead: a synthetic
// alternating-renewal congestion series feeds the streaming probe scorer and
// the online estimators slot by slot, so --slots can be 1e8 or more while
// resident memory stays constant (no series, design, or report vector is
// ever materialized).
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "core/run_hasher.h"
#include "core/streaming.h"
#include "core/synthetic.h"
#include "core/trace_io.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/process_stats.h"
#include "obs/trace.h"
#include "scenarios/experiment.h"
#include "scenarios/replica_runner.h"
#include "scenarios/sim_record.h"
#include "scenarios/spec.h"
#include "util/flags.h"
#include "util/json_io.h"

namespace {

bool pick_scenario(const std::string& name, bb::scenarios::WorkloadConfig& wl) {
    using bb::scenarios::TrafficKind;
    if (name == "tcp") {
        wl.kind = TrafficKind::infinite_tcp;
        return true;
    }
    if (name == "cbr") {
        wl.kind = TrafficKind::cbr_uniform;
        return true;
    }
    if (name == "cbr-multi") {
        wl.kind = TrafficKind::cbr_multi;
        wl.episode_durations = {bb::milliseconds(50), bb::milliseconds(100),
                                bb::milliseconds(150)};
        return true;
    }
    if (name == "web") {
        wl.kind = TrafficKind::web;
        return true;
    }
    return false;
}

// Flush the observability export surfaces at tool exit.  Either file failing
// to write is a tool failure (exit code 1), matching the JSON outputs.
int finish_obs(const std::string& metrics_path, const std::string& trace_path) {
    int rc = 0;
    if (!trace_path.empty()) {
        if (bb::obs::Trace::write(trace_path)) {
            std::printf("trace-out    : wrote %s\n", trace_path.c_str());
        } else {
            rc = 1;
        }
    }
    if (!metrics_path.empty()) {
        if (bb::obs::write_metrics_file(metrics_path)) {
            std::printf("metrics-json : wrote %s\n", metrics_path.c_str());
        } else {
            rc = 1;
        }
    }
    const bb::obs::ProcessStats ps = bb::obs::process_stats();
    std::printf("process      : max RSS %lld KiB, cpu %.2fs user %.2fs sys\n",
                static_cast<long long>(ps.max_rss_kb), ps.user_cpu_s, ps.system_cpu_s);
    return rc;
}

// The bounded-memory pipeline: synthetic congestion generator -> streaming
// scorer -> online estimators, one slot at a time.
int run_stream(std::int64_t slots, double p, bool improved, double mean_on, double mean_off,
               std::uint64_t seed, const std::string& json_path,
               std::int64_t snapshot_slots) {
    using namespace bb;
    if (slots < 1) {
        std::fprintf(stderr, "--slots must be >= 1\n");
        return 1;
    }

    core::SyntheticSeriesGen gen{Rng{seed ^ 0x5EED5ULL}, mean_on, mean_off};
    core::SeriesTruthAccumulator truth;

    core::StreamingAnalyzer analyzer;
    core::ProbeProcessConfig pcfg;
    pcfg.p = p;
    pcfg.improved = improved;
    core::StreamingExperimentScorer scorer{Rng{seed ^ 0xBADA0ULL}, pcfg, analyzer};

    std::printf("streaming %lld slots (p = %.2f%s, on/off = %.1f/%.1f slots)...\n",
                static_cast<long long>(slots), p, improved ? ", improved" : "", mean_on,
                mean_off);
    for (std::int64_t s = 0; s < slots; ++s) {
        const bool congested = gen.next();
        truth.consume(congested);
        scorer.step(congested);
        // Periodic metrics snapshot, keyed on slot count (not wall clock) so
        // output stays deterministic across machines.
        if (snapshot_slots > 0 && (s + 1) % snapshot_slots == 0) {
            obs::logf(obs::LogLevel::info,
                      "snapshot slot %lld/%lld: reports_scored %llu, max RSS %lld KiB",
                      static_cast<long long>(s + 1), static_cast<long long>(slots),
                      static_cast<unsigned long long>(analyzer.reports()),
                      static_cast<long long>(obs::process_stats().max_rss_kb));
        }
    }

    const core::SeriesTruth t = truth.finalize();
    const core::StreamingAnalyzer::Result res = analyzer.finalize();
    const long rss_kb = static_cast<long>(obs::process_stats().max_rss_kb);

    std::printf("\nground truth : frequency %.4f | duration %.2f slots | %zu episodes\n",
                t.frequency, t.mean_duration_slots, t.episodes);
    std::printf("streaming est: frequency %.4f | duration %.2f slots", res.frequency.value,
                res.duration_basic.valid ? res.duration_basic.slots : 0.0);
    if (res.duration_improved.valid) {
        std::printf(" | improved %.2f slots (r_hat %.3f)", res.duration_improved.slots,
                    res.duration_improved.r_hat.value_or(0.0));
    }
    std::printf("\nreports      : %llu scored (%llu experiments started, %d pending "
                "dropped at end)\n",
                static_cast<unsigned long long>(res.reports),
                static_cast<unsigned long long>(scorer.experiments_started()),
                scorer.experiments_pending());
    std::printf("validation   : pair asymmetry %.3f, violation fraction %.4f -> %s\n",
                res.validation.pair_asymmetry, res.validation.violation_fraction,
                res.validation.acceptable() ? "OK" : "SUSPECT");
    std::printf("memory       : max RSS %ld KiB (independent of --slots)\n", rss_kb);

    if (!json_path.empty()) {
        char buf[1024];
        std::snprintf(buf, sizeof(buf),
                      "{\n"
                      "  \"mode\": \"stream\",\n"
                      "  \"slots\": %lld,\n"
                      "  \"p\": %.6f,\n"
                      "  \"improved\": %s,\n"
                      "  \"true_frequency\": %.8f,\n"
                      "  \"true_duration_slots\": %.6f,\n"
                      "  \"est_frequency\": %.8f,\n"
                      "  \"est_duration_slots\": %.6f,\n"
                      "  \"est_duration_improved_slots\": %.6f,\n"
                      "  \"reports\": %llu,\n"
                      "  \"max_rss_kb\": %ld\n"
                      "}\n",
                      static_cast<long long>(slots), p, improved ? "true" : "false",
                      t.frequency, t.mean_duration_slots, res.frequency.value,
                      res.duration_basic.valid ? res.duration_basic.slots : 0.0,
                      res.duration_improved.valid ? res.duration_improved.slots : 0.0,
                      static_cast<unsigned long long>(res.reports), rss_kb);
        if (!write_text_file(json_path, buf)) return 1;
        std::printf("json         : wrote %s\n", json_path.c_str());
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace bb;

    FlagSet flags{"badabing_sim",
                  "BADABING loss measurement on a simulated dumbbell (SIGCOMM'05 repro)"};
    const auto* spec_path = flags.add_string(
        "spec", "", "load a declarative scenario spec FILE; explicit flags override it");
    const auto* scenario =
        flags.add_string("scenario", "cbr", "traffic: tcp | cbr | cbr-multi | web");
    const auto* p = flags.add_double("p", 0.3, "probe (experiment) probability per 5 ms slot");
    const auto* duration_s = flags.add_int("duration-s", 900, "measured interval, seconds");
    const auto* rate_mbps = flags.add_int("rate-mbps", 30, "bottleneck rate, Mb/s");
    const auto* seed = flags.add_int("seed", 7, "RNG seed (workload and probe process)");
    const auto* improved =
        flags.add_bool("improved", false, "mix in 3-probe extended experiments (Sec 5.3)");
    const auto* red = flags.add_bool("red", false, "use a RED bottleneck instead of drop-tail");
    const auto* hops = flags.add_int("extra-hops", 0, "uncongested upstream hops");
    const auto* alpha = flags.add_double("alpha", -1.0, "marking alpha (-1 = paper rule)");
    const auto* tau_ms = flags.add_int("tau-ms", -1, "marking tau in ms (-1 = paper rule)");
    const auto* trace = flags.add_string("trace", "", "write probe outcomes to FILE");
    const auto* design = flags.add_string("design", "", "write experiment design to FILE");
    const auto* replicas =
        flags.add_int("replicas", 1, "independent replicas (Monte Carlo over seeds)");
    const auto* threads =
        flags.add_int("threads", 0, "worker threads for replicas (0 = all cores)");
    const auto* json =
        flags.add_string("json", "", "write replica aggregate + trajectories to FILE");
    const auto* stream = flags.add_bool(
        "stream", false, "bounded-memory synthetic run: online estimators over --slots slots");
    const auto* slots =
        flags.add_int("slots", 100'000'000, "slot count for --stream (memory-independent)");
    const auto* mean_on =
        flags.add_double("mean-on-slots", 20.0, "mean episode length in slots (--stream)");
    const auto* mean_off =
        flags.add_double("mean-off-slots", 180.0, "mean gap length in slots (--stream)");
    const auto* metrics_json =
        flags.add_string("metrics-json", "", "write obs metrics snapshot to FILE at exit");
    const auto* trace_out = flags.add_string(
        "trace-out", "", "write Chrome trace_event JSON (Perfetto-loadable) to FILE");
    const auto* snapshot_slots = flags.add_int(
        "snapshot-slots", 10'000'000,
        "print a metrics snapshot every N slots in --stream mode (0 = off)");
    const auto* series_out = flags.add_string(
        "series-out", "",
        "record sim-time series (queue, drops, GE state, probe tallies) to FILE");
    const auto* series_interval_ms = flags.add_int(
        "series-interval-ms", 100, "sim-time sampling cadence for --series-out");
    const auto* state_hash = flags.add_bool(
        "state-hash", false,
        "fold the run-state hash chain (events, rng, verdicts, reports) and print "
        "the final digest");
    const auto* hash_trace_out = flags.add_string(
        "hash-trace-out", "",
        "write the bb.hashtrace.v1 ring of recent chain records to FILE (replica 0)");
    const auto* hash_trace_capacity = flags.add_int(
        "hash-trace-capacity", 4096, "trace-ring size for --hash-trace-out");
    if (!flags.parse(argc, argv)) return flags.error().empty() ? 0 : 1;

    // Range checks before anything is built: an out-of-range value would
    // otherwise surface as an uncaught exception deep in construction.
    if (!(*p > 0.0 && *p <= 1.0)) {
        std::fprintf(stderr, "badabing_sim: --p must be in (0, 1], got %g\n", *p);
        return 1;
    }
    if (*rate_mbps < 1 || *rate_mbps > 100'000) {
        std::fprintf(stderr, "badabing_sim: --rate-mbps must be in [1, 100000], got %lld\n",
                     static_cast<long long>(*rate_mbps));
        return 1;
    }
    if (!(*mean_on >= 1.0 && *mean_off >= 1.0)) {
        std::fprintf(stderr, "badabing_sim: --mean-on-slots and --mean-off-slots must be >= 1\n");
        return 1;
    }

    const bool want_hash = *state_hash || !hash_trace_out->empty();
    const auto trace_ring = static_cast<std::size_t>(
        hash_trace_out->empty() ? 0 : (*hash_trace_capacity < 1 ? 1 : *hash_trace_capacity));

    // Explicit export flags beat the ambient BB_OBS kill switch.
    if (!metrics_json->empty() || !trace_out->empty() || !series_out->empty()) {
        obs::set_enabled(true);
    }
    if (!trace_out->empty()) obs::Trace::start();

    // --spec supplies every layer's configuration; any flag the user also
    // sets explicitly wins over the spec's value.
    scenarios::ScenarioSpec spec;
    bool have_spec = false;
    if (!spec_path->empty()) {
        auto sr = scenarios::load_scenario_spec_file(*spec_path);
        if (!sr.ok) {
            std::fprintf(stderr, "%s\n", sr.error.c_str());
            return 1;
        }
        spec = std::move(sr.spec);
        have_spec = true;
    }

    const bool stream_mode = *stream || (have_spec && spec.streaming &&
                                         !flags.is_set("stream"));
    const double probe_p = have_spec && !flags.is_set("p") ? spec.badabing.p : *p;
    const bool probe_improved =
        have_spec && !flags.is_set("improved") ? spec.badabing.improved : *improved;
    const std::uint64_t run_seed = have_spec && !flags.is_set("seed")
                                       ? spec.seed
                                       : static_cast<std::uint64_t>(*seed);

    scenarios::SimRecordingConfig series_cfg;
    if (!series_out->empty()) {
        series_cfg.enabled = true;
        series_cfg.interval = milliseconds(*series_interval_ms < 1 ? 1 : *series_interval_ms);
    }

    if (stream_mode) {
        // The recorder samples the event-driven simulator's clock; the
        // streaming pipeline is slot-indexed with no simulated clock to drive
        // it, so the flag does not apply there.
        if (series_cfg.enabled) {
            std::fprintf(stderr, "--series-out applies to simulated runs; ignored with "
                                 "--stream\n");
        }
        int rc = 0;
        {
            // The streaming pipeline has no scheduler or queues, but its Rng
            // draws and report emissions still fold when a scope is installed.
            std::optional<core::RunHasher> hasher;
            std::optional<core::HashScope> hash_scope;
            if (want_hash) {
                hasher.emplace(trace_ring);
                hash_scope.emplace(*hasher);
            }
            rc = run_stream(*slots, probe_p, probe_improved, *mean_on, *mean_off,
                            run_seed, *json, *snapshot_slots);
            if (hasher) {
                std::printf("state-hash   : %s (%llu records)\n",
                            core::RunHasher::hex(hasher->digest()).c_str(),
                            static_cast<unsigned long long>(hasher->records()));
                if (!hash_trace_out->empty()) {
                    if (write_text_file(*hash_trace_out, hasher->trace_json())) {
                        std::printf("hash-trace   : wrote %s\n", hash_trace_out->c_str());
                    } else if (rc == 0) {
                        rc = 1;
                    }
                }
            }
        }
        const int orc = finish_obs(*metrics_json, *trace_out);
        return rc != 0 ? rc : orc;
    }

    scenarios::TestbedConfig tb = have_spec ? spec.testbed : scenarios::TestbedConfig{};
    if (!have_spec || flags.is_set("rate-mbps")) {
        tb.bottleneck_rate_bps = *rate_mbps * 1'000'000;
    }
    if (!have_spec || flags.is_set("red")) {
        tb.discipline =
            *red ? scenarios::QueueDiscipline::red : scenarios::QueueDiscipline::drop_tail;
    }
    if (!have_spec || flags.is_set("extra-hops")) tb.extra_hops = static_cast<int>(*hops);
    if (!have_spec || flags.is_set("seed")) tb.seed = static_cast<std::uint64_t>(*seed);

    scenarios::WorkloadConfig wl = have_spec ? spec.workload : scenarios::WorkloadConfig{};
    if (!have_spec || flags.is_set("scenario")) {
        if (!pick_scenario(*scenario, wl)) {
            std::fprintf(stderr, "unknown --scenario '%s'\n", scenario->c_str());
            return 1;
        }
    }
    if (!have_spec || flags.is_set("duration-s")) wl.duration = seconds_i(*duration_s);
    wl.seed = run_seed;

    scenarios::TruthConfig tc = have_spec ? spec.truth : scenarios::TruthConfig{};
    if (!have_spec) tc.delay_based = wl.kind == scenarios::TrafficKind::web;

    const std::size_t n_replicas =
        have_spec && !flags.is_set("replicas")
            ? spec.replicas
            : static_cast<std::size_t>(*replicas < 1 ? 1 : *replicas);
    const std::size_t n_threads =
        have_spec && !flags.is_set("threads")
            ? spec.threads
            : static_cast<std::size_t>(*threads < 0 ? 0 : *threads);

    if (n_replicas > 1 || !json->empty()) {
        if (!trace->empty() || !design->empty()) {
            std::fprintf(stderr, "--trace/--design apply to single runs; ignored with "
                                 "--replicas/--json\n");
        }
        scenarios::ReplicaPlan plan;
        plan.testbed = tb;
        plan.workload = wl;
        plan.truth = tc;
        plan.probe = have_spec ? spec.badabing : probes::BadabingConfig{};
        plan.probe.p = probe_p;
        plan.probe.improved = probe_improved;
        if (!have_spec) plan.probe.total_slots = 0;
        if (have_spec) plan.estimator = spec.estimator;
        if (have_spec && (spec.marking_alpha || spec.marking_tau)) {
            plan.marking = scenarios::marking_for(spec);
        }
        plan.recording = series_cfg;
        // Hashing is scoped to the replica workers; the main thread (and its
        // aggregation bootstrap draws) stays outside the chain, so the merged
        // digest is identical at any --threads value.
        plan.hashing = want_hash;
        plan.hash_trace_capacity = trace_ring;
        if (*alpha >= 0.0 || *tau_ms >= 0) {
            core::MarkingConfig m;
            m.tau = scenarios::tau_for_probe_rate(probe_p, plan.probe.slot_width);
            m.alpha = scenarios::alpha_for_probe_rate(probe_p);
            if (plan.marking) m = *plan.marking;
            if (*alpha >= 0.0) m.alpha = *alpha;
            if (*tau_ms >= 0) m.tau = milliseconds(*tau_ms);
            plan.marking = m;
        }

        scenarios::ReplicaRunner::Config rc;
        rc.replicas = n_replicas;
        rc.threads = n_threads;
        rc.master_seed = run_seed;
        const scenarios::ReplicaRunner runner{rc};

        std::printf("running %zu replicas of %s for %.0f s at %lld Mb/s (p = %.2f%s)...\n",
                    rc.replicas, scenario->c_str(), wl.duration.to_seconds(),
                    static_cast<long long>(tb.bottleneck_rate_bps / 1'000'000), probe_p,
                    probe_improved ? ", improved" : "");
        const auto results = runner.run(plan);
        const auto agg = runner.aggregate(plan, results);

        std::printf("\n%-8s | %-12s | %-10s | %-10s | %-10s\n", "replica", "seed",
                    "true freq", "est freq", "est dur(s)");
        for (const auto& r : results) {
            std::printf("%-8zu | %-12llx | %-10.4f | %-10.4f | %-10.3f\n", r.index,
                        static_cast<unsigned long long>(r.seed), r.truth.frequency,
                        r.est_frequency(), r.est_duration_s(plan.probe.slot_width));
        }
        std::printf("\naggregate (mean +/- 95%% bootstrap CI over %zu replicas):\n",
                    results.size());
        std::printf("  true freq : %.4f (sd %.4f)\n", agg.true_frequency.mean,
                    agg.true_frequency.stddev);
        std::printf("  est freq  : %.4f [%.4f, %.4f]\n", agg.est_frequency.mean,
                    agg.est_frequency.ci.lo, agg.est_frequency.ci.hi);
        std::printf("  true dur  : %.3f s (sd %.3f)\n", agg.true_duration_s.mean,
                    agg.true_duration_s.stddev);
        std::printf("  est dur   : %.3f s [%.3f, %.3f]\n", agg.est_duration_s.mean,
                    agg.est_duration_s.ci.lo, agg.est_duration_s.ci.hi);
        std::printf("  probe load: %.4f of bottleneck\n", agg.offered_load.mean);

        int exit_code = 0;
        if (want_hash) {
            std::printf("state-hash   : %s (%zu replicas merged in index order)\n",
                        core::RunHasher::hex(
                            scenarios::ReplicaRunner::merged_state_hash(results))
                            .c_str(),
                        results.size());
            if (!hash_trace_out->empty()) {
                if (!results.empty() && results[0].hash_trace != nullptr &&
                    write_text_file(*hash_trace_out, results[0].hash_trace->trace_json())) {
                    std::printf("hash-trace   : wrote %s (replica 0)\n",
                                hash_trace_out->c_str());
                } else {
                    exit_code = 1;
                }
            }
        }
        if (series_cfg.enabled && !results.empty() && results[0].series) {
            results[0].series->export_to_trace();
            if (results[0].series->write_json(*series_out)) {
                std::printf("series    : wrote %s (replica 0)\n", series_out->c_str());
            } else {
                exit_code = 1;
            }
        }
        if (!json->empty()) {
            const auto doc = scenarios::aggregate_rows_json(
                *scenario, plan.probe.slot_width, {agg}, {results});
            if (write_text_file(*json, doc)) {
                std::printf("json      : wrote %s\n", json->c_str());
            } else {
                exit_code = 1;
            }
        }
        const int orc = finish_obs(*metrics_json, *trace_out);
        return exit_code != 0 ? exit_code : orc;
    }

    // Single-run mode: the whole world lives on this thread, so one scope
    // covers construction, run, and analysis.
    std::optional<core::RunHasher> hasher;
    std::optional<core::HashScope> hash_scope;
    if (want_hash) {
        hasher.emplace(trace_ring);
        hash_scope.emplace(*hasher);
    }
    scenarios::Experiment exp{tb, wl, tc};
    probes::BadabingConfig bc = have_spec ? spec.badabing : probes::BadabingConfig{};
    bc.p = probe_p;
    bc.improved = probe_improved;
    if (!have_spec) bc.total_slots = 0;
    auto& tool = exp.add_badabing(bc);

    std::printf("running %s for %.0f s at %lld Mb/s (p = %.2f%s)...\n", scenario->c_str(),
                wl.duration.to_seconds(),
                static_cast<long long>(tb.bottleneck_rate_bps / 1'000'000), probe_p,
                probe_improved ? ", improved" : "");
    std::unique_ptr<scenarios::ExperimentRecorder> recording;
    if (series_cfg.enabled) {
        recording = std::make_unique<scenarios::ExperimentRecorder>(exp, series_cfg);
    }
    exp.run();
    if (recording) recording->finish();

    core::MarkingConfig marking = have_spec && (spec.marking_alpha || spec.marking_tau)
                                      ? scenarios::marking_for(spec)
                                      : exp.default_marking(probe_p);
    if (*alpha >= 0.0) marking.alpha = *alpha;
    if (*tau_ms >= 0) marking.tau = milliseconds(*tau_ms);

    const auto truth = exp.truth();
    const auto res = tool.analyze(marking, have_spec ? spec.estimator
                                                     : core::EstimatorOptions{});

    std::printf("\nground truth : frequency %.4f | duration %.3f s (sigma %.3f) | "
                "%zu episodes\n",
                truth.frequency, truth.mean_duration_s, truth.sd_duration_s, truth.episodes);
    std::printf("badabing     : frequency %.4f | duration %.3f s", res.frequency.value,
                res.duration_basic.valid ? res.duration_basic.seconds(tool.slot_width())
                                         : 0.0);
    if (res.duration_improved.valid) {
        std::printf(" | improved %.3f s (r_hat %.3f)",
                    res.duration_improved.seconds(tool.slot_width()),
                    res.duration_improved.r_hat.value_or(0.0));
    }
    std::printf("\nprobing      : %llu probes, %.2f%% of bottleneck, marking alpha %.2f "
                "tau %.0f ms\n",
                static_cast<unsigned long long>(res.probes_sent),
                100.0 * tool.offered_load_fraction(tb.bottleneck_rate_bps), marking.alpha,
                marking.tau.to_millis());
    std::printf("validation   : pair asymmetry %.3f, violation fraction %.4f -> %s\n",
                res.validation.pair_asymmetry, res.validation.violation_fraction,
                res.validation.acceptable() ? "OK" : "SUSPECT");

    if (hasher) {
        std::printf("state-hash   : %s (%llu records)\n",
                    core::RunHasher::hex(hasher->digest()).c_str(),
                    static_cast<unsigned long long>(hasher->records()));
        if (!hash_trace_out->empty()) {
            if (write_text_file(*hash_trace_out, hasher->trace_json())) {
                std::printf("hash-trace   : wrote %s\n", hash_trace_out->c_str());
            } else {
                return 1;
            }
        }
    }
    if (!trace->empty()) {
        core::write_trace_file(*trace, tool.outcomes());
        std::printf("trace        : wrote %s\n", trace->c_str());
    }
    if (!design->empty()) {
        core::write_design_file(*design, tool.design().experiments);
        std::printf("design       : wrote %s\n", design->c_str());
    }
    if (recording) {
        recording->recorder().export_to_trace();
        if (recording->recorder().write_json(*series_out)) {
            std::printf("series       : wrote %s\n", series_out->c_str());
        } else {
            return 1;
        }
    }
    return finish_obs(*metrics_json, *trace_out);
}
