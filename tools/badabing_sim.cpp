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
//
// Every run is a validated scenario spec: --spec (or {}) with the model
// flags spliced in (tools/tool_common.h, DESIGN.md §12).
#include <cstdio>
#include <memory>
#include <string>

#include "core/streaming.h"
#include "core/synthetic.h"
#include "core/trace_io.h"
#include "obs/log.h"
#include "obs/process_stats.h"
#include "scenarios/replica_runner.h"
#include "scenarios/sim_record.h"
#include "scenarios/spec.h"
#include "tool_common.h"
#include "util/flags.h"
#include "util/json_io.h"

namespace {

struct StreamParams {
    std::int64_t slots;
    double mean_on;
    double mean_off;
    std::int64_t snapshot_slots;
};

// The bounded-memory pipeline: synthetic congestion generator -> streaming
// scorer -> online estimators, one slot at a time.
void run_stream(const bb::scenarios::ScenarioSpec& spec, const StreamParams& sp,
                const std::string& json_path, bb::tools::ToolOutputs& outputs) {
    using namespace bb;
    const double p = spec.badabing.p;
    const bool improved = spec.badabing.improved;

    core::SyntheticSeriesGen gen{Rng{spec.seed ^ 0x5EED5ULL}, sp.mean_on, sp.mean_off};
    core::SeriesTruthAccumulator truth;

    core::StreamingAnalyzer analyzer;
    core::ProbeProcessConfig pcfg;
    pcfg.p = p;
    pcfg.improved = improved;
    core::StreamingExperimentScorer scorer{Rng{spec.seed ^ 0xBADA0ULL}, pcfg, analyzer};

    std::printf("streaming %lld slots (p = %.2f%s, on/off = %.1f/%.1f slots)...\n",
                static_cast<long long>(sp.slots), p, improved ? ", improved" : "", sp.mean_on,
                sp.mean_off);
    for (std::int64_t s = 0; s < sp.slots; ++s) {
        const bool congested = gen.next();
        truth.consume(congested);
        scorer.step(congested);
        // Periodic metrics snapshot, keyed on slot count (not wall clock) so
        // output stays deterministic across machines.
        if (sp.snapshot_slots > 0 && (s + 1) % sp.snapshot_slots == 0) {
            obs::logf(obs::LogLevel::info,
                      "snapshot slot %lld/%lld: reports_scored %llu, max RSS %lld KiB",
                      static_cast<long long>(s + 1), static_cast<long long>(sp.slots),
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

    outputs.write("json", "json", json_path, [&] {
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
                      static_cast<long long>(sp.slots), p, improved ? "true" : "false",
                      t.frequency, t.mean_duration_slots, res.frequency.value,
                      res.duration_basic.valid ? res.duration_basic.slots : 0.0,
                      res.duration_improved.valid ? res.duration_improved.slots : 0.0,
                      static_cast<unsigned long long>(res.reports), rss_kb);
        return write_text_file(json_path, buf);
    });
}

// Monte Carlo over seeds: the spec's replicas across its worker threads.
void run_replicas(const bb::scenarios::ScenarioSpec& spec, const std::string& label,
                  const std::string& json_path, bb::tools::ToolOutputs& outputs) {
    using namespace bb;
    const scenarios::ReplicaRunner runner{spec};
    scenarios::ReplicaObservers observers;
    observers.recording = outputs.recording();
    // Hashing is scoped to the replica workers; the main thread (and its
    // aggregation bootstrap draws) stays outside the chain, so the merged
    // digest is identical at any --threads value.
    observers.hashing = outputs.hashing();
    observers.hash_trace_capacity = outputs.hash_trace_capacity();

    std::printf("running %zu replicas of %s for %.0f s at %lld Mb/s (p = %.2f%s)...\n",
                spec.replicas, label.c_str(), spec.workload.duration.to_seconds(),
                static_cast<long long>(spec.testbed.bottleneck_rate_bps / 1'000'000),
                spec.badabing.p, spec.badabing.improved ? ", improved" : "");
    const auto results = runner.run(observers);
    const auto agg = runner.aggregate(results);

    std::printf("\n%-8s | %-12s | %-10s | %-10s | %-10s\n", "replica", "seed", "true freq",
                "est freq", "est dur(s)");
    for (const auto& r : results) {
        std::printf("%-8zu | %-12llx | %-10.4f | %-10.4f | %-10.3f\n", r.index,
                    static_cast<unsigned long long>(r.seed), r.truth.frequency,
                    r.est_frequency(), r.est_duration_s(spec.badabing.slot_width));
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

    if (observers.hashing) {
        outputs.report_hash(scenarios::ReplicaRunner::merged_state_hash(results),
                            std::to_string(results.size()) +
                                " replicas merged in index order",
                            results[0].hash_trace.get(), " (replica 0)");
    }
    if (results[0].series) outputs.write_series(*results[0].series, " (replica 0)");
    outputs.write("json", "json", json_path, [&] {
        return write_text_file(json_path, scenarios::aggregate_json(
                                              label, spec.badabing.slot_width, agg, results));
    });
}

// One run on this thread; the hash scope installed by ToolOutputs::start
// covers construction, run, and analysis.
void run_single(const bb::scenarios::ScenarioSpec& spec, const std::string& label,
                const std::string& trace_path, const std::string& design_path,
                bb::tools::ToolOutputs& outputs) {
    using namespace bb;
    const auto built = scenarios::build_experiment(spec);
    scenarios::Experiment& exp = *built.experiment;
    const probes::BadabingTool& tool = *built.badabing;

    std::printf("running %s for %.0f s at %lld Mb/s (p = %.2f%s)...\n", label.c_str(),
                spec.workload.duration.to_seconds(),
                static_cast<long long>(spec.testbed.bottleneck_rate_bps / 1'000'000),
                spec.badabing.p, spec.badabing.improved ? ", improved" : "");
    std::unique_ptr<scenarios::ExperimentRecorder> recording;
    if (outputs.recording().enabled) {
        recording = std::make_unique<scenarios::ExperimentRecorder>(exp, outputs.recording());
    }
    exp.run();
    if (recording) recording->finish();

    const core::MarkingConfig marking = scenarios::marking_for(spec);
    const auto truth = exp.truth();
    const auto res = tool.analyze(marking, spec.estimator);

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
                100.0 * tool.offered_load_fraction(spec.testbed.bottleneck_rate_bps),
                marking.alpha, marking.tau.to_millis());
    std::printf("validation   : pair asymmetry %.3f, violation fraction %.4f -> %s\n",
                res.validation.pair_asymmetry, res.validation.violation_fraction,
                res.validation.acceptable() ? "OK" : "SUSPECT");

    outputs.report_hash();
    outputs.write("trace", "trace", trace_path, [&] {
        core::write_trace_file(trace_path, tool.outcomes());
        return true;
    });
    outputs.write("design", "design", design_path, [&] {
        core::write_design_file(design_path, tool.design().experiments);
        return true;
    });
    if (recording) outputs.write_series(recording->recorder());
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
    const auto* snapshot_slots = flags.add_int(
        "snapshot-slots", 10'000'000,
        "print a metrics snapshot every N slots in --stream mode (0 = off)");
    tools::ToolOutputs outputs{flags, "badabing_sim"};
    if (!flags.parse(argc, argv)) return flags.error().empty() ? 0 : 1;

    // The --stream generator knobs have no spec path; check them here.
    if (!(*mean_on >= 1.0 && *mean_off >= 1.0)) {
        std::fprintf(stderr, "badabing_sim: --mean-on-slots and --mean-off-slots must be >= 1\n");
        return 1;
    }
    if (*slots < 1) {
        std::fprintf(stderr, "badabing_sim: --slots must be >= 1, got %lld\n",
                     static_cast<long long>(*slots));
        return 1;
    }

    // Flag -> spec path table (DESIGN.md §12).
    tools::SpecOverlay overlay{"badabing_sim", flags, *spec_path};
    if (!overlay.add_scenario(*scenario)) return 1;
    overlay.add("duration-s", "traffic.duration_s", JsonValue::of_int(*duration_s));
    overlay.add("rate-mbps", "link.rate_mbps", JsonValue::of_int(*rate_mbps));
    overlay.add("red", "link.discipline", JsonValue::of_string(*red ? "red" : "drop_tail"),
                *red ? "true" : "false");
    overlay.add("extra-hops", "link.extra_hops", JsonValue::of_int(*hops));
    overlay.add("seed", "run.seed", JsonValue::of_int(*seed));
    overlay.add("replicas", "run.replicas", JsonValue::of_int(*replicas));
    overlay.add("threads", "run.threads", JsonValue::of_int(*threads));
    overlay.add("p", "probe.badabing.p", JsonValue::of_number(*p));
    overlay.add("improved", "probe.badabing.improved", JsonValue::of_bool(*improved));
    overlay.add("stream", "probe.streaming", JsonValue::of_bool(*stream));
    // -1 keeps the paper's per-p rule (or the spec's analysis section).
    if (*alpha >= 0.0) overlay.add("alpha", "analysis.alpha", JsonValue::of_number(*alpha));
    if (*tau_ms >= 0) overlay.add("tau-ms", "analysis.tau_ms", JsonValue::of_int(*tau_ms));
    const auto spec = overlay.resolve("badabing");
    if (!spec) return 1;

    // A spec run is labelled by the spec's name unless --scenario overrides it.
    const std::string& label =
        spec_path->empty() || flags.is_set("scenario") ? *scenario : spec->name;
    const bool replica_mode = !spec->streaming && (spec->replicas > 1 || !json->empty());
    if (!outputs.start(/*hash_this_thread=*/!replica_mode)) return 1;

    if (spec->streaming) {
        // The recorder samples the event-driven simulator's clock; the
        // streaming pipeline is slot-indexed with no simulated clock to drive
        // it, so the flag does not apply there.
        if (outputs.recording().enabled) {
            std::fprintf(stderr, "--series-out applies to simulated runs; ignored with "
                                 "--stream\n");
        }
        // No scheduler or queues, but the Rng draws and report emissions
        // still fold into the hash scope.
        run_stream(*spec, {*slots, *mean_on, *mean_off, *snapshot_slots}, *json, outputs);
        outputs.report_hash();
    } else if (replica_mode) {
        if (!trace->empty() || !design->empty()) {
            std::fprintf(stderr, "--trace/--design apply to single runs; ignored with "
                                 "--replicas/--json\n");
        }
        run_replicas(*spec, label, *json, outputs);
    } else {
        run_single(*spec, label, *trace, *design, outputs);
    }
    return outputs.finish();
}
