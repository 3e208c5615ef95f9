// estimate_trace: offline analysis of a probe trace + design produced by
// badabing_sim (or a real receiver writing the same format): congestion
// marking, loss estimates, bootstrap confidence intervals, validation, and
// delay statistics — without re-running any simulation.
//
//   $ badabing_sim --scenario=cbr --trace=run.csv --design=run.design
//   $ estimate_trace --trace=run.csv --design=run.design --slot-ms=5
#include <cstdio>
#include <exception>
#include <vector>

#include "core/bootstrap.h"
#include "core/delay_stats.h"
#include "core/estimators.h"
#include "core/markov.h"
#include "core/marking.h"
#include "core/streaming.h"
#include "core/trace_io.h"
#include "core/validation.h"
#include "core/windowed.h"
#include "scenarios/spec.h"
#include "tool_common.h"
#include "util/flags.h"

namespace {

void print_duration(const bb::core::Estimates& est, bb::TimeNs slot) {
    std::printf("duration     : %.4f s (basic)",
                est.duration_basic.valid ? est.duration_basic.seconds(slot) : 0.0);
    if (est.duration_improved.valid) {
        std::printf("  |  %.4f s (improved, r_hat %.3f)", est.duration_improved.seconds(slot),
                    est.duration_improved.r_hat.value_or(0.0));
    }
    std::printf("\n");
}

void print_delays(const bb::core::DelaySummary& delays) {
    if (!delays.valid()) return;
    std::printf("delays       : base %.4f s, queueing p95 %.4f s, loss-conditional %.4f s\n",
                delays.base_delay.to_seconds(), delays.p95_queueing_s,
                delays.loss_conditional_queueing_s);
}

}  // namespace

int main(int argc, char** argv) {
    using namespace bb;
    using namespace bb::core;

    FlagSet flags{"estimate_trace", "offline BADABING estimation from a probe trace"};
    const auto* spec_path = flags.add_string(
        "spec", "",
        "scenario spec FILE supplying slot width + marking; explicit flags override it");
    const auto* trace_path = flags.add_string("trace", "", "probe trace file (required)");
    const auto* design_path = flags.add_string("design", "", "experiment design file (required)");
    const auto* slot_ms = flags.add_int("slot-ms", 5, "slot width used by the sender, ms");
    const auto* alpha = flags.add_double("alpha", 0.1, "marking alpha");
    const auto* tau_ms = flags.add_int("tau-ms", 40, "marking tau, ms");
    const auto* replicates = flags.add_int("bootstrap", 200, "bootstrap replicates (0 = off)");
    const auto* seed = flags.add_int("seed", 1, "bootstrap RNG seed");
    const auto* stream = flags.add_bool(
        "stream", false,
        "stream the design through the online estimators (no report vector; "
        "skips bootstrap/markov/stationarity)");
    tools::ToolOutputs outputs{flags, "estimate_trace",
                               tools::ToolOutputs::Surface::metrics_and_trace};
    if (!flags.parse(argc, argv)) return flags.error().empty() ? 0 : 1;
    if (!outputs.start(/*hash_this_thread=*/false)) return 1;
    if (trace_path->empty() || design_path->empty()) {
        std::fprintf(stderr, "estimate_trace: --trace and --design are required\n");
        return 1;
    }

    // --spec carries the sender's slot width and the marking rule so analysis
    // of a recorded trace uses the same configuration that produced it; the
    // flags splice over it like the simulators' (DESIGN.md §12).
    tools::SpecOverlay overlay{"estimate_trace", flags, *spec_path};
    overlay.add("slot-ms", "probe.badabing.slot_ms", JsonValue::of_int(*slot_ms));
    overlay.add("alpha", "analysis.alpha", JsonValue::of_number(*alpha));
    overlay.add("tau-ms", "analysis.tau_ms", JsonValue::of_int(*tau_ms));
    overlay.add("seed", "run.seed", JsonValue::of_int(*seed));
    const auto spec = overlay.resolve(/*prober=*/nullptr);
    if (!spec) return 1;

    try {
        const auto probes = read_trace_file(*trace_path);
        const TimeNs slot = spec->badabing.slot_width;
        CongestionMarker marker{scenarios::marking_for(*spec)};
        const auto marks = marker.mark(probes);
        const auto delays = summarize_delays(probes);

        if (*stream) {
            // The marker needs the full probe record (two-pass tau/alpha
            // rule), but the design is scored record by record into the
            // analyzer — no experiment or report vector is materialized.
            StreamingAnalyzer::Result res;
            {
                // Scoped so the analyzer publishes its core.reports.*
                // counters before outputs.finish() writes the metrics file.
                StreamingAnalyzer analyzer;
                MarkScorer scorer{marks, analyzer};
                for_each_design_record_file(*design_path, scorer);
                res = analyzer.finalize();
            }
            std::printf("trace        : %zu probes, %llu experiments (streamed)\n",
                        probes.size(), static_cast<unsigned long long>(res.reports));
            std::printf("frequency    : %.5f  (online moment estimator, Sec 5.2.2)\n",
                        res.frequency.value);
            print_duration(res, slot);
            std::printf("validation   : pair asymmetry %.3f, violations %.4f -> %s\n",
                        res.validation.pair_asymmetry, res.validation.violation_fraction,
                        res.validation.acceptable() ? "OK" : "SUSPECT");
            print_delays(delays);
            std::printf("note         : bootstrap/markov/stationarity need the full report "
                        "sequence; run without --stream for those\n");
            return outputs.finish();
        }

        const auto experiments = read_design_file(*design_path);
        VectorSink<ExperimentResult> scored;
        scored.reserve(experiments.size());
        score_marks_into(experiments, marks, scored);
        const std::vector<ExperimentResult> results = scored.take();

        StreamingAnalyzer::Result est;
        {
            // Same analyzer as --stream, so both modes publish the same
            // core.reports.* counters (scoped: see above).
            StreamingAnalyzer analyzer;
            for (const auto& r : results) analyzer.consume(r);
            est = analyzer.finalize();
        }
        const auto markov = estimate_markov(tally_pairs(results));
        const SlotIndex last_slot = experiments.empty()
                                        ? 0
                                        : experiments.back().start_slot + 3;
        const auto stationarity = check_stationarity(experiments, results, last_slot);

        std::printf("trace        : %zu probes, %zu experiments\n", probes.size(),
                    experiments.size());
        std::printf("frequency    : %.5f  (moment estimator, Sec 5.2.2)\n",
                    est.frequency.value);
        print_duration(est, slot);
        std::printf("markov (param): frequency %.5f, duration %.4f s  (Sec 8 extension)\n",
                    markov.valid ? markov.frequency : 0.0,
                    markov.valid ? markov.duration_seconds(slot) : 0.0);
        std::printf("validation   : pair asymmetry %.3f, violations %.4f -> %s\n",
                    est.validation.pair_asymmetry, est.validation.violation_fraction,
                    est.validation.acceptable() ? "OK" : "SUSPECT");
        print_delays(delays);
        std::printf("stationarity : first half F %.5f vs second half F %.5f -> %s\n",
                    stationarity.first_half_frequency, stationarity.second_half_frequency,
                    stationarity.looks_stationary ? "stationary" : "NON-STATIONARY");

        if (*replicates > 0) {
            BootstrapConfig bcfg;
            bcfg.replicates = static_cast<std::size_t>(*replicates);
            Rng rng{spec->seed};
            const auto ci = bootstrap_estimates(results, bcfg, rng);
            if (ci.frequency.valid) {
                std::printf("bootstrap    : frequency %.5f [%.5f, %.5f] (90%%)\n",
                            ci.frequency.point, ci.frequency.lo, ci.frequency.hi);
            }
            if (ci.duration_slots.valid) {
                std::printf("               duration %.4f s [%.4f, %.4f] (90%%)\n",
                            ci.duration_slots.point * slot.to_seconds(),
                            ci.duration_slots.lo * slot.to_seconds(),
                            ci.duration_slots.hi * slot.to_seconds());
            }
        }
    } catch (const std::exception& e) {
        // Unreadable or malformed --trace/--design input (trace_io throws).
        std::fprintf(stderr, "estimate_trace: %s\n", e.what());
        return 1;
    }
    return outputs.finish();
}
