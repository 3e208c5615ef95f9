// zing_sim: run a classical Poisson prober (ZING) against the same simulated
// paths, for side-by-side comparison with badabing_sim.
//
//   $ zing_sim --scenario=tcp --hz=10 --packet-bytes=256 --duration-s=900
//
// Every run is a validated scenario spec: --spec (or {}) with the model
// flags spliced in (tools/tool_common.h, DESIGN.md §12).
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "core/delay_stats.h"
#include "obs/metrics.h"
#include "scenarios/sim_record.h"
#include "scenarios/spec.h"
#include "tool_common.h"
#include "util/flags.h"

int main(int argc, char** argv) {
    using namespace bb;

    FlagSet flags{"zing_sim",
                  "Poisson-modulated loss probing on a simulated dumbbell (SIGCOMM'05 repro)"};
    const auto* spec_path = flags.add_string(
        "spec", "", "load a declarative scenario spec FILE; explicit flags override it");
    const auto* scenario =
        flags.add_string("scenario", "cbr", "traffic: tcp | cbr | cbr-multi | web");
    const auto* hz = flags.add_double("hz", 10.0, "mean probe rate, probes per second");
    const auto* packet_bytes = flags.add_int("packet-bytes", 256, "probe payload size");
    const auto* flight = flags.add_int("flight", 1, "packets per flight");
    const auto* duration_s = flags.add_int("duration-s", 900, "measured interval, seconds");
    const auto* rate_mbps = flags.add_int("rate-mbps", 30, "bottleneck rate, Mb/s");
    const auto* seed = flags.add_int("seed", 7, "RNG seed");
    tools::ToolOutputs outputs{flags, "zing_sim"};
    if (!flags.parse(argc, argv)) return flags.error().empty() ? 0 : 1;

    // A rate has no spec spelling; the spec holds its mean interval.
    if (!(std::isfinite(*hz) && *hz > 0.0)) {
        std::fprintf(stderr, "zing_sim: --hz must be finite and > 0, got %g\n", *hz);
        return 1;
    }

    // Flag -> spec path table (DESIGN.md §12).
    tools::SpecOverlay overlay{"zing_sim", flags, *spec_path};
    if (!overlay.add_scenario(*scenario)) return 1;
    overlay.add("duration-s", "traffic.duration_s", JsonValue::of_int(*duration_s));
    overlay.add("rate-mbps", "link.rate_mbps", JsonValue::of_int(*rate_mbps));
    overlay.add("seed", "run.seed", JsonValue::of_int(*seed));
    char hz_text[64];
    std::snprintf(hz_text, sizeof hz_text, "%g (a %g ms mean interval)", *hz, 1000.0 / *hz);
    overlay.add("hz", "probe.zing.mean_interval_ms", JsonValue::of_number(1000.0 / *hz),
                hz_text);
    overlay.add("packet-bytes", "probe.zing.packet_bytes", JsonValue::of_int(*packet_bytes));
    overlay.add("flight", "probe.zing.packets_per_flight", JsonValue::of_int(*flight));
    const auto spec = overlay.resolve("zing");
    if (!spec) return 1;
    if (!outputs.start(/*hash_this_thread=*/true)) return 1;

    // The whole world lives on this thread, so the hash scope covers
    // construction, run, and analysis.
    const auto built = scenarios::build_experiment(*spec);
    scenarios::Experiment& exp = *built.experiment;
    const probes::ZingProber& zing = *built.zing;

    // A spec run is labelled by the spec's name unless --scenario overrides it.
    const std::string& label =
        spec_path->empty() || flags.is_set("scenario") ? *scenario : spec->name;
    std::printf("running %s for %.0f s at %lld Mb/s (ZING %.1f Hz, %lld B)...\n",
                label.c_str(), spec->workload.duration.to_seconds(),
                static_cast<long long>(spec->testbed.bottleneck_rate_bps / 1'000'000),
                1.0 / spec->zing.mean_interval.to_seconds(),
                static_cast<long long>(spec->zing.packet_bytes));
    std::unique_ptr<scenarios::ExperimentRecorder> recording;
    if (outputs.recording().enabled) {
        recording = std::make_unique<scenarios::ExperimentRecorder>(exp, outputs.recording());
    }
    exp.run();
    if (recording) recording->finish();

    const auto truth = exp.truth();
    const auto res = zing.result();
    const auto delays = core::summarize_delays(zing.outcomes());

    std::printf("\nground truth : frequency %.4f | duration %.3f s (%zu episodes)\n",
                truth.frequency, truth.mean_duration_s, truth.episodes);
    std::printf("zing loss    : frequency %.4f | duration %.3f s (sigma %.3f) | "
                "%llu/%llu probes lost in %zu runs\n",
                res.loss_frequency, res.mean_duration_s, res.sd_duration_s,
                static_cast<unsigned long long>(res.lost),
                static_cast<unsigned long long>(res.sent), res.loss_runs);
    if (delays.valid()) {
        std::printf("zing delay   : base %.3f s | queueing p50 %.4f s, p95 %.4f s, "
                    "p99 %.4f s, max %.4f s\n",
                    delays.base_delay.to_seconds(), delays.p50_queueing_s,
                    delays.p95_queueing_s, delays.p99_queueing_s, delays.max_queueing_s);
    }

    // ZING has no streaming analyzer; publish its totals as tool-level
    // counters so the metrics export covers this prober too.
    obs::counter("probes.zing.probes_sent").inc(res.sent);
    obs::counter("probes.zing.probes_lost").inc(res.lost);

    outputs.report_hash();
    if (recording) outputs.write_series(recording->recorder());
    return outputs.finish();
}
