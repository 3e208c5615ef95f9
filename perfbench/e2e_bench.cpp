// e2e_bench: one repetition of one benchmark workload, end to end.
//
//   e2e_bench --spec perfbench/workloads/cbr_fig9.json --seed 7
//       --grid-alpha 0.05,0.1,0.2 --grid-tau-ms 20,40,80 [--trace-out t.json] [--hash]
//
// Loads the ScenarioSpec file, builds the experiment (kSetups times; the
// median is reported), runs it in 0.5 simulated-second run_until steps,
// then computes the ground truth, one BADABING analyze at the spec's
// marking, the same marking through emit_reports into a StreamingAnalyzer,
// and any re-analysis grid.  Every call is timed from outside; counts come
// from the layers' public accessors.  Prints one JSON object on stdout.
// perfbench/run.py drives it; see perfbench/README.md.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/probe_process.h"
#include "core/run_hasher.h"
#include "core/streaming.h"
#include "harness.h"
#include "obs/process_stats.h"
#include "scenarios/spec.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/json_io.h"

namespace {

using namespace bb;
using perfbench::Tracer;

// Set-ups per repetition: set-up takes milliseconds, so one sample is noisy.
constexpr int kSetups = 9;

std::vector<double> parse_list(const std::string& csv) {
    std::vector<double> out;
    std::stringstream ss{csv};
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (!item.empty()) out.push_back(std::strtod(item.c_str(), nullptr));
    }
    return out;
}

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n == 0 ? 0.0 : (n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

// Nearest-rank percentile: with 1804 steps, q = 0.99 leaves 18 samples above.
double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::max<std::size_t>(rank, 1) - 1];
}

bool same_estimate(const core::DurationEstimate& a, const core::DurationEstimate& b) {
    return a.valid == b.valid && a.slots == b.slots && a.R == b.R && a.S == b.S &&
           a.r_hat == b.r_hat;
}

struct Setup {
    scenarios::ScenarioSpec spec;
    scenarios::BuiltExperiment built;
    core::ProbeDesign design;  // drawn by a direct design_probe_process call
    double spec_s{0.0};
    double build_s{0.0};
    double design_s{0.0};
};

// Parse and build once, timing the spec parser, the factories and a direct
// design_probe_process call with the tool's own slots, p and seed.
std::optional<Setup> set_up(const std::string& path, std::int64_t seed, Tracer& tr) {
    Setup s;
    const Tracer::Scope top = tr.begin("setup", "scenarios");

    const Tracer::Scope parse = tr.begin("scenarios.spec", "scenarios");
    scenarios::SpecResult res = scenarios::load_scenario_spec_file(path);
    if (res.ok && seed >= 0) {
        res.spec.seed = static_cast<std::uint64_t>(seed);
        res.spec.workload.seed = res.spec.seed;
    }
    s.spec_s = tr.end(parse);
    if (!res.ok) {
        std::fprintf(stderr, "e2e_bench: %s\n", res.error.c_str());
        return std::nullopt;
    }
    if (res.spec.tool != scenarios::ScenarioSpec::ProbeTool::badabing) {
        std::fprintf(stderr, "e2e_bench: %s: workload must probe with badabing\n",
                     path.c_str());
        return std::nullopt;
    }
    s.spec = std::move(res.spec);

    const Tracer::Scope build = tr.begin("scenarios.build", "scenarios");
    s.built = scenarios::build_experiment(s.spec);
    sim::Scheduler& sched = s.built.experiment->testbed().sched();
    s.build_s = tr.end(build, {{"pending_events", static_cast<double>(sched.pending_events())},
                               {"arena_slots", static_cast<double>(sched.arena_slots())}});

    // Same slots, p and seed as the tool's own design (Experiment::add_badabing).
    const probes::BadabingConfig& bc = s.spec.badabing;
    const core::SlotIndex slots = (s.spec.workload.duration - bc.start) / bc.slot_width;
    core::ProbeProcessConfig pcfg;
    pcfg.p = bc.p;
    pcfg.improved = bc.improved;
    pcfg.extended_fraction = bc.extended_fraction;
    Rng rng{s.spec.workload.seed ^ (0xBADAULL + bc.flow)};
    const Tracer::Scope design = tr.begin("core.design", "core");
    s.design = core::design_probe_process(rng, slots, pcfg);
    s.design_s = tr.end(design, {{"probe_slots", static_cast<double>(s.design.probe_slots.size())},
                                 {"experiments", static_cast<double>(s.design.experiments.size())}});
    tr.end(top);
    return s;
}

}  // namespace

int main(int argc, char** argv) {
    FlagSet flags{"e2e_bench", "run one repetition of an end-to-end benchmark workload"};
    const auto* spec_path = flags.add_string("spec", "", "ScenarioSpec JSON file (required)");
    const auto* seed = flags.add_int("seed", -1, "workload seed (-1 = the spec's run.seed)");
    const auto* grid_alpha = flags.add_string("grid-alpha", "", "re-analysis alphas, a,b,...");
    const auto* grid_tau = flags.add_string("grid-tau-ms", "", "re-analysis taus (ms), a,b,...");
    const auto* trace_out = flags.add_string("trace-out", "", "write the spans as Chrome trace JSON");
    const auto* hash = flags.add_bool("hash", false, "run under a core::HashScope");
    if (!flags.parse(argc, argv)) return flags.error().empty() ? 0 : 2;
    if (spec_path->empty()) {
        std::fprintf(stderr, "e2e_bench: --spec is required\n");
        return 2;
    }

    Tracer tr{!trace_out->empty()};

    // --- set-up: the median of several, the last one is run ---------------
    std::optional<Setup> setup;
    std::vector<double> spec_s, build_s, design_s, setup_s;
    for (int i = 0; i < kSetups; ++i) {
        setup.reset();  // one experiment alive at a time, as in a real run
        setup = set_up(*spec_path, *seed, tr);
        if (!setup) return 1;
        spec_s.push_back(setup->spec_s);
        build_s.push_back(setup->build_s);
        design_s.push_back(setup->design_s);
        setup_s.push_back(setup->spec_s + setup->build_s);
    }
    const scenarios::ScenarioSpec& spec = setup->spec;
    scenarios::Experiment& exp = *setup->built.experiment;
    const probes::BadabingTool& tool = *setup->built.badabing;
    sim::Scheduler& sched = exp.testbed().sched();
    const sim::QueueBase& q = exp.testbed().bottleneck();

    // --- run ----------------------------------------------------------------
    core::RunHasher hasher;
    std::optional<core::HashScope> hash_scope;
    if (*hash) hash_scope.emplace(hasher);
    const Tracer::Scope run_span = tr.begin("run", "sim");
    const std::vector<double> steps = perfbench::run_stepped(exp, tr);
    const double run_s = tr.end(
        run_span, {{"events", static_cast<double>(sched.executed_events())},
                   {"cancelled", static_cast<double>(sched.cancelled_events())},
                   {"arena_slots", static_cast<double>(sched.arena_slots())},
                   {"queue_arrivals", static_cast<double>(q.arrivals())},
                   {"queue_drops", static_cast<double>(q.drops())},
                   {"probes_sent", static_cast<double>(tool.probes_sent())}});
    hash_scope.reset();
    std::uint64_t tcp_segments = 0, tcp_retransmits = 0, tcp_timeouts = 0;
    for (const auto& flow : exp.workload().tcp_flows()) {
        tcp_segments += flow->sender().segments_sent();
        tcp_retransmits += flow->sender().retransmits();
        tcp_timeouts += flow->sender().timeouts();
    }

    // --- estimate -------------------------------------------------------------
    const Tracer::Scope est_span = tr.begin("estimate", "core");
    const Tracer::Scope truth_span = tr.begin("measure.truth", "measure");
    const measure::TruthSummary truth = exp.truth();
    const double truth_s = tr.end(truth_span, {{"episodes", static_cast<double>(truth.episodes)},
                                               {"drops", static_cast<double>(truth.total_drops)}});

    const core::MarkingConfig marking = scenarios::marking_for(spec);
    const Tracer::Scope analyze_span = tr.begin("probes.analyze", "probes");
    const probes::BadabingResult batch = tool.analyze(marking, spec.estimator);
    const double analyze_s =
        tr.end(analyze_span, {{"probes", static_cast<double>(batch.probes_sent)},
                              {"experiments", static_cast<double>(batch.experiments)}});

    const Tracer::Scope stream_span = tr.begin("core.stream", "core");
    core::StreamingAnalyzer analyzer{spec.estimator};
    tool.emit_reports(marking, analyzer);
    const core::StreamingAnalyzer::Result stream = analyzer.finalize();
    const double stream_s = tr.end(stream_span, {{"reports", static_cast<double>(stream.reports)}});

    const std::vector<double> alphas = parse_list(*grid_alpha);
    const std::vector<double> taus_ms = parse_list(*grid_tau);
    const Tracer::Scope grid_span = tr.begin("core.grid", "core");
    std::size_t grid_cells = 0;
    for (const double a : alphas) {
        for (const double t : taus_ms) {
            core::MarkingConfig m = marking;
            m.alpha = a;
            m.tau = seconds(t * 1e-3);
            const Tracer::Scope cell = tr.begin("core.grid.cell", "core");
            const probes::BadabingResult r = tool.analyze(m, spec.estimator);
            tr.end(cell, {{"alpha", a}, {"tau_ms", t}, {"frequency", r.frequency.value}});
            ++grid_cells;
        }
    }
    const double grid_s = tr.end(grid_span, {{"cells", static_cast<double>(grid_cells)}});
    const double estimate_s = tr.end(est_span);

    // --- output checks ----------------------------------------------------------
    const bool stream_agrees = batch.frequency.value == stream.frequency.value &&
                               batch.frequency.samples == stream.frequency.samples &&
                               same_estimate(batch.duration_basic, stream.duration_basic) &&
                               same_estimate(batch.duration_improved, stream.duration_improved) &&
                               stream.reports == batch.experiments;
    const bool design_matches = setup->design.probe_slots == tool.design().probe_slots &&
                                setup->design.experiments.size() == tool.design().experiments.size();
    // Every arrival was dropped, departed, is queued, or is the one packet on
    // the wire (no public accessor tells which, so allow it).
    const std::uint64_t unaccounted = q.arrivals() - q.drops() - q.departures();
    const bool queue_conserved =
        unaccounted == q.queue_packets() || unaccounted == q.queue_packets() + 1;

    const double d_hat = batch.duration_seconds(spec.badabing.slot_width);
    const obs::ProcessStats ps = obs::process_stats();

    JsonWriter w;
    w.begin_object()
        .key("workload").value(spec.name)
        .key("seed").value_uint(spec.seed)
        .key("spec_s").value_double(median(spec_s), "%.17g")
        .key("build_s").value_double(median(build_s), "%.17g")
        .key("design_s").value_double(median(design_s), "%.17g")
        .key("setup_s").value_double(median(setup_s), "%.17g")
        .key("run_s").value_double(run_s, "%.17g")
        .key("sim_s").value_double(perfbench::run_horizon(exp).to_seconds(), "%.17g")
        .key("steps").value_uint(steps.size())
        .key("step_ms_p50").value_double(percentile(steps, 0.5) * 1e3, "%.17g")
        .key("step_ms_p99").value_double(percentile(steps, 0.99) * 1e3, "%.17g")
        .key("truth_s").value_double(truth_s, "%.17g")
        .key("analyze_s").value_double(analyze_s, "%.17g")
        .key("stream_s").value_double(stream_s, "%.17g")
        .key("grid_s").value_double(grid_s, "%.17g")
        .key("grid_cells").value_uint(grid_cells)
        .key("estimate_s").value_double(estimate_s, "%.17g")
        .key("peak_rss_kb").value_int(ps.max_rss_kb)
        .key("events").value_uint(sched.executed_events())
        .key("cancelled").value_uint(sched.cancelled_events())
        .key("arena_slots").value_uint(sched.arena_slots())
        .key("queue_arrivals").value_uint(q.arrivals())
        .key("queue_drops").value_uint(q.drops())
        .key("queue_departures").value_uint(q.departures())
        .key("tcp_segments").value_uint(tcp_segments)
        .key("tcp_retransmits").value_uint(tcp_retransmits)
        .key("tcp_timeouts").value_uint(tcp_timeouts);
    const traffic::WebSessionGenerator* web = exp.workload().web();
    w.key("web_sessions").value_uint(web != nullptr ? web->sessions_started() : 0)
        .key("web_objects_started").value_uint(web != nullptr ? web->objects_started() : 0)
        .key("web_objects_completed").value_uint(web != nullptr ? web->objects_completed() : 0)
        .key("drops_total").value_uint(exp.monitor().drops_total())
        .key("probes_sent").value_uint(tool.probes_sent())
        .key("probe_packets_received").value_uint(tool.packets_received())
        .key("reports").value_uint(stream.reports)
        .key("truth").begin_object()
        .key("frequency").value_double(truth.frequency, "%.17g")
        .key("mean_duration_s").value_double(truth.mean_duration_s, "%.17g")
        .key("sd_duration_s").value_double(truth.sd_duration_s, "%.17g")
        .key("episodes").value_uint(truth.episodes)
        .key("total_drops").value_uint(truth.total_drops)
        .end_object()
        .key("f_hat").value_double(batch.frequency.value, "%.17g")
        .key("d_hat_s").value_double(d_hat, "%.17g")
        .key("stream_agrees").value(stream_agrees)
        .key("design_matches").value(design_matches)
        .key("queue_conserved").value(queue_conserved);
    if (*hash) w.key("state_hash").value(core::RunHasher::hex(hasher.digest()));
    w.end_object();
    std::printf("%s\n", w.str().c_str());

    if (tr.recording() && !write_text_file(*trace_out, tr.chrome_json())) return 1;
    return 0;
}
