// Extension experiment: the full AQM x traffic x loss-process ablation the
// paper's §7 asks for.  Every cell runs BADABING at p = 0.3 against one
// bottleneck discipline (drop-tail, RED, PIE, CoDel), one traffic mix (CBR
// with engineered episodes, or greedy TCP), with the Gilbert-Elliott
// non-congestive loss segment off or on — and reports where the frequency
// and duration estimates pick up bias.  A passive Q-bit observer rides every
// cell as the router-centric comparison estimator.
//
// The cell matrix is the sweep spec examples/ablation_aqm_sweep.json — the
// same file `bb_sweep run` takes — expanded by the sweep engine and executed
// per cell through the ReplicaRunner.
//
// BB_BENCH_ABLATION_DURATION_S overrides the spec's per-cell duration (120 s,
// enough for stable cell shapes; the tables use the full 900 s runs).
// BB_BENCH_JSON=<dir> additionally writes BENCH_ablation_aqm.json there.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.h"
#include "scenarios/sweep.h"
#include "util/json.h"
#include "util/json_io.h"

namespace {

using namespace bb::bench;
namespace scen = bb::scenarios;

struct CellOut {
    std::string discipline;
    std::string traffic;
    bool ge{false};
    double truth_frequency{0.0};
    double est_frequency{0.0};
    double freq_rel_error{0.0};   // signed: (est - truth) / truth
    double truth_duration_s{0.0};
    double est_duration_s{0.0};
    double dur_rel_error{0.0};
    std::size_t episodes{0};
    double path_loss_rate{0.0};   // (queue drops + GE drops) / queue arrivals
    double passive_loss_rate{0.0};  // Q-bit observer estimate of the same
    std::uint64_t qbit_merged_blocks{0};
};

double rel_error(double est, double truth) {
    if (truth <= 0.0) return 0.0;
    return (est - truth) / truth;
}

const char* discipline_name(scen::QueueDiscipline d) {
    switch (d) {
        case scen::QueueDiscipline::drop_tail: return "drop_tail";
        case scen::QueueDiscipline::red: return "red";
        case scen::QueueDiscipline::pie: return "pie";
        case scen::QueueDiscipline::codel: return "codel";
    }
    return "?";
}

CellOut run_cell(const scen::SweepCell& cell) {
    const auto rows = scen::ReplicaRunner{cell.spec}.run();
    const auto& r = rows.front();

    CellOut out;
    out.discipline = discipline_name(cell.spec.testbed.discipline);
    out.traffic =
        cell.spec.workload.kind == scen::TrafficKind::infinite_tcp ? "tcp" : "cbr";
    out.ge = cell.spec.testbed.ge_enabled;
    out.truth_frequency = r.truth.frequency;
    out.est_frequency = r.est_frequency();
    out.freq_rel_error = rel_error(out.est_frequency, out.truth_frequency);
    out.truth_duration_s = r.truth.mean_duration_s;
    out.est_duration_s = r.est_duration_s(cell.spec.badabing.slot_width);
    out.dur_rel_error = rel_error(out.est_duration_s, out.truth_duration_s);
    out.episodes = r.episodes;
    out.path_loss_rate = r.path_loss_rate;
    out.passive_loss_rate = r.passive_loss_rate;
    out.qbit_merged_blocks = r.qbit_merged_blocks;
    return out;
}

void maybe_write_json(const std::vector<CellOut>& cells, double duration_s) {
    const char* dir = std::getenv("BB_BENCH_JSON");
    if (dir == nullptr) return;
    std::string path{dir};
    if (path.empty() || path == "1") path = ".";
    path += "/BENCH_ablation_aqm.json";

    bb::JsonWriter w{bb::JsonWriter::Options{2, true}};
    w.begin_object();
    w.key("bench").value("ablation_aqm");
    w.key("duration_s").value_double(duration_s, "%.0f");
    w.key("probe_p").value_double(0.3, "%.1f");
    w.key("cells").begin_array();
    for (const auto& c : cells) {
        w.begin_object_inline();
        w.key("discipline").value(c.discipline);
        w.key("traffic").value(c.traffic);
        w.key("ge").value(c.ge);
        w.key("truth_frequency").value_double(c.truth_frequency, "%.8f");
        w.key("est_frequency").value_double(c.est_frequency, "%.8f");
        w.key("freq_rel_error").value_double(c.freq_rel_error, "%.6f");
        w.key("truth_duration_s").value_double(c.truth_duration_s, "%.6f");
        w.key("est_duration_s").value_double(c.est_duration_s, "%.6f");
        w.key("dur_rel_error").value_double(c.dur_rel_error, "%.6f");
        w.key("episodes").value_uint(c.episodes);
        w.key("path_loss_rate").value_double(c.path_loss_rate, "%.8f");
        w.key("passive_loss_rate").value_double(c.passive_loss_rate, "%.8f");
        w.key("qbit_merged_blocks").value_uint(c.qbit_merged_blocks);
        w.end_object();
    }
    w.end_array();
    w.end_object();

    if (!bb::write_text_file(path, w.str() + "\n")) return;
    std::printf("json: wrote %s\n", path.c_str());
}

}  // namespace

int main() {
    const std::string path = std::string{BB_EXAMPLES_DIR} + "/ablation_aqm_sweep.json";
    auto sweep = scen::load_sweep_spec_file(path);
    if (!sweep.ok) {
        std::fprintf(stderr, "ablation sweep rejected: %s\n", sweep.error.c_str());
        return 1;
    }
    if (const std::int64_t seconds = env_int("BB_BENCH_ABLATION_DURATION_S", -1); seconds >= 0) {
        std::string err;
        if (!bb::json_set_path(sweep.sweep.base, "traffic.duration_s",
                               bb::JsonValue::of_int(seconds), err)) {
            std::fprintf(stderr, "ablation sweep: traffic.duration_s: %s\n", err.c_str());
            return 1;
        }
    }
    const auto expanded = scen::expand_sweep(sweep.sweep, path);
    if (!expanded.ok) {
        std::fprintf(stderr, "ablation sweep expansion failed: %s\n",
                     expanded.error.c_str());
        return 1;
    }
    const double duration_s = expanded.cells.front().spec.workload.duration.to_seconds();

    print_header("Ablation: AQM discipline x traffic mix x Gilbert-Elliott loss",
                 "extension of Sommers et al., SIGCOMM 2005, Section 7 discussion");
    std::printf("per-cell duration: %.0f s (BB_BENCH_ABLATION_DURATION_S overrides)\n",
                duration_s);
    std::printf("cells: %zu (from sweep spec \"%s\")\n", expanded.cells.size(),
                sweep.sweep.name.c_str());
    std::printf("%-10s %-4s %-3s | %-19s | %-19s | %-17s | %s\n", "queue", "mix", "ge",
                "frequency", "duration (s)", "loss rate", "qbit");
    std::printf("%-10s %-4s %-3s | %-9s %-9s | %-9s %-9s | %-8s %-8s | %s\n", "", "", "",
                "true", "est", "true", "est", "path", "passive", "merged");
    std::printf("--------------------------------------------------------------------"
                "------------------\n");

    std::vector<CellOut> cells;
    for (const auto& cell : expanded.cells) {
        CellOut c = run_cell(cell);
        std::printf("%-10s %-4s %-3s | %-9.4f %-9.4f | %-9.3f %-9.3f | "
                    "%-8.5f %-8.5f | %llu\n",
                    c.discipline.c_str(), c.traffic.c_str(), c.ge ? "on" : "off",
                    c.truth_frequency, c.est_frequency, c.truth_duration_s,
                    c.est_duration_s, c.path_loss_rate, c.passive_loss_rate,
                    static_cast<unsigned long long>(c.qbit_merged_blocks));
        cells.push_back(std::move(c));
    }

    std::printf("\nexpected shape: drop-tail keeps estimates closest to truth (the\n"
                "paper's own regime); RED/PIE spread drops and dissolve episode\n"
                "edges, CoDel's head-drop sqrt schedule reshapes durations most, and\n"
                "the Gilbert-Elliott rows add loss the queue-centric truth only sees\n"
                "through the monitor's external-drop feed.  The passive Q-bit column\n"
                "tracks the router-centric PACKET loss rate, not episode frequency —\n"
                "the contrast the paper draws in Section 2.\n");
    maybe_write_json(cells, duration_s);
    return 0;
}
