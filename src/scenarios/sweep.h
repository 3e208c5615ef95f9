// Cached sweep engine: grid-expand a scenario spec over axis values and run
// every cell through ReplicaRunner, skipping cells whose results are already
// on disk.
//
// A sweep spec is JSON:
//
//   {
//     "name": "aqm_ablation",
//     "base": { <any scenario spec document> },
//     "axes": {
//       "link.discipline": ["drop_tail", "red", "pie", "codel"],
//       "link.ge.enabled": [false, true]
//     }
//   }
//
// Axes expand as nested loops with the FIRST axis outermost (file order is
// preserved), so cell order is predictable.  Each cell is the base document
// with the axis values spliced in by dotted path, then parsed through the
// strict ScenarioSpec validator — a bad combination fails with the same
// one-line "<file>:<line>: <key>: <why>" diagnostic as a bad single spec.
//
// Every cell is keyed by the FNV-1a hash of its canonical (sorted-key,
// round-trip-precision) JSON document.  With a --cache-dir, finished cells
// live in <cache>/<hash>.json and later runs verify the embedded hash and
// skip the computation; editing an axis value only invalidates the cells
// whose resolved documents actually changed.
#ifndef BB_SCENARIOS_SWEEP_H
#define BB_SCENARIOS_SWEEP_H

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/run_hasher.h"
#include "scenarios/progress.h"
#include "scenarios/replica_runner.h"
#include "scenarios/sim_record.h"
#include "scenarios/spec.h"
#include "util/func.h"
#include "util/json.h"

namespace bb::scenarios {

struct SweepAxis {
    std::string path;               // dotted key path into the scenario doc
    std::vector<JsonValue> values;  // scalar values, in file order
    int line{1};                    // where the axis was declared
};

struct SweepSpec {
    std::string name;  // defaults to the file stem or "sweep"
    JsonValue base;    // unexpanded scenario document
    std::vector<SweepAxis> axes;  // file order; first axis is outermost
};

struct SweepParseResult {
    bool ok{false};
    SweepSpec sweep;
    std::string error;  // one line, print verbatim
};

[[nodiscard]] SweepParseResult parse_sweep_spec(const JsonValue& doc,
                                                std::string_view source);
[[nodiscard]] SweepParseResult load_sweep_spec_text(std::string_view text,
                                                    std::string_view source);
[[nodiscard]] SweepParseResult load_sweep_spec_file(const std::string& path);

// One fully resolved grid point.
struct SweepCell {
    std::size_t index{0};
    std::string config_hash;  // fnv1a64_hex of the canonical resolved doc
    JsonValue doc;            // base + axis values spliced in
    ScenarioSpec spec;        // validated form of `doc`
    // axis path -> rendered value ("red", "true", "0.3"), in axis order.
    std::vector<std::pair<std::string, std::string>> axis_values;
};

struct ExpandResult {
    bool ok{false};
    std::vector<SweepCell> cells;
    std::string error;
};

// Grid-expand and validate every cell.  `source` labels diagnostics.
[[nodiscard]] ExpandResult expand_sweep(const SweepSpec& sweep,
                                        std::string_view source);

class SweepRunner {
public:
    struct Config {
        std::string out_dir;    // per-cell results + summary land here
        std::string cache_dir;  // "" = caching off
        std::size_t threads{0};  // 0 = each cell's own run.threads
        // Per-cell sim-time series (replica 0 of each cell): when
        // recording.enabled, every computed cell also writes
        // <out>/<sweep>-<hash>.series.json and caches <cache>/<hash>.series.json.
        // A cached cell missing its series file is recomputed, so caches
        // created without recording stay valid for non-recording runs.
        SimRecordingConfig recording{};
        // Where per-cell series files land; "" = out_dir.
        std::string series_dir;
        // Fired after every finished cell (progress display); the runner
        // measures per-cell wall time.  Wall time never reaches result files.
        UniqueFunction<void(const SweepProgress&)> progress;
        // Determinism hash chain (DESIGN.md §14): hash every *computed*
        // cell's replicas and merge their digests.  Cached cells are not
        // re-run, so they carry no digest.
        bool state_hash{false};
        // Trace-ring capacity for replica 0 of the first computed cell.
        std::size_t hash_trace_capacity{0};
    };

    struct CellOutcome {
        std::size_t index{0};
        std::string config_hash;
        bool cached{false};   // satisfied from cache_dir without running
        JsonValue result;     // the cell result document (see cell_result_json)
        bool hashed{false};   // cfg.state_hash and the cell was computed
        std::uint64_t state_hash{0};  // merged replica digests (when hashed)
    };

    struct RunOutcome {
        bool ok{false};
        std::string error;
        std::vector<CellOutcome> cells;
        std::size_t computed{0};
        std::size_t cached{0};
        // Hashed-cell digests folded in cell order (Config::state_hash).
        std::size_t hashed_cells{0};
        std::uint64_t merged_state_hash{0};
        // Trace ring of replica 0 of the first computed cell, when requested.
        std::shared_ptr<core::RunHasher> hash_trace;
    };

    explicit SweepRunner(Config cfg) : cfg_{std::move(cfg)} {}

    // Run every cell (cache-aware), write per-cell JSON + a summary document
    // into out_dir.  Cells run serially; each cell's replicas run in
    // parallel through ReplicaRunner.  (Non-const only because the progress
    // hook is a move-only callable; results are independent of it.)
    [[nodiscard]] RunOutcome run(const std::string& sweep_name,
                                 const std::vector<SweepCell>& cells);

private:
    Config cfg_;
};

// The per-cell result document (pretty JSON, %.17g doubles so cached values
// round-trip exactly): config_hash, name, axes, aggregate stats, and the
// per-replica trajectory including the path/passive loss-rate extras.
[[nodiscard]] std::string cell_result_json(const SweepCell& cell,
                                           const AggregateRow& row,
                                           const std::vector<ReplicaResult>& replicas,
                                           TimeNs slot_width);

}  // namespace bb::scenarios

#endif  // BB_SCENARIOS_SWEEP_H
