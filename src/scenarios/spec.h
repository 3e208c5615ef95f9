// Declarative scenario DSL: every hand-wired table/figure scenario as data.
//
// A ScenarioSpec is the parsed, validated, defaulted form of a JSON spec
// file covering all layers of one experiment: topology + link (rate, delay,
// buffer, queue discipline, ECN, Gilbert-Elliott), traffic mix, probe
// configuration (badabing / zing / sting, streaming on/off), truth knobs,
// marking overrides, and run controls (replicas / threads / seed).  The
// factories at the bottom turn a spec into the same Testbed / Experiment
// objects the hand-wired scenarios build — the golden suites pin that the
// two paths are bit-identical.  A multi-replica run is a ReplicaRunner over
// the spec itself (scenarios/replica_runner.h).
//
// Parsing is strict: unknown keys, out-of-range values, and type mismatches
// all fail with a one-line "<file>:<line>: <section>.<key>: <why>"
// diagnostic suitable for printing verbatim from a CLI.
#ifndef BB_SCENARIOS_SPEC_H
#define BB_SCENARIOS_SPEC_H

#include <memory>
#include <optional>
#include <string>

#include "probes/sting.h"
#include "scenarios/experiment.h"
#include "scenarios/figure3.h"
#include "util/json.h"

namespace bb::scenarios {

struct ScenarioSpec {
    enum class Topology { dumbbell, figure3 };
    enum class ProbeTool { badabing, zing, sting, none };

    std::string name;  // label for outputs; defaults to the file stem or "scenario"
    Topology topology{Topology::dumbbell};

    TestbedConfig testbed;
    Figure3Testbed::Config figure3;  // used when topology == figure3
    WorkloadConfig workload;
    TruthConfig truth;

    ProbeTool tool{ProbeTool::badabing};
    probes::BadabingConfig badabing;
    probes::ZingProber::Config zing;
    probes::StingProber::Config sting;
    // Streaming analysis path (bounded-memory truth + O(1) report consumers),
    // as exposed by the tools' --stream flag.
    bool streaming{false};

    // Marking overrides; unset means the paper's per-p defaults
    // (tau_for_probe_rate / alpha_for_probe_rate via Experiment).
    std::optional<double> marking_alpha;
    std::optional<TimeNs> marking_tau;
    core::EstimatorOptions estimator;

    // Run controls ("run" section).
    std::size_t replicas{1};
    std::size_t threads{0};  // 0 = hardware concurrency
    std::uint64_t seed{7};
};

struct SpecResult {
    bool ok{false};
    ScenarioSpec spec;
    // One line, "<source>:<line>: <key path>: <message>" — print verbatim.
    std::string error;
};

// Parse + validate + default a spec from an already-parsed JSON document.
[[nodiscard]] SpecResult parse_scenario_spec(const JsonValue& doc,
                                             std::string_view source);
// Convenience wrappers over json_parse / json_parse_file.
[[nodiscard]] SpecResult load_scenario_spec_text(std::string_view text,
                                                 std::string_view source);
[[nodiscard]] SpecResult load_scenario_spec_file(const std::string& path);

// Enum <-> spelling used by the DSL (and by sweep-axis values).
[[nodiscard]] const char* to_string(QueueDiscipline d) noexcept;
[[nodiscard]] const char* to_string(TrafficKind k) noexcept;
[[nodiscard]] const char* to_string(ScenarioSpec::ProbeTool t) noexcept;

// --- Factories ---------------------------------------------------------------

// The dumbbell testbed exactly as the hand-wired scenarios construct it.
// Direct `Testbed{...}` construction outside src/scenarios is lint-banned
// (no-adhoc-scenario); this is the sanctioned path.
[[nodiscard]] std::unique_ptr<Testbed> build_testbed(const ScenarioSpec& spec);
// The Figure 3 multi-hop topology (topology == figure3).
[[nodiscard]] std::unique_ptr<Figure3Testbed> build_figure3_testbed(
    const ScenarioSpec& spec);

// A fully wired single-run experiment: testbed + workload + truth + the
// spec's probe tool attached.  Only the dumbbell topology can host an
// Experiment; figure3 specs must go through build_figure3_testbed.
struct BuiltExperiment {
    std::unique_ptr<Experiment> experiment;
    probes::BadabingTool* badabing{nullptr};  // set when tool == badabing
    probes::ZingProber* zing{nullptr};        // set when tool == zing
    probes::StingProber* sting{nullptr};      // set when tool == sting
};
[[nodiscard]] BuiltExperiment build_experiment(const ScenarioSpec& spec);

// Marking parameters for analyze(): the spec's explicit alpha/tau when set,
// else the paper's defaults for the spec's probe rate.
[[nodiscard]] core::MarkingConfig marking_for(const ScenarioSpec& spec);

}  // namespace bb::scenarios

#endif  // BB_SCENARIOS_SPEC_H
