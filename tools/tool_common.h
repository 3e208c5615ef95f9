// What the command-line tools share: the flags that become a scenario spec,
// and the observability/export outputs every tool can write.
//
// SpecOverlay turns --spec plus the model flags into one validated
// ScenarioSpec (DESIGN.md §12): the base document is the --spec file (or {}
// without one), each flag's value is spliced at its dotted spec path with
// json_set_path — the splice a sweep axis uses — and the result goes
// through parse_scenario_spec, the one validator.
//
// ToolOutputs owns the seven observability flags (--metrics-json,
// --trace-out, --series-out, --series-interval-ms, --state-hash,
// --hash-trace-out, --hash-trace-capacity), turns obs, the trace and the
// hash scope on at start, and at finish tries every requested output even
// after one fails (DESIGN.md §8).
#ifndef BB_TOOLS_TOOL_COMMON_H
#define BB_TOOLS_TOOL_COMMON_H

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/run_hasher.h"
#include "obs/recorder.h"
#include "scenarios/sim_record.h"
#include "scenarios/spec.h"
#include "util/flags.h"
#include "util/json.h"

namespace bb::tools {

class SpecOverlay {
public:
    // `spec_path` is the --spec value ("" = none).
    SpecOverlay(std::string tool, const FlagSet& flags, std::string spec_path);

    // Splice `value` at `path` on behalf of --`flag`: always without --spec,
    // only when the flag was given explicitly with one.  `shown` is the flag
    // value for diagnostics when it differs from the spliced value.
    void add(const char* flag, const char* path, JsonValue value, std::string shown = {});
    // --scenario: traffic.kind plus what each scenario implies.  False (after
    // printing a one-line error) for an unknown name.
    [[nodiscard]] bool add_scenario(const std::string& name);

    // Load, splice and validate.  `prober` is the probe.tool the binary runs:
    // spliced when the spec names none, an error when it names another;
    // nullptr accepts any tool and topology.  Failures print one line and
    // return nullopt.
    [[nodiscard]] std::optional<scenarios::ScenarioSpec> resolve(const char* prober) const;

private:
    struct Splice {
        std::string flag;
        std::string path;
        JsonValue value;
        std::string shown;
    };

    std::string tool_;
    const FlagSet* flags_;
    std::string spec_path_;
    std::vector<Splice> splices_;
};

class ToolOutputs {
public:
    enum class Surface { metrics_and_trace, all };

    // Registers the group's flags on `flags`.  `series_help` overrides the
    // --series-out help (bb_sweep writes a directory of series files).
    ToolOutputs(FlagSet& flags, std::string tool, Surface surface = Surface::all,
                const char* series_help = nullptr);

    // Call after flags.parse().  Rejects out-of-range group flags (one-line
    // error, false), lets explicit export flags turn obs on over BB_OBS,
    // starts the trace, and — when hashing was asked for and
    // `hash_this_thread` — installs the run-state hash scope on this thread
    // (single-threaded runs; replica and sweep runs hash in their workers).
    [[nodiscard]] bool start(bool hash_this_thread);

    [[nodiscard]] bool hashing() const noexcept;
    // Trace-ring size for --hash-trace-out (0 = no ring).
    [[nodiscard]] std::size_t hash_trace_capacity() const noexcept;
    [[nodiscard]] scenarios::SimRecordingConfig recording() const;
    [[nodiscard]] const std::string& series_out() const noexcept { return *series_out_; }

    // The state-hash line and --hash-trace-out of the run hashed on this
    // thread (start(true)); nothing when hashing was not asked for.
    void report_hash();
    // ... of a run hashed elsewhere; `ring` (nullptr = none) is the chain the
    // hash trace comes from, `note` trails its wrote line.
    void report_hash(std::uint64_t digest, const std::string& detail,
                     const core::RunHasher* ring, const char* note = "");

    // One requested output: prints "<label>: wrote <path><note>" when
    // `writer` succeeds, "<tool>: cannot write <what> to <path>" on stderr
    // when it returns false or throws.  An empty path writes nothing.
    void write(const char* label, const char* what, const std::string& path,
               const std::function<bool()>& writer, const char* note = "");
    // Exports `rec` to the trace and writes it to --series-out.
    void write_series(obs::Recorder& rec, const char* note = "");

    // Writes --trace-out and --metrics-json, prints the process-stats line,
    // and returns the exit code: 1 if any output failed.
    [[nodiscard]] int finish();

private:
    std::string tool_;
    const std::string* metrics_json_;
    const std::string* trace_out_;
    const std::string* series_out_{nullptr};
    const std::int64_t* series_interval_ms_{nullptr};
    const bool* state_hash_{nullptr};
    const std::string* hash_trace_out_{nullptr};
    const std::int64_t* hash_trace_capacity_{nullptr};
    std::optional<core::RunHasher> hasher_;
    std::optional<core::HashScope> hash_scope_;
    bool failed_{false};
};

}  // namespace bb::tools

#endif  // BB_TOOLS_TOOL_COMMON_H
