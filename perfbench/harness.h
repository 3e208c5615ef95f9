// Shared pieces of the end-to-end benchmark: the stepped run loop and the
// span recorder that times every call the benchmark makes into a layer.
//
// Everything here sits outside src/: the layers are measured from the
// benchmark's side of their public functions, never from inside.
#ifndef BB_PERFBENCH_HARNESS_H
#define BB_PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "scenarios/experiment.h"

namespace bb::perfbench {

// One span per benchmark call into a layer, written as Chrome trace JSON
// (chrome://tracing, ui.perfetto.dev).  Every begin/end pair reads the
// clock, so the same calls give the untraced timings; only a recording
// tracer keeps the spans.
class Tracer {
public:
    using Args = std::vector<std::pair<const char*, double>>;
    struct Scope {
        int id;
        std::int64_t start_ns;
    };

    explicit Tracer(bool record) : record_{record} {}

    [[nodiscard]] Scope begin(const char* name, const char* cat);
    // Closes `s` (the innermost open span), attaches `args` — the counts at
    // this boundary — and returns the span's host seconds.
    double end(Scope s, Args args = {});

    [[nodiscard]] bool recording() const noexcept { return record_; }
    [[nodiscard]] std::string chrome_json() const;

private:
    struct Span {
        const char* name;
        const char* cat;
        int parent;
        std::int64_t start_ns;
        std::int64_t dur_ns{0};
        Args args;
    };

    [[nodiscard]] std::int64_t now_ns() const;

    bool record_;
    std::chrono::steady_clock::time_point origin_{std::chrono::steady_clock::now()};
    std::vector<Span> spans_;
    std::vector<int> open_;
};

// Simulated time per run_until step: 902 s runs give 1804 step samples.
inline constexpr TimeNs kStep = milliseconds(500);

// The simulated horizon Experiment::run() covers: the workload window plus
// its 2 s drain.
[[nodiscard]] TimeNs run_horizon(const scenarios::Experiment& exp);

// Experiment::run() split into kStep-long sim::Scheduler::run_until calls.
// Returns the host seconds of each call; each becomes a "sim.step" span.
std::vector<double> run_stepped(scenarios::Experiment& exp, Tracer& tracer);

}  // namespace bb::perfbench

#endif  // BB_PERFBENCH_HARNESS_H
