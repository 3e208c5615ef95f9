#include "harness.h"

#include <algorithm>
#include <cstdio>

#include "util/json.h"

namespace bb::perfbench {

std::int64_t Tracer::now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

Tracer::Scope Tracer::begin(const char* name, const char* cat) {
    const std::int64_t t0 = now_ns();
    if (!record_) return {-1, t0};
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, cat, parent, t0, 0, {}});
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return {id, t0};
}

double Tracer::end(Scope s, Args args) {
    const std::int64_t dur = now_ns() - s.start_ns;
    if (record_ && s.id >= 0) {
        spans_[static_cast<std::size_t>(s.id)].dur_ns = dur;
        spans_[static_cast<std::size_t>(s.id)].args = std::move(args);
        if (!open_.empty() && open_.back() == s.id) open_.pop_back();
    }
    return static_cast<double>(dur) * 1e-9;
}

std::string Tracer::chrome_json() const {
    JsonWriter w;
    w.begin_object().key("displayTimeUnit").value("ms").key("traceEvents").begin_array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        w.begin_object()
            .key("name").value(s.name)
            .key("cat").value(s.cat)
            .key("ph").value("X")
            .key("pid").value_int(1)
            .key("tid").value_int(1)
            .key("ts").value_double(static_cast<double>(s.start_ns) * 1e-3, "%.3f")
            .key("dur").value_double(static_cast<double>(s.dur_ns) * 1e-3, "%.3f")
            .key("args").begin_object()
            .key("span").value_int(static_cast<std::int64_t>(i))
            .key("parent").value_int(s.parent);
        for (const auto& [k, v] : s.args) w.key(k).value_double(v, "%.17g");
        w.end_object().end_object();
    }
    w.end_array().end_object();
    return w.take();
}

TimeNs run_horizon(const scenarios::Experiment& exp) {
    return exp.workload_config().duration + seconds_i(2);
}

std::vector<double> run_stepped(scenarios::Experiment& exp, Tracer& tracer) {
    sim::Scheduler& sched = exp.testbed().sched();
    const TimeNs horizon = run_horizon(exp);
    std::vector<double> step_s;
    for (TimeNs until = kStep;; until += kStep) {
        until = std::min(until, horizon);
        const Tracer::Scope span = tracer.begin("sim.step", "sim");
        sched.run_until(until);
        step_s.push_back(tracer.end(
            span, {{"sim_t_s", until.to_seconds()},
                   {"events", static_cast<double>(sched.executed_events())}}));
        if (until == horizon) break;
    }
    if (auto* qbit = exp.testbed().qbit_observer()) qbit->finalize();
    return step_s;
}

}  // namespace bb::perfbench
