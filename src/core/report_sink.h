// Streaming delivery of measurement records (the observer shape of the
// pipeline): producers push experiment reports / probe outcomes into a
// Sink<T> as they complete instead of materializing per-run vectors, so a
// receiver can run for an unbounded number of slots in constant memory.
// The §5 estimators are pure functions of O(1) tallies, which makes every
// downstream consumer (core/streaming.h) expressible as a sink.
#ifndef BB_CORE_REPORT_SINK_H
#define BB_CORE_REPORT_SINK_H

#include <utility>
#include <vector>

#include "core/types.h"

namespace bb::core {

template <typename T>
class Sink {
public:
    virtual ~Sink() = default;
    virtual void consume(const T& value) = 0;
};

// The two record streams the measurement pipeline produces: scored
// experiment reports (estimator input) and raw per-probe outcomes.
using ReportSink = Sink<ExperimentResult>;
using OutcomeSink = Sink<ProbeOutcome>;

// Thin adapter that materializes a stream back into a vector, for callers
// (and tests) that still want the batch shape.
template <typename T>
class VectorSink final : public Sink<T> {
public:
    void consume(const T& value) override { items_.push_back(value); }

    void reserve(std::size_t n) { items_.reserve(n); }
    [[nodiscard]] const std::vector<T>& items() const noexcept { return items_; }
    [[nodiscard]] std::vector<T> take() noexcept { return std::move(items_); }

private:
    std::vector<T> items_;
};

// Wrap a callable as a sink (adapter for lambdas at pipeline edges).
template <typename T, typename Fn>
class FnSink final : public Sink<T> {
public:
    explicit FnSink(Fn fn) : fn_{std::move(fn)} {}
    void consume(const T& value) override { fn_(value); }

private:
    Fn fn_;
};

template <typename T, typename Fn>
[[nodiscard]] FnSink<T, Fn> make_fn_sink(Fn fn) {
    return FnSink<T, Fn>{std::move(fn)};
}

}  // namespace bb::core

#endif  // BB_CORE_REPORT_SINK_H
