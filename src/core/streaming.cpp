#include "core/streaming.h"

#include "obs/metrics.h"
#include "util/det.h"

namespace bb::core {

StreamingAnalyzer::StreamingAnalyzer(EstimatorOptions opts)
    : opts_{opts}, reports_ctr_{&obs::counter("core.reports_scored")} {}

StreamingAnalyzer::~StreamingAnalyzer() {
    // Per-state tallies are batched here (not per consume) so the streaming
    // hot loop stays within the instrumentation overhead budget.
    if (counts_.basic_total() > 0) {
        static const char* const kBasicNames[4] = {
            "core.reports.b00", "core.reports.b01", "core.reports.b10",
            "core.reports.b11"};
        for (int i = 0; i < 4; ++i) {
            if (counts_.basic[i] > 0) obs::counter(kBasicNames[i]).inc(counts_.basic[i]);
        }
    }
    if (counts_.extended_total() > 0) {
        obs::counter("core.reports.extended").inc(counts_.extended_total());
    }
}

void StreamingAnalyzer::consume(const ExperimentResult& r) {
    det::fold(det::Site::report, 0, static_cast<std::uint64_t>(r.kind),
              static_cast<std::uint64_t>(r.code));
    counts_.add(r);
    reports_ctr_->inc();
}

StreamingAnalyzer::Result StreamingAnalyzer::finalize() const {
    return {estimate_all(counts_, opts_), reports()};
}

}  // namespace bb::core
