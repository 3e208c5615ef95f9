#include "core/estimators.h"

#include <cmath>

#include "util/contract.h"

namespace bb::core {

FrequencyEstimate estimate_frequency(const StateCounts& counts, const EstimatorOptions& opts) {
    FrequencyEstimate est;
    std::uint64_t ones = counts.basic[0b10] + counts.basic[0b11];
    std::uint64_t total = counts.basic_total();
    if (opts.frequency_from_extended) {
        for (std::uint8_t code = 0; code < 8; ++code) {
            if ((code & 0b100) != 0) ones += counts.extended[code];
        }
        total += counts.extended_total();
    }
    BB_CHECK_MSG(ones <= total, "estimator: congested-slot tally exceeds experiment count");
    est.samples = total;
    est.value = total > 0 ? static_cast<double>(ones) / static_cast<double>(total) : 0.0;
    return est;
}

namespace {

// R and S tallies, optionally folding the leading pair of each extended
// experiment into them (§5.5).
struct PairCounts {
    std::uint64_t R{0};
    std::uint64_t S{0};
};

PairCounts pair_counts(const StateCounts& counts, const EstimatorOptions& opts) {
    PairCounts pc;
    pc.R = counts.R();
    pc.S = counts.S();
    if (opts.pairs_from_extended) {
        for (std::uint8_t code = 0; code < 8; ++code) {
            const bool d0 = (code & 0b100) != 0;
            const bool d1 = (code & 0b010) != 0;
            if (d0 || d1) pc.R += counts.extended[code];
            if (d0 != d1) pc.S += counts.extended[code];
        }
    }
    // S counts the {01,10} transitions, a subset of R's {01,10,11}; R < S
    // means the tallies were corrupted and D̂ = 2(R/S−1)+1 would come out
    // plausible but wrong — the paper's worst failure mode.
    BB_CHECK_MSG(pc.R >= pc.S, "estimator: R/S tallies inconsistent (S ⊄ R)");
    return pc;
}

}  // namespace

DurationEstimate estimate_duration_basic(const StateCounts& counts,
                                         const EstimatorOptions& opts) {
    DurationEstimate est;
    const PairCounts pc = pair_counts(counts, opts);
    est.R = pc.R;
    est.S = pc.S;
    if (pc.S == 0) return est;  // no transitions observed: undefined (reported 0)
    BB_DCHECK_MSG(pc.S > 0, "estimator: R/S evaluated with S == 0");
    est.slots = 2.0 * (static_cast<double>(pc.R) / static_cast<double>(pc.S) - 1.0) + 1.0;
    est.valid = true;
    return est;
}

DurationEstimate estimate_duration_improved(const StateCounts& counts,
                                            const EstimatorOptions& opts) {
    DurationEstimate est;
    const PairCounts pc = pair_counts(counts, opts);
    est.R = pc.R;
    est.S = pc.S;
    const std::uint64_t U = counts.U();
    const std::uint64_t V = counts.V();
    BB_DCHECK_MSG(U + V <= counts.extended_total(),
                  "estimator: U/V tallies exceed extended experiment count");
    if (pc.S == 0 || U == 0) return est;
    const double r_hat = static_cast<double>(U) / static_cast<double>(V == 0 ? 1 : V);
    est.r_hat = r_hat;
    est.slots = (2.0 * static_cast<double>(V == 0 ? 1 : V) / static_cast<double>(U)) *
                    (static_cast<double>(pc.R) / static_cast<double>(pc.S) - 1.0) +
                1.0;
    est.valid = true;
    return est;
}

Estimates estimate_all(const StateCounts& counts, const EstimatorOptions& opts) {
    return {estimate_frequency(counts, opts), estimate_duration_basic(counts, opts),
            estimate_duration_improved(counts, opts), validate(counts)};
}

double duration_stddev_guidance(double p, std::int64_t total_slots,
                                double episodes_per_slot) noexcept {
    const double denom = p * static_cast<double>(total_slots) * episodes_per_slot;
    return denom > 0 ? 1.0 / std::sqrt(denom) : 0.0;
}

}  // namespace bb::core
