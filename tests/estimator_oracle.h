// Test-only reference for StreamingAnalyzer::finalize(): the §5 tallies are
// counted report by report and the paper's closed forms applied to them.
// It deliberately shares no code with src/core/estimators.cpp or
// validation.cpp — no estimate_*, validate() or StateCounts::R/S/U/V — so a
// slip in the production formulas shows up as a mismatch here instead of
// being reproduced by the check.
#ifndef BB_TESTS_ESTIMATOR_ORACLE_H
#define BB_TESTS_ESTIMATOR_ORACLE_H

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/estimators.h"
#include "core/streaming.h"
#include "core/types.h"

namespace bb::core::oracle {

struct Tallies {
    std::uint64_t reports{0};
    std::uint64_t ones{0};     // F̂ numerator: first digit congested
    std::uint64_t samples{0};  // F̂ denominator
    std::uint64_t R{0};        // #{01, 10, 11}
    std::uint64_t S{0};        // #{01, 10}
    std::uint64_t U{0};        // #{011, 110}
    std::uint64_t V{0};        // #{001, 100}
    // §5.4 validation inputs.
    std::uint64_t basic{0}, extended{0};
    std::uint64_t b01{0}, b10{0};
    std::uint64_t e001{0}, e100{0}, e011{0}, e110{0}, violations{0};
};

inline Tallies tally(const std::vector<ExperimentResult>& reports,
                     const EstimatorOptions& opts) {
    Tallies t;
    for (const ExperimentResult& r : reports) {
        ++t.reports;
        if (r.kind == ExperimentKind::basic) {
            const bool first = (r.code & 0b10) != 0;
            const bool second = (r.code & 0b01) != 0;
            ++t.basic;
            ++t.samples;
            if (first) ++t.ones;
            if (first || second) ++t.R;
            if (first != second) ++t.S;
            if (!first && second) ++t.b01;
            if (first && !second) ++t.b10;
            continue;
        }
        const bool a = (r.code & 0b100) != 0;
        const bool b = (r.code & 0b010) != 0;
        const bool c = (r.code & 0b001) != 0;
        ++t.extended;
        if (opts.frequency_from_extended) {
            ++t.samples;
            if (a) ++t.ones;
        }
        if (opts.pairs_from_extended) {
            if (a || b) ++t.R;
            if (a != b) ++t.S;
        }
        if (b && a != c) ++t.U;
        if (!b && a != c) ++t.V;
        if (!a && !b && c) ++t.e001;
        if (a && !b && !c) ++t.e100;
        if (!a && b && c) ++t.e011;
        if (a && b && !c) ++t.e110;
        if (a == c && a != b) ++t.violations;  // 010, 101
    }
    return t;
}

inline double asymmetry(std::uint64_t x, std::uint64_t y) {
    const double total = static_cast<double>(x) + static_cast<double>(y);
    if (total <= 0) return 0.0;
    return std::abs(static_cast<double>(x) - static_cast<double>(y)) / total;
}

// The closed forms of §5.2.2 (F̂, basic D̂), §5.3 (improved D̂) and §5.4.
inline StreamingAnalyzer::Result expected(const Tallies& t) {
    StreamingAnalyzer::Result res;
    res.reports = t.reports;

    res.frequency.samples = t.samples;
    res.frequency.value =
        t.samples > 0 ? static_cast<double>(t.ones) / static_cast<double>(t.samples) : 0.0;

    const double R = static_cast<double>(t.R);
    const double S = static_cast<double>(t.S);
    // D̂ = 2 (R/S − 1) + 1
    res.duration_basic.R = t.R;
    res.duration_basic.S = t.S;
    if (t.S > 0) {
        res.duration_basic.slots = 2.0 * (R / S - 1.0) + 1.0;
        res.duration_basic.valid = true;
    }
    // r̂ = U/V, D̂ = (2V/U)(R/S − 1) + 1; an empty V tally counts as 1.
    res.duration_improved.R = t.R;
    res.duration_improved.S = t.S;
    if (t.S > 0 && t.U > 0) {
        const double U = static_cast<double>(t.U);
        const double V = static_cast<double>(t.V == 0 ? 1 : t.V);
        res.duration_improved.r_hat = U / V;
        res.duration_improved.slots = (2.0 * V / U) * (R / S - 1.0) + 1.0;
        res.duration_improved.valid = true;
    }

    ValidationReport& v = res.validation;
    v.transitions = t.b01 + t.b10;
    v.pair_asymmetry = asymmetry(t.b01, t.b10);
    if (t.extended > 0) {
        const double mb = static_cast<double>(t.basic);
        const double me = static_cast<double>(t.extended);
        const double rates[4] = {
            t.basic > 0 ? static_cast<double>(t.b01) / mb : 0.0,
            t.basic > 0 ? static_cast<double>(t.b10) / mb : 0.0,
            static_cast<double>(t.e001) / me,
            static_cast<double>(t.e100) / me,
        };
        const double lo = *std::min_element(std::begin(rates), std::end(rates));
        const double hi = *std::max_element(std::begin(rates), std::end(rates));
        const double mean = (rates[0] + rates[1] + rates[2] + rates[3]) / 4.0;
        v.single_rate_spread = mean > 0 ? (hi - lo) / mean : 0.0;
        v.ext_pair_asymmetry = asymmetry(t.e011, t.e110);
        v.violations = t.violations;
        v.violation_fraction = static_cast<double>(t.violations) / me;
    }
    return res;
}

inline void expect_same_duration(const DurationEstimate& got, const DurationEstimate& want) {
    EXPECT_EQ(got.slots, want.slots);
    EXPECT_EQ(got.R, want.R);
    EXPECT_EQ(got.S, want.S);
    EXPECT_EQ(got.valid, want.valid);
    ASSERT_EQ(got.r_hat.has_value(), want.r_hat.has_value());
    if (want.r_hat) {
        EXPECT_EQ(*got.r_hat, *want.r_hat);
    }
}

// Feed `reports` through a StreamingAnalyzer and require every field of
// finalize() to equal the oracle exactly (==, not nearly).
inline void expect_analyzer_matches_oracle(const std::vector<ExperimentResult>& reports,
                                           const EstimatorOptions& opts) {
    StreamingAnalyzer analyzer{opts};
    for (const auto& r : reports) analyzer.consume(r);
    const StreamingAnalyzer::Result got = analyzer.finalize();
    const StreamingAnalyzer::Result want = expected(tally(reports, opts));

    EXPECT_EQ(got.reports, want.reports);
    EXPECT_EQ(got.frequency.value, want.frequency.value);
    EXPECT_EQ(got.frequency.samples, want.frequency.samples);
    expect_same_duration(got.duration_basic, want.duration_basic);
    expect_same_duration(got.duration_improved, want.duration_improved);
    EXPECT_EQ(got.validation.pair_asymmetry, want.validation.pair_asymmetry);
    EXPECT_EQ(got.validation.transitions, want.validation.transitions);
    EXPECT_EQ(got.validation.single_rate_spread, want.validation.single_rate_spread);
    EXPECT_EQ(got.validation.ext_pair_asymmetry, want.validation.ext_pair_asymmetry);
    EXPECT_EQ(got.validation.violations, want.validation.violations);
    EXPECT_EQ(got.validation.violation_fraction, want.validation.violation_fraction);
}

// The four combinations of the two EstimatorOptions flags.
inline std::vector<EstimatorOptions> every_option() {
    std::vector<EstimatorOptions> out;
    for (const bool from_ext : {false, true}) {
        for (const bool pairs_ext : {false, true}) {
            EstimatorOptions opts;
            opts.frequency_from_extended = from_ext;
            opts.pairs_from_extended = pairs_ext;
            out.push_back(opts);
        }
    }
    return out;
}

}  // namespace bb::core::oracle

#endif  // BB_TESTS_ESTIMATOR_ORACLE_H
