// Property tests for the streaming pipeline.  StreamingAnalyzer::finalize()
// must agree EXACTLY (==, not nearly) with the test-local closed-form oracle
// (estimator_oracle.h) for random report sequences and adversarial boundary
// patterns under every EstimatorOptions setting; the streaming designer,
// scorer and truth accumulators must reproduce their batch counterparts.
#include <gtest/gtest.h>

#include <vector>

#include "core/estimators.h"
#include "core/probe_process.h"
#include "core/streaming.h"
#include "core/synthetic.h"
#include "estimator_oracle.h"
#include "measure/episodes.h"
#include "util/rng.h"

namespace bb::core {
namespace {

std::vector<ExperimentResult> random_reports(Rng& rng, std::size_t n,
                                             double extended_fraction) {
    std::vector<ExperimentResult> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        ExperimentResult r;
        if (rng.bernoulli(extended_fraction)) {
            r.kind = ExperimentKind::extended;
            r.code = static_cast<std::uint8_t>(rng.uniform_int(0, 7));
        } else {
            r.kind = ExperimentKind::basic;
            r.code = static_cast<std::uint8_t>(rng.uniform_int(0, 3));
        }
        out.push_back(r);
    }
    return out;
}

TEST(StreamingEquivalence, RandomReportSequences) {
    Rng rng{0xFEED};
    for (int trial = 0; trial < 50; ++trial) {
        const std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 400));
        const double ext = rng.uniform(0.0, 1.0);
        const auto reports = random_reports(rng, n, ext);
        for (const EstimatorOptions& opts : oracle::every_option()) {
            SCOPED_TRACE(testing::Message() << "trial " << trial << " from_ext "
                                            << opts.frequency_from_extended << " pairs_ext "
                                            << opts.pairs_from_extended);
            oracle::expect_analyzer_matches_oracle(reports, opts);
        }
    }
}

TEST(StreamingEquivalence, BoundaryPatterns) {
    // Sequences engineered to stress the tallies: a 01 transition as the
    // very last report, a 10 transition as the very first, all-identical
    // runs of every code, and the degenerate denominators (S = 0, U = 0,
    // V = 0, no basic or no extended reports).
    std::vector<std::vector<ExperimentResult>> cases;
    cases.push_back({{ExperimentKind::basic, 0b10},
                     {ExperimentKind::basic, 0b00},
                     {ExperimentKind::basic, 0b01}});
    cases.push_back({{ExperimentKind::basic, 0b10}});
    cases.push_back({{ExperimentKind::basic, 0b01}});
    cases.push_back({});  // empty report sequence
    for (std::uint8_t code = 0; code < 4; ++code) {
        cases.emplace_back(64, ExperimentResult{ExperimentKind::basic, code});
    }
    for (std::uint8_t code = 0; code < 8; ++code) {
        cases.emplace_back(64, ExperimentResult{ExperimentKind::extended, code});
    }
    // U > 0 with V == 0: the improved estimator's V-as-1 branch.
    cases.push_back({{ExperimentKind::basic, 0b01},
                     {ExperimentKind::basic, 0b11},
                     {ExperimentKind::extended, 0b011},
                     {ExperimentKind::extended, 0b110}});
    // Every report is a §5.4 violation.
    cases.push_back({{ExperimentKind::extended, 0b010}, {ExperimentKind::extended, 0b101}});
    for (std::size_t i = 0; i < cases.size(); ++i) {
        for (const EstimatorOptions& opts : oracle::every_option()) {
            SCOPED_TRACE(testing::Message() << "case " << i << " from_ext "
                                            << opts.frequency_from_extended << " pairs_ext "
                                            << opts.pairs_from_extended);
            oracle::expect_analyzer_matches_oracle(cases[i], opts);
        }
    }
}

TEST(StreamingEquivalence, ScorerPipelineMatchesBatchPipeline) {
    // Same seed -> the streaming designer/scorer must emit exactly the report
    // stream the batch design + score path produces, for random congestion
    // series and configs.
    Rng meta{0xABCD};
    for (int trial = 0; trial < 20; ++trial) {
        ProbeProcessConfig cfg;
        cfg.p = meta.uniform(0.05, 1.0);
        cfg.improved = meta.bernoulli(0.5);
        cfg.extended_fraction = meta.uniform(0.0, 1.0);
        const SlotIndex slots = meta.uniform_int(1, 800);
        const std::uint64_t seed = static_cast<std::uint64_t>(meta.uniform_int(1, 1 << 30));

        std::vector<bool> congested(static_cast<std::size_t>(slots));
        const double rho = meta.uniform(0.0, 1.0);
        for (auto&& c : congested) c = meta.bernoulli(rho);

        Rng batch_rng{seed};
        const ProbeDesign design = design_probe_process(batch_rng, slots, cfg);
        const auto batch = score_experiments(design.experiments, [&](SlotIndex s) {
            return congested[static_cast<std::size_t>(s)];
        });

        VectorSink<ExperimentResult> stream;
        StreamingExperimentScorer scorer{Rng{seed}, cfg, stream};
        for (SlotIndex s = 0; s < slots; ++s) {
            scorer.step(congested[static_cast<std::size_t>(s)]);
        }

        ASSERT_EQ(stream.items().size(), batch.size()) << "trial " << trial;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            ASSERT_EQ(stream.items()[i].kind, batch[i].kind) << "trial " << trial;
            ASSERT_EQ(stream.items()[i].code, batch[i].code) << "trial " << trial;
        }
    }
}

TEST(StreamingEquivalence, SyntheticGeneratorMatchesBatchForRandomParams) {
    Rng meta{0x90125};
    for (int trial = 0; trial < 20; ++trial) {
        const double mean_on = meta.uniform(1.0, 40.0);
        const double mean_off = meta.uniform(1.0, 200.0);
        const SlotIndex slots = meta.uniform_int(1, 2000);
        const std::uint64_t seed = static_cast<std::uint64_t>(meta.uniform_int(1, 1 << 30));

        Rng batch_rng{seed};
        const std::vector<bool> batch =
            synth_congestion_series(batch_rng, slots, mean_on, mean_off);
        SyntheticSeriesGen gen{Rng{seed}, mean_on, mean_off};
        SeriesTruthAccumulator acc;
        for (SlotIndex s = 0; s < slots; ++s) {
            const bool c = gen.next();
            ASSERT_EQ(c, batch[static_cast<std::size_t>(s)]) << "trial " << trial;
            acc.consume(c);
        }
        const SeriesTruth bt = series_truth(batch);
        const SeriesTruth st = acc.finalize();
        EXPECT_EQ(st.frequency, bt.frequency);
        EXPECT_EQ(st.mean_duration_slots, bt.mean_duration_slots);
        EXPECT_EQ(st.episodes, bt.episodes);
    }
}

TEST(StreamingEquivalence, SyntheticPipelineMatchesBatchEstimates) {
    // The whole O(1)-memory pipeline, SyntheticSeriesGen ->
    // StreamingExperimentScorer -> StreamingAnalyzer, against the batch path
    // (series, design and reports materialized, then tallied and estimated):
    // the same number of reports and bit-identical estimates.
    struct Case {
        SlotIndex slots;
        double p;
        bool improved;
        double mean_on;
        double mean_off;
        std::uint64_t series_seed;
        std::uint64_t design_seed;
    };
    const Case cases[] = {
        {1'000'000, 0.3, true, 20.0, 180.0, 0x5EED5, 0xBADA0},
        {100'000, 0.1, false, 14.0, 986.0, 7, 11},
        {100'000, 0.9, true, 3.0, 30.0, 3, 5},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(testing::Message() << c.slots << " slots, p " << c.p);
        ProbeProcessConfig cfg;
        cfg.p = c.p;
        cfg.improved = c.improved;

        Rng series_rng{c.series_seed};
        const std::vector<bool> series =
            synth_congestion_series(series_rng, c.slots, c.mean_on, c.mean_off);
        Rng design_rng{c.design_seed};
        const ProbeDesign design = design_probe_process(design_rng, c.slots, cfg);
        const auto reports = score_experiments(design.experiments, [&series](SlotIndex s) {
            return series[static_cast<std::size_t>(s)];
        });
        StateCounts counts;
        for (const auto& r : reports) counts.add(r);
        const Estimates batch = estimate_all(counts);

        SyntheticSeriesGen gen{Rng{c.series_seed}, c.mean_on, c.mean_off};
        StreamingAnalyzer analyzer;
        StreamingExperimentScorer scorer{Rng{c.design_seed}, cfg, analyzer};
        for (SlotIndex s = 0; s < c.slots; ++s) scorer.step(gen.next());
        const StreamingAnalyzer::Result stream = analyzer.finalize();

        ASSERT_GT(reports.size(), 0u);
        EXPECT_EQ(stream.reports, reports.size());
        EXPECT_EQ(stream.frequency.value, batch.frequency.value);
        EXPECT_EQ(stream.frequency.samples, batch.frequency.samples);
        EXPECT_EQ(stream.duration_basic.slots, batch.duration_basic.slots);
        EXPECT_EQ(stream.duration_basic.valid, batch.duration_basic.valid);
        EXPECT_EQ(stream.duration_improved.slots, batch.duration_improved.slots);
        EXPECT_EQ(stream.duration_improved.valid, batch.duration_improved.valid);
    }
}

}  // namespace
}  // namespace bb::core

namespace bb::measure {
namespace {

TEST(StreamingEquivalence, EpisodeAccumulatorMatchesBatchForRandomDrops) {
    Rng meta{0x7777};
    for (int trial = 0; trial < 30; ++trial) {
        const TimeNs gap = milliseconds(meta.uniform_int(10, 300));
        const TimeNs slot = milliseconds(meta.uniform_int(1, 20));
        const TimeNs window_end = seconds_i(meta.uniform_int(1, 60));

        std::vector<TimeNs> drops;
        TimeNs t = milliseconds(meta.uniform_int(0, 500));
        while (t < window_end + seconds_i(3)) {
            drops.push_back(t);
            t = t + milliseconds(meta.uniform_int(1, 600));
        }
        if (meta.bernoulli(0.1)) drops.clear();  // occasionally empty

        EpisodeAccumulator acc{{gap, slot, TimeNs::zero(), window_end}};
        for (const TimeNs at : drops) acc.add_drop(at);

        const TruthSummary batch =
            summarize_truth(extract_episodes(drops, gap), slot, TimeNs::zero(), window_end);
        const TruthSummary stream = acc.finalize();
        EXPECT_EQ(stream.frequency, batch.frequency) << "trial " << trial;
        EXPECT_EQ(stream.mean_duration_s, batch.mean_duration_s) << "trial " << trial;
        EXPECT_EQ(stream.sd_duration_s, batch.sd_duration_s) << "trial " << trial;
        EXPECT_EQ(stream.episodes, batch.episodes) << "trial " << trial;
        EXPECT_EQ(stream.total_drops, batch.total_drops) << "trial " << trial;
    }
}

}  // namespace
}  // namespace bb::measure
