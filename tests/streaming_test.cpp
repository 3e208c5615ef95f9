// Unit tests for the streaming measurement pipeline: sink adapters, the
// streaming analyzer (checked against the closed-form oracle in
// estimator_oracle.h), the streaming experiment scorer, the synthetic series
// generator, and the online episode/zing accumulators.
#include "core/streaming.h"

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <vector>

#include "core/probe_process.h"
#include "core/report_sink.h"
#include "core/synthetic.h"
#include "estimator_oracle.h"
#include "measure/episodes.h"
#include "probes/zing.h"
#include "util/rng.h"

namespace bb::core {
namespace {

std::vector<ExperimentResult> crafted_reports() {
    return {
        {ExperimentKind::basic, 0b00},    {ExperimentKind::basic, 0b01},
        {ExperimentKind::basic, 0b10},    {ExperimentKind::basic, 0b11},
        {ExperimentKind::extended, 0b000}, {ExperimentKind::extended, 0b001},
        {ExperimentKind::extended, 0b100}, {ExperimentKind::extended, 0b011},
        {ExperimentKind::extended, 0b110}, {ExperimentKind::extended, 0b111},
    };
}

TEST(Sinks, VectorSinkCollectsInOrder) {
    VectorSink<ExperimentResult> sink;
    for (const auto& r : crafted_reports()) sink.consume(r);
    ASSERT_EQ(sink.items().size(), 10u);
    EXPECT_EQ(sink.items()[3].code, 0b11);
    const auto taken = VectorSink<ExperimentResult>{sink}.take();
    EXPECT_EQ(taken.size(), 10u);
}

TEST(Sinks, FnSinkInvokesCallable) {
    int basic = 0;
    auto sink = make_fn_sink<ExperimentResult>([&basic](const ExperimentResult& r) {
        if (r.kind == ExperimentKind::basic) ++basic;
    });
    for (const auto& r : crafted_reports()) sink.consume(r);
    EXPECT_EQ(basic, 4);
}

TEST(StreamingAnalyzer, MatchesOracleUnderEveryOption) {
    for (const EstimatorOptions& opts : oracle::every_option()) {
        oracle::expect_analyzer_matches_oracle(crafted_reports(), opts);
    }
}

TEST(StreamingAnalyzer, CraftedReportsGiveHandComputedEstimates) {
    // Default options: F̂ counts the lead digit of extended reports too.
    // ones = {10, 11} + {100, 110, 111} = 5 of 10; R = 3, S = 2 -> basic
    // D̂ = 2 (3/2 - 1) + 1 = 2; U = V = 2 -> r̂ = 1, improved D̂ = 2.
    StreamingAnalyzer analyzer;
    for (const auto& r : crafted_reports()) analyzer.consume(r);
    const auto res = analyzer.finalize();
    EXPECT_EQ(res.reports, 10u);
    EXPECT_EQ(res.frequency.value, 0.5);
    EXPECT_EQ(res.frequency.samples, 10u);
    EXPECT_EQ(res.duration_basic.slots, 2.0);
    EXPECT_EQ(res.duration_improved.slots, 2.0);
    EXPECT_EQ(res.duration_improved.r_hat.value_or(-1.0), 1.0);
    EXPECT_EQ(res.validation.transitions, 2u);
    EXPECT_EQ(res.validation.pair_asymmetry, 0.0);
    EXPECT_EQ(res.validation.violations, 0u);
}

TEST(StreamingAnalyzer, CountsAndReportsMatchManualTally) {
    StreamingAnalyzer analyzer;
    for (const auto& r : crafted_reports()) analyzer.consume(r);
    const StateCounts& c = analyzer.counts();
    EXPECT_EQ(c.basic, (std::array<std::uint64_t, 4>{1, 1, 1, 1}));
    EXPECT_EQ(c.extended, (std::array<std::uint64_t, 8>{1, 1, 0, 1, 1, 0, 1, 1}));
    EXPECT_EQ(analyzer.reports(), 10u);
}

TEST(StreamingAnalyzer, EmptySequenceIsInvalidNotNan) {
    const StreamingAnalyzer analyzer;
    const auto res = analyzer.finalize();
    EXPECT_EQ(res.reports, 0u);
    EXPECT_FALSE(res.frequency.valid());
    EXPECT_EQ(res.frequency.value, 0.0);
    EXPECT_FALSE(res.duration_basic.valid);
    EXPECT_FALSE(res.duration_improved.valid);
    EXPECT_TRUE(res.validation.acceptable());
}

TEST(StreamingAnalyzer, AllZeroReportsGiveZeroFrequency) {
    StreamingAnalyzer analyzer;
    for (int i = 0; i < 100; ++i) analyzer.consume({ExperimentKind::basic, 0b00});
    const auto res = analyzer.finalize();
    EXPECT_EQ(res.frequency.value, 0.0);
    EXPECT_EQ(res.frequency.samples, 100u);
    EXPECT_FALSE(res.duration_basic.valid);  // S == 0
}

TEST(StreamingScorer, MatchesBatchDesignAndScoring) {
    for (const bool improved : {false, true}) {
        ProbeProcessConfig cfg;
        cfg.p = 0.4;
        cfg.improved = improved;
        const SlotIndex slots = 500;
        std::vector<bool> congested(slots);
        Rng mark_rng{99};
        for (auto&& c : congested) c = mark_rng.bernoulli(0.2);

        Rng batch_rng{1234};
        const ProbeDesign design = design_probe_process(batch_rng, slots, cfg);
        const auto batch = score_experiments(design.experiments, [&](SlotIndex s) {
            return congested[static_cast<std::size_t>(s)];
        });

        VectorSink<ExperimentResult> stream;
        StreamingExperimentScorer scorer{Rng{1234}, cfg, stream};
        for (SlotIndex s = 0; s < slots; ++s) {
            scorer.step(congested[static_cast<std::size_t>(s)]);
        }

        ASSERT_EQ(stream.items().size(), batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
            EXPECT_EQ(stream.items()[i].kind, batch[i].kind);
            EXPECT_EQ(stream.items()[i].code, batch[i].code);
        }
        EXPECT_EQ(scorer.experiments_completed(), batch.size());
        EXPECT_EQ(scorer.slots_seen(), slots);
    }
}

TEST(StreamingScorer, PendingExperimentsDroppedAtEndOfStream) {
    // With p = 1 every slot starts a basic experiment; after N steps the
    // experiment started at the last slot is still pending and must not have
    // been reported.
    ProbeProcessConfig cfg;
    cfg.p = 1.0;
    VectorSink<ExperimentResult> sink;
    StreamingExperimentScorer scorer{Rng{7}, cfg, sink};
    for (int s = 0; s < 10; ++s) scorer.step(false);
    EXPECT_EQ(scorer.experiments_started(), 10u);
    EXPECT_EQ(scorer.experiments_completed(), 9u);
    EXPECT_EQ(scorer.experiments_pending(), 1);
    EXPECT_EQ(sink.items().size(), 9u);
}

TEST(StreamingScorer, RejectsInvalidConfig) {
    VectorSink<ExperimentResult> sink;
    ProbeProcessConfig bad;
    bad.p = 0.0;
    EXPECT_THROW((StreamingExperimentScorer{Rng{1}, bad, sink}), std::invalid_argument);
    bad.p = 0.5;
    bad.extended_fraction = 1.5;
    EXPECT_THROW((StreamingExperimentScorer{Rng{1}, bad, sink}), std::invalid_argument);
}

TEST(SyntheticStreaming, GeneratorPrefixMatchesBatchSeries) {
    const SlotIndex slots = 4000;
    Rng batch_rng{42};
    const std::vector<bool> batch = synth_congestion_series(batch_rng, slots, 12.0, 48.0);
    SyntheticSeriesGen gen{Rng{42}, 12.0, 48.0};
    for (SlotIndex s = 0; s < slots; ++s) {
        ASSERT_EQ(gen.next(), batch[static_cast<std::size_t>(s)]) << "slot " << s;
    }
}

TEST(SyntheticStreaming, TruthAccumulatorMatchesBatchTruth) {
    Rng rng{11};
    const std::vector<bool> series = synth_congestion_series(rng, 3000, 8.0, 32.0);
    SeriesTruthAccumulator acc;
    for (const bool c : series) acc.consume(c);
    const SeriesTruth batch = series_truth(series);
    const SeriesTruth stream = acc.finalize();
    EXPECT_EQ(stream.frequency, batch.frequency);
    EXPECT_EQ(stream.mean_duration_slots, batch.mean_duration_slots);
    EXPECT_EQ(stream.episodes, batch.episodes);
    EXPECT_EQ(acc.slots(), 3000u);
}

TEST(SyntheticStreaming, FinalizeMidRunIsPrefixTruth) {
    // finalize() must close the open run without disturbing further consume()s.
    SeriesTruthAccumulator acc;
    const std::vector<bool> series{true, true, false, true};
    acc.consume(series[0]);
    acc.consume(series[1]);
    const SeriesTruth mid = acc.finalize();
    EXPECT_EQ(mid.episodes, 1u);
    EXPECT_EQ(mid.frequency, 1.0);
    acc.consume(series[2]);
    acc.consume(series[3]);
    const SeriesTruth full = acc.finalize();
    EXPECT_EQ(full.episodes, 2u);
    EXPECT_EQ(full.frequency, series_truth(series).frequency);
}

}  // namespace
}  // namespace bb::core

namespace bb::measure {
namespace {

TEST(EpisodeAccumulator, EmptyAndSingleDropEdgeCases) {
    EpisodeAccumulator::Config cfg;
    cfg.gap = milliseconds(100);
    cfg.slot_width = milliseconds(5);
    cfg.window_begin = TimeNs::zero();
    cfg.window_end = seconds_i(10);

    EpisodeAccumulator empty{cfg};
    const TruthSummary none = empty.finalize();
    EXPECT_EQ(none.episodes, 0u);
    EXPECT_EQ(none.frequency, 0.0);

    EpisodeAccumulator one{cfg};
    one.add_drop(seconds_i(1));
    const TruthSummary single = one.finalize();
    EXPECT_EQ(single.episodes, 1u);
    EXPECT_EQ(single.total_drops, 1u);
    EXPECT_EQ(one.drops_seen(), 1u);
}

TEST(EpisodeAccumulator, MatchesBatchExtractAndSummarize) {
    const TimeNs gap = milliseconds(100);
    const TimeNs slot = milliseconds(5);
    const TimeNs window_end = seconds_i(30);

    std::vector<TimeNs> drops;
    Rng rng{2024};
    TimeNs t = milliseconds(50);
    while (t < window_end + seconds_i(2)) {  // some drops past the window
        drops.push_back(t);
        // Mix of intra-episode spacings and episode-terminating gaps.
        t = t + (rng.bernoulli(0.7) ? milliseconds(20) : milliseconds(400));
    }

    EpisodeAccumulator::Config cfg{gap, slot, TimeNs::zero(), window_end};
    EpisodeAccumulator acc{cfg};
    for (const TimeNs at : drops) acc.add_drop(at);

    const TruthSummary batch =
        summarize_truth(extract_episodes(drops, gap), slot, TimeNs::zero(), window_end);
    const TruthSummary stream = acc.finalize();
    EXPECT_EQ(stream.frequency, batch.frequency);
    EXPECT_EQ(stream.mean_duration_s, batch.mean_duration_s);
    EXPECT_EQ(stream.sd_duration_s, batch.sd_duration_s);
    EXPECT_EQ(stream.episodes, batch.episodes);
    EXPECT_EQ(stream.total_drops, batch.total_drops);
}

TEST(EpisodeAccumulator, DegenerateWindowYieldsEmptySummary) {
    EpisodeAccumulator::Config cfg;
    cfg.window_begin = seconds_i(5);
    cfg.window_end = seconds_i(5);  // empty window
    EpisodeAccumulator acc{cfg};
    acc.add_drop(seconds_i(1));
    const TruthSummary s = acc.finalize();
    EXPECT_EQ(s.episodes, 0u);
    EXPECT_EQ(s.frequency, 0.0);
}

}  // namespace
}  // namespace bb::measure

namespace bb::probes {
namespace {

core::ProbeOutcome outcome_at(std::int64_t idx, TimeNs at, bool received) {
    core::ProbeOutcome po;
    po.slot = idx;
    po.send_time = at;
    po.packets_sent = 1;
    po.packets_lost = received ? 0 : 1;
    po.any_received = received;
    return po;
}

TEST(ZingRunAccumulator, FoldsRunsLikeBatchResult) {
    // received pattern: 1 0 0 1 1 0 — one closed 2-run, one open 1-run.
    const std::vector<bool> received{true, false, false, true, true, false};
    ZingRunAccumulator acc;
    for (std::size_t i = 0; i < received.size(); ++i) {
        acc.consume(outcome_at(static_cast<std::int64_t>(i),
                               milliseconds(100 * (static_cast<std::int64_t>(i) + 1)),
                               received[i]));
    }
    const ZingResult res = acc.finalize();
    EXPECT_EQ(res.sent, 6u);
    EXPECT_EQ(res.received, 3u);
    EXPECT_EQ(res.lost, 3u);
    EXPECT_EQ(res.loss_runs, 2u);
    EXPECT_EQ(res.max_run_length, 2u);
    EXPECT_DOUBLE_EQ(res.loss_frequency, 0.5);
    // First run spans probes 1..2 (200 ms -> 300 ms): 0.1 s; open run is a
    // single loss: 0 s.
    EXPECT_DOUBLE_EQ(res.mean_duration_s, 0.05);
}

TEST(ZingRunAccumulator, EmptyAndAllReceivedSequences) {
    const ZingResult empty = ZingRunAccumulator{}.finalize();
    EXPECT_EQ(empty.sent, 0u);
    EXPECT_EQ(empty.loss_frequency, 0.0);

    ZingRunAccumulator acc;
    for (int i = 0; i < 5; ++i) {
        acc.consume(outcome_at(i, milliseconds(10 * (i + 1)), true));
    }
    const ZingResult all = acc.finalize();
    EXPECT_EQ(all.lost, 0u);
    EXPECT_EQ(all.loss_runs, 0u);
    EXPECT_EQ(all.loss_frequency, 0.0);
}

}  // namespace
}  // namespace bb::probes
