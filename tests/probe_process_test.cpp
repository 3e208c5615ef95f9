#include "core/probe_process.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <unordered_set>
#include <vector>

namespace bb::core {
namespace {

TEST(ProbeProcess, RejectsBadParameters) {
    Rng rng{1};
    ProbeProcessConfig cfg;
    cfg.p = 0.0;
    EXPECT_THROW(design_probe_process(rng, 100, cfg), std::invalid_argument);
    cfg.p = 1.5;
    EXPECT_THROW(design_probe_process(rng, 100, cfg), std::invalid_argument);
    cfg.p = 0.5;
    cfg.extended_fraction = -0.1;
    EXPECT_THROW(design_probe_process(rng, 100, cfg), std::invalid_argument);
}

TEST(ProbeProcess, ExperimentRateMatchesP) {
    Rng rng{2};
    ProbeProcessConfig cfg;
    cfg.p = 0.3;
    const auto d = design_probe_process(rng, 100'000, cfg);
    EXPECT_NEAR(static_cast<double>(d.experiments.size()) / 100'000.0, 0.3, 0.01);
}

TEST(ProbeProcess, BasicDesignHasOnlyBasicExperiments) {
    Rng rng{3};
    ProbeProcessConfig cfg;
    cfg.p = 0.5;
    cfg.improved = false;
    const auto d = design_probe_process(rng, 10'000, cfg);
    EXPECT_TRUE(std::all_of(d.experiments.begin(), d.experiments.end(), [](const Experiment& e) {
        return e.kind == ExperimentKind::basic;
    }));
}

TEST(ProbeProcess, ImprovedDesignMixesKindsEvenly) {
    Rng rng{4};
    ProbeProcessConfig cfg;
    cfg.p = 0.5;
    cfg.improved = true;
    const auto d = design_probe_process(rng, 100'000, cfg);
    const auto extended =
        std::count_if(d.experiments.begin(), d.experiments.end(), [](const Experiment& e) {
            return e.kind == ExperimentKind::extended;
        });
    EXPECT_NEAR(static_cast<double>(extended) / static_cast<double>(d.experiments.size()), 0.5,
                0.02);
}

TEST(ProbeProcess, ProbeSlotsAreSortedUniqueAndCoverExperiments) {
    Rng rng{5};
    ProbeProcessConfig cfg;
    cfg.p = 0.7;
    cfg.improved = true;
    const auto d = design_probe_process(rng, 5'000, cfg);
    EXPECT_TRUE(std::is_sorted(d.probe_slots.begin(), d.probe_slots.end()));
    EXPECT_EQ(std::adjacent_find(d.probe_slots.begin(), d.probe_slots.end()),
              d.probe_slots.end());
    std::unordered_set<SlotIndex> slots(d.probe_slots.begin(), d.probe_slots.end());
    for (const auto& e : d.experiments) {
        for (int k = 0; k < e.probes(); ++k) {
            EXPECT_TRUE(slots.count(e.start_slot + k)) << "slot " << e.start_slot + k;
        }
    }
}

TEST(ProbeProcess, ExperimentsStayInsideWindow) {
    Rng rng{6};
    ProbeProcessConfig cfg;
    cfg.p = 1.0;  // experiment at every slot
    cfg.improved = true;
    const SlotIndex n = 100;
    const auto d = design_probe_process(rng, n, cfg);
    for (const auto& e : d.experiments) {
        EXPECT_LE(e.start_slot + e.probes(), n);
    }
    EXPECT_FALSE(d.probe_slots.empty());
    EXPECT_LT(d.probe_slots.back(), n);
}

TEST(ProbeProcess, FullRateProbesEverySlot) {
    Rng rng{7};
    ProbeProcessConfig cfg;
    cfg.p = 1.0;
    const SlotIndex n = 50;
    const auto d = design_probe_process(rng, n, cfg);
    // With p = 1 and basic experiments, every slot 0..n-1 is probed.
    EXPECT_EQ(static_cast<SlotIndex>(d.probe_slots.size()), n);
}

TEST(ProbeProcess, ExpectedLoadFormula) {
    ProbeProcessConfig cfg;
    cfg.p = 0.3;
    EXPECT_DOUBLE_EQ(expected_probe_slot_fraction(cfg), 0.6);
    cfg.improved = true;
    cfg.extended_fraction = 0.5;
    EXPECT_DOUBLE_EQ(expected_probe_slot_fraction(cfg), 0.3 * 2.5);
}

// --- The one per-slot draw every probe process makes. ---

TEST(ProbeProcessValidate, AcceptsTheClosedEndsAndRejectsTheRest) {
    ProbeProcessConfig cfg;
    cfg.p = 1.0;
    cfg.extended_fraction = 0.0;
    EXPECT_NO_THROW(validate_probe_process(cfg));
    cfg.extended_fraction = 1.0;
    EXPECT_NO_THROW(validate_probe_process(cfg));
    cfg.p = 0.0;
    EXPECT_THROW(validate_probe_process(cfg), std::invalid_argument);
    cfg.p = -0.2;
    EXPECT_THROW(validate_probe_process(cfg), std::invalid_argument);
    cfg.p = 1.0 + 1e-12;
    EXPECT_THROW(validate_probe_process(cfg), std::invalid_argument);
    cfg.p = 0.5;
    cfg.extended_fraction = 1.5;
    EXPECT_THROW(validate_probe_process(cfg), std::invalid_argument);
}

TEST(DrawExperimentStart, DesignerIsOneDrawPerSlot) {
    // design_probe_process is exactly draw_experiment_start at each slot,
    // minus the experiments that would run past the window.
    ProbeProcessConfig cfg;
    cfg.p = 0.35;
    cfg.improved = true;
    constexpr SlotIndex n = 5'000;
    Rng design_rng{17};
    Rng draw_rng{17};
    const auto d = design_probe_process(design_rng, n, cfg);
    std::vector<Experiment> drawn;
    for (SlotIndex i = 0; i < n; ++i) {
        if (const auto kind = draw_experiment_start(draw_rng, cfg)) {
            const Experiment e{i, *kind};
            if (i + e.probes() <= n) drawn.push_back(e);
        }
    }
    ASSERT_EQ(d.experiments.size(), drawn.size());
    for (std::size_t i = 0; i < drawn.size(); ++i) {
        EXPECT_EQ(d.experiments[i].start_slot, drawn[i].start_slot);
        EXPECT_EQ(d.experiments[i].kind, drawn[i].kind);
    }
    // Both consumed the same number of draws.
    EXPECT_EQ(design_rng.next_u64(), draw_rng.next_u64());
}

TEST(DrawExperimentStart, ExtendedCoinIsTossedOnlyOnAnImprovedStart) {
    // A miss, or a basic-design start, consumes one uniform; an improved
    // start consumes a second one for the basic-vs-extended coin.
    for (const bool improved : {false, true}) {
        ProbeProcessConfig cfg;
        cfg.p = 0.5;
        cfg.improved = improved;
        Rng rng{29};
        Rng mirror{29};
        for (int slot = 0; slot < 2'000; ++slot) {
            const bool starts = mirror.bernoulli(cfg.p);
            bool extended = false;
            if (starts && improved) extended = mirror.bernoulli(cfg.extended_fraction);
            const auto kind = draw_experiment_start(rng, cfg);
            ASSERT_EQ(kind.has_value(), starts) << "slot " << slot;
            if (kind) {
                EXPECT_EQ(*kind, extended ? ExperimentKind::extended : ExperimentKind::basic);
            }
        }
        EXPECT_EQ(rng.next_u64(), mirror.next_u64());
    }
}

TEST(DrawExperimentStart, ExtendedFractionEndsFixTheKind) {
    ProbeProcessConfig cfg;
    cfg.p = 1.0;
    cfg.improved = true;
    Rng rng{31};
    cfg.extended_fraction = 0.0;
    for (int i = 0; i < 500; ++i) {
        EXPECT_EQ(draw_experiment_start(rng, cfg), ExperimentKind::basic);
    }
    cfg.extended_fraction = 1.0;
    for (int i = 0; i < 500; ++i) {
        EXPECT_EQ(draw_experiment_start(rng, cfg), ExperimentKind::extended);
    }
}

TEST(ScoreExperiments, EncodesMarksInOrder) {
    std::vector<Experiment> exps{{10, ExperimentKind::basic}, {20, ExperimentKind::extended}};
    const auto results = score_experiments(exps, [](SlotIndex s) { return s == 11 || s == 20; });
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].code, 0b01);   // slot 10 clear, 11 congested
    EXPECT_EQ(results[1].code, 0b100);  // slot 20 congested, 21/22 clear
}

TEST(ScoreExperiments, DeterministicGivenDesignAndMarks) {
    Rng rng1{8};
    Rng rng2{8};
    ProbeProcessConfig cfg;
    cfg.p = 0.4;
    const auto d1 = design_probe_process(rng1, 10'000, cfg);
    const auto d2 = design_probe_process(rng2, 10'000, cfg);
    ASSERT_EQ(d1.experiments.size(), d2.experiments.size());
    for (std::size_t i = 0; i < d1.experiments.size(); ++i) {
        EXPECT_EQ(d1.experiments[i].start_slot, d2.experiments[i].start_slot);
    }
}

}  // namespace
}  // namespace bb::core
