// Spec-driven golden test: the Table 4/5/6-shaped runs and the Figure 9
// sensitivity sweep rebuilt purely from scenario-DSL documents must be
// bit-identical to the hand-wired pipeline (the pinned constants are shared
// with golden_droptail_test.cpp — regenerate there, paste in both).
//
// This is the refactor's load-bearing guarantee: build_experiment(spec) is a
// pure re-expression of the hand-wired wiring, so a config file drives the
// exact same simulation as C++ code did.
//
// Every examples/*.json spec file is additionally parsed and expanded to
// keep the shipped configs loadable.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "scenarios/spec.h"
#include "scenarios/sweep.h"

namespace bb::scenarios {
namespace {

struct GoldenRow {
    double truth_freq{0.0};
    double truth_dur_s{0.0};
    std::uint64_t truth_episodes{0};
    std::uint64_t truth_drops{0};
    double est_freq{0.0};
    double est_dur_s{0.0};
    std::uint64_t probes_sent{0};
    std::uint64_t packets_lost{0};
};

// Pinned by golden_droptail_test.cpp (BB_GOLDEN_PRINT=1 regenerates there).
const GoldenRow kTable4{0.015416666666666667, 0.087589871100000022, 20u, 3638u,
                        0.016409400639688501, 0.11699999999999999, 12183u, 349u};
const GoldenRow kTable5{0.020125000000000001, 0.1146963324, 20u, 4740u,
                        0.021554721179251841, 0.17166666666666669, 12183u, 482u};
const GoldenRow kTable6{0.010125, 0.055873354100000008, 20u, 914u,
                        0.010985954665554165, 0.066666666666666666, 12183u, 111u};
const double kFig9[3] = {0.015479360852197071, 0.017310252996005325, 0.020223035952063914};

GoldenRow run_spec(const std::string& text) {
    const auto r = load_scenario_spec_text(text, "golden-spec");
    EXPECT_TRUE(r.ok) << r.error;
    BuiltExperiment built = build_experiment(r.spec);
    built.experiment->run();

    const auto truth = built.experiment->truth();
    const auto res = built.badabing->analyze(marking_for(r.spec), r.spec.estimator);
    GoldenRow row;
    row.truth_freq = truth.frequency;
    row.truth_dur_s = truth.mean_duration_s;
    row.truth_episodes = truth.episodes;
    row.truth_drops = truth.total_drops;
    row.est_freq = res.frequency.value;
    row.est_dur_s = res.duration_basic.valid
                        ? res.duration_basic.seconds(built.badabing->slot_width())
                        : 0.0;
    row.probes_sent = res.probes_sent;
    row.packets_lost = res.packets_lost;
    return row;
}

void expect_row(const GoldenRow& got, const GoldenRow& want) {
    // Bit-identical, not approximately equal: EXPECT_EQ on the doubles.
    EXPECT_EQ(got.truth_freq, want.truth_freq);
    EXPECT_EQ(got.truth_dur_s, want.truth_dur_s);
    EXPECT_EQ(got.truth_episodes, want.truth_episodes);
    EXPECT_EQ(got.truth_drops, want.truth_drops);
    EXPECT_EQ(got.est_freq, want.est_freq);
    EXPECT_EQ(got.est_dur_s, want.est_dur_s);
    EXPECT_EQ(got.probes_sent, want.probes_sent);
    EXPECT_EQ(got.packets_lost, want.packets_lost);
}

TEST(SpecGolden, Table4CbrUniformFromSpec) {
    expect_row(run_spec(R"({
      "link": {"rate_mbps": 20},
      "traffic": {"kind": "cbr_uniform", "duration_s": 120, "mean_episode_gap_s": 6},
      "probe": {"badabing": {"p": 0.3}},
      "run": {"seed": 42}
    })"),
               kTable4);
}

TEST(SpecGolden, Table5CbrMultiFromSpec) {
    expect_row(run_spec(R"({
      "link": {"rate_mbps": 20},
      "traffic": {"kind": "cbr_multi", "duration_s": 120, "mean_episode_gap_s": 6,
                  "episode_ms_list": [50, 100, 150]},
      "probe": {"badabing": {"p": 0.3}},
      "run": {"seed": 42}
    })"),
               kTable5);
}

TEST(SpecGolden, Table6WebFromSpec) {
    expect_row(run_spec(R"({
      "link": {"rate_mbps": 20},
      "traffic": {"kind": "web", "duration_s": 120, "mean_episode_gap_s": 6,
                  "web_session_rate_per_s": 3.3333333333333335},
      "probe": {"badabing": {"p": 0.3}},
      "truth": {"delay_based": true},
      "run": {"seed": 42}
    })"),
               kTable6);
}

TEST(SpecGolden, Fig9AlphaSweepFromSpecs) {
    // One spec-built run at p = 0.5, re-analyzed under marking configs that
    // each come from a spec's analysis section — pins the DSL's marking path.
    const auto base = load_scenario_spec_text(R"({
      "link": {"rate_mbps": 20},
      "traffic": {"kind": "cbr_uniform", "duration_s": 120, "mean_episode_gap_s": 6},
      "probe": {"badabing": {"p": 0.5}},
      "run": {"seed": 42}
    })",
                                              "fig9-spec");
    ASSERT_TRUE(base.ok) << base.error;
    BuiltExperiment built = build_experiment(base.spec);
    built.experiment->run();

    const char* alphas[3] = {"0.05", "0.1", "0.2"};
    for (int i = 0; i < 3; ++i) {
        const auto m = load_scenario_spec_text(
            std::string{R"({"analysis": {"alpha": )"} + alphas[i] + R"(, "tau_ms": 80}})",
            "fig9-marking");
        ASSERT_TRUE(m.ok) << m.error;
        EXPECT_EQ(built.badabing->analyze(marking_for(m.spec)).frequency.value, kFig9[i])
            << "alpha = " << alphas[i];
    }
}

// --- shipped example specs stay loadable -------------------------------------

#ifdef BB_EXAMPLES_DIR
TEST(SpecGolden, ShippedExampleSpecsParseAndExpand) {
    std::size_t specs = 0;
    for (const auto& entry : std::filesystem::directory_iterator{BB_EXAMPLES_DIR}) {
        if (entry.path().extension() != ".json") continue;
        const std::string name = entry.path().filename().string();
        const auto r = load_sweep_spec_file(entry.path().string());
        ASSERT_TRUE(r.ok) << name << ": " << r.error;
        const auto e = expand_sweep(r.sweep, name);
        ASSERT_TRUE(e.ok) << name << ": " << e.error;
        EXPECT_FALSE(e.cells.empty()) << name;
        ++specs;
    }
    EXPECT_GE(specs, 6u);
}

TEST(SpecGolden, ShippedAblationSweepMatchesHistoricalCellOrder) {
    const auto r = load_sweep_spec_file(std::string{BB_EXAMPLES_DIR} +
                                        "/ablation_aqm_sweep.json");
    ASSERT_TRUE(r.ok) << r.error;
    const auto e = expand_sweep(r.sweep, "ablation_aqm_sweep.json");
    ASSERT_TRUE(e.ok) << e.error;
    ASSERT_EQ(e.cells.size(), 16u);
    // discipline outermost, traffic middle, ge innermost — the bench's
    // historical loop nesting.
    EXPECT_EQ(e.cells[0].spec.testbed.discipline, QueueDiscipline::drop_tail);
    EXPECT_EQ(e.cells[0].spec.workload.kind, TrafficKind::cbr_uniform);
    EXPECT_FALSE(e.cells[0].spec.testbed.ge_enabled);
    EXPECT_TRUE(e.cells[1].spec.testbed.ge_enabled);
    EXPECT_EQ(e.cells[2].spec.workload.kind, TrafficKind::infinite_tcp);
    EXPECT_EQ(e.cells[4].spec.testbed.discipline, QueueDiscipline::red);
    EXPECT_EQ(e.cells[15].spec.testbed.discipline, QueueDiscipline::codel);
    EXPECT_TRUE(e.cells[15].spec.testbed.ge_enabled);
}
#endif  // BB_EXAMPLES_DIR

}  // namespace
}  // namespace bb::scenarios
