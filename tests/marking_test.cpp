#include "core/marking.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/report_sink.h"

namespace bb::core {
namespace {

// Build a probe outcome: slot index doubles as send time in slots of 5 ms.
ProbeOutcome probe(SlotIndex slot, int lost, TimeNs owd, int sent = 3) {
    ProbeOutcome po;
    po.slot = slot;
    po.send_time = milliseconds(5) * slot;
    po.packets_sent = sent;
    po.packets_lost = lost;
    po.max_owd = owd;
    po.any_received = lost < sent;
    return po;
}

constexpr TimeNs kBase = milliseconds(50);  // propagation-only delay

TEST(Marking, EmptyInput) {
    CongestionMarker m;
    EXPECT_TRUE(m.mark({}).empty());
}

TEST(Marking, LossAlwaysMarks) {
    CongestionMarker m;
    const auto marks = m.mark({probe(0, 0, kBase), probe(1, 2, kBase + milliseconds(95))});
    ASSERT_EQ(marks.size(), 2u);
    EXPECT_FALSE(marks[0].congested);
    EXPECT_TRUE(marks[1].congested);
    EXPECT_TRUE(marks[1].by_loss);
}

TEST(Marking, OwdMaxEstimatedFromLossyProbes) {
    CongestionMarker m;
    (void)m.mark({probe(0, 0, kBase), probe(1, 1, kBase + milliseconds(100)),
                  probe(2, 1, kBase + milliseconds(90))});
    // Base = 50 ms; estimates 100 and 90 -> mean 95 ms.
    EXPECT_EQ(m.owd_max_estimate(), milliseconds(95));
    EXPECT_EQ(m.base_delay(), kBase);
}

TEST(Marking, DelayRuleMarksNearLossHighDelayProbes) {
    MarkingConfig cfg;
    cfg.tau = milliseconds(40);
    cfg.alpha = 0.1;
    CongestionMarker m{cfg};
    // Loss at slot 10 (t = 50 ms) with OWD_max ~ 100 ms queueing.
    // Slot 6 (t = 30 ms) is within tau and has 95 ms queueing -> congested.
    // Slot 1 (t = 5 ms) is 45 ms from the loss, outside tau -> not congested
    // despite its high delay.
    // Slot 7 (t = 35 ms) has low delay -> not congested.
    const auto marks = m.mark({
        probe(1, 0, kBase + milliseconds(95)),
        probe(6, 0, kBase + milliseconds(95)),
        probe(7, 0, kBase + milliseconds(5)),
        probe(10, 1, kBase + milliseconds(100)),
        probe(30, 0, kBase),  // establishes the base delay
    });
    ASSERT_EQ(marks.size(), 5u);
    EXPECT_FALSE(marks[0].congested) << "outside tau";
    EXPECT_TRUE(marks[1].congested) << "within tau and above threshold";
    EXPECT_TRUE(marks[1].by_delay);
    EXPECT_FALSE(marks[2].congested) << "below threshold";
    EXPECT_TRUE(marks[3].congested);
    EXPECT_FALSE(marks[4].congested);
}

TEST(Marking, ProbesAfterLossAlsoMarked) {
    MarkingConfig cfg;
    cfg.tau = milliseconds(40);
    cfg.alpha = 0.1;
    CongestionMarker m{cfg};
    // Loss at slot 2, delayed probe at slot 6 (20 ms later, within tau).
    const auto marks = m.mark({
        probe(0, 0, kBase),
        probe(2, 1, kBase + milliseconds(100)),
        probe(6, 0, kBase + milliseconds(95)),
    });
    EXPECT_TRUE(marks[2].congested);
}

TEST(Marking, LargerAlphaIsMorePermissive) {
    // 80 ms queueing delay with OWD_max 100 ms: above (1-0.3)*100 = 70 but
    // below (1-0.1)*100 = 90.
    const auto probes = std::vector<ProbeOutcome>{
        probe(0, 0, kBase),
        probe(2, 1, kBase + milliseconds(100)),
        probe(3, 0, kBase + milliseconds(80)),
    };
    MarkingConfig strict;
    strict.tau = milliseconds(40);
    strict.alpha = 0.1;
    CongestionMarker m1{strict};
    EXPECT_FALSE(m1.mark(probes)[2].congested);

    MarkingConfig permissive = strict;
    permissive.alpha = 0.3;
    CongestionMarker m2{permissive};
    EXPECT_TRUE(m2.mark(probes)[2].congested);
}

TEST(Marking, NoLossMeansNoDelayMarks) {
    // Without any loss indication there is no OWD_max estimate and the
    // delay rule never fires, regardless of delay.
    CongestionMarker m;
    const auto marks = m.mark({
        probe(0, 0, kBase),
        probe(1, 0, kBase + milliseconds(99)),
    });
    EXPECT_FALSE(marks[0].congested);
    EXPECT_FALSE(marks[1].congested);
}

TEST(Marking, ConstantClockOffsetDoesNotChangeMarks) {
    const auto mk = [](TimeNs offset) {
        MarkingConfig cfg;
        cfg.tau = milliseconds(40);
        cfg.alpha = 0.1;
        CongestionMarker m{cfg};
        return m.mark({
            probe(0, 0, kBase + offset),
            probe(2, 1, kBase + milliseconds(100) + offset),
            probe(3, 0, kBase + milliseconds(95) + offset),
            probe(9, 0, kBase + milliseconds(2) + offset),
        });
    };
    const auto a = mk(TimeNs::zero());
    const auto b = mk(seconds_i(3));  // receiver clock 3 s ahead
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].congested, b[i].congested) << "probe " << i;
    }
}

TEST(Marking, AllPacketsLostProbeStillMarked) {
    CongestionMarker m;
    const auto marks = m.mark({probe(0, 0, kBase), probe(1, 3, TimeNs::zero())});
    EXPECT_TRUE(marks[1].congested);
    EXPECT_TRUE(marks[1].by_loss);
}

TEST(Marking, OwdWindowBoundsEstimates) {
    MarkingConfig cfg;
    cfg.owd_max_window = 2;
    CongestionMarker m{cfg};
    (void)m.mark({
        probe(0, 0, kBase),
        probe(1, 1, kBase + milliseconds(10)),   // evicted
        probe(2, 1, kBase + milliseconds(100)),
        probe(3, 1, kBase + milliseconds(100)),
    });
    EXPECT_EQ(m.owd_max_estimate(), milliseconds(100));
}

SlotMark slot_mark(SlotIndex slot, bool congested) {
    SlotMark m;
    m.slot = slot;
    m.congested = congested;
    return m;
}

std::vector<ExperimentResult> score(const std::vector<Experiment>& design,
                                    const std::vector<SlotMark>& marks) {
    VectorSink<ExperimentResult> sink;
    score_marks_into(design, marks, sink);
    return sink.take();
}

TEST(MarkScorer, UnmarkedSlotIsUncongested) {
    // Slot 11 carries no mark at all: it must read as 0, not as congestion.
    const auto reports = score({{10, ExperimentKind::basic}, {20, ExperimentKind::extended}},
                               {slot_mark(10, true), slot_mark(20, false),
                                slot_mark(21, true), slot_mark(22, true)});
    ASSERT_EQ(reports.size(), 2u);
    EXPECT_EQ(reports[0].kind, ExperimentKind::basic);
    EXPECT_EQ(reports[0].code, 0b10);
    EXPECT_EQ(reports[1].kind, ExperimentKind::extended);
    EXPECT_EQ(reports[1].code, 0b011);
}

TEST(MarkScorer, LastMarkWinsOnDuplicateSlot) {
    // External traces can mark one slot twice; the later mark decides.
    const std::vector<Experiment> design{{5, ExperimentKind::basic}};
    EXPECT_EQ(score(design, {slot_mark(5, true), slot_mark(6, true), slot_mark(5, false)})[0].code,
              0b01);
    EXPECT_EQ(score(design, {slot_mark(5, false), slot_mark(5, true)})[0].code, 0b10);
}

TEST(MarkScorer, StreamedDesignMatchesVectorForm) {
    const std::vector<Experiment> design{{0, ExperimentKind::basic},
                                         {1, ExperimentKind::extended},
                                         {7, ExperimentKind::basic}};
    const std::vector<SlotMark> marks{slot_mark(1, true), slot_mark(3, true),
                                      slot_mark(8, true)};
    VectorSink<ExperimentResult> streamed;
    MarkScorer scorer{marks, streamed};
    for (const Experiment& e : design) scorer.consume(e);
    const auto batch = score(design, marks);
    ASSERT_EQ(streamed.items().size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(streamed.items()[i].kind, batch[i].kind);
        EXPECT_EQ(streamed.items()[i].code, batch[i].code);
    }
    EXPECT_EQ(batch[0].code, 0b01);
    EXPECT_EQ(batch[1].code, 0b101);
    EXPECT_EQ(batch[2].code, 0b01);
}

}  // namespace
}  // namespace bb::core
