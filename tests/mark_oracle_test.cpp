// The flat records re-analysis walks, checked against the std::map oracles in
// tests/mark_oracle.h on fixed-seed random inputs:
//   - MarkScorer: marks unsorted or sorted, slots marked twice (the last mark
//     wins) or not at all, designs in slot order (the cursor path, including
//     the step back of overlapping experiments) and shuffled (far jumps);
//   - ProbeTrain: arrivals out of order, several per key, partly lost,
//     CE-marked, and mixed with packets it must refuse, read back through
//     outcome() and through one OutcomeWalk over sent and unsent keys.
#include "mark_oracle.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/marking.h"
#include "core/report_sink.h"
#include "probes/probe_train.h"
#include "sim/scheduler.h"
#include "util/rng.h"

namespace bb {
namespace {

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
    for (std::size_t i = v.size(); i > 1; --i) {
        const auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
        std::swap(v[i - 1], v[j]);
    }
}

// Marks over slots [0, slots): about a fifth of the slots unmarked, a fifth
// marked twice with independent states; in slot order unless `shuffled`.
std::vector<core::SlotMark> random_marks(Rng& rng, core::SlotIndex slots, bool shuffled) {
    std::vector<core::SlotMark> marks;
    for (core::SlotIndex s = 0; s < slots; ++s) {
        const double u = rng.uniform01();
        const int copies = u < 0.2 ? 0 : (u < 0.4 ? 2 : 1);
        for (int c = 0; c < copies; ++c) {
            core::SlotMark m;
            m.slot = s;
            m.congested = rng.bernoulli(0.4);
            marks.push_back(m);
        }
    }
    if (shuffled) shuffle(marks, rng);
    return marks;
}

// Experiments in start order over [0, slots): starts advance by 1–6 slots,
// so extended experiments overlap their successor; some starts land on
// unmarked slots and a few experiments run past the last mark.
std::vector<core::Experiment> random_design(Rng& rng, core::SlotIndex slots) {
    std::vector<core::Experiment> design;
    for (core::SlotIndex s = rng.uniform_int(0, 3); s < slots; s += rng.uniform_int(1, 6)) {
        design.push_back({s, rng.bernoulli(0.5) ? core::ExperimentKind::extended
                                                : core::ExperimentKind::basic});
    }
    return design;
}

void expect_same_reports(const std::vector<core::ExperimentResult>& got,
                         const std::vector<core::ExperimentResult>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].kind, want[i].kind) << "report " << i;
        EXPECT_EQ(got[i].code, want[i].code) << "report " << i;
    }
}

std::vector<core::ExperimentResult> stream_through_scorer(
    const std::vector<core::Experiment>& design, const std::vector<core::SlotMark>& marks) {
    core::VectorSink<core::ExperimentResult> sink;
    core::MarkScorer scorer{marks, sink};
    for (const core::Experiment& e : design) scorer.consume(e);
    return sink.take();
}

TEST(MarkOracle, ScorerMatchesMapOnDesignsInSlotOrder) {
    Rng rng{0x5C0FE};
    for (int trial = 0; trial < 40; ++trial) {
        const core::SlotIndex slots = rng.uniform_int(1, 3000);
        const auto marks = random_marks(rng, slots, /*shuffled=*/trial % 2 == 1);
        const auto design = random_design(rng, slots);
        SCOPED_TRACE(testing::Message() << "trial " << trial);
        core::VectorSink<core::ExperimentResult> batch;
        core::score_marks_into(design, marks, batch);
        expect_same_reports(batch.items(), core::oracle::score_by_map(design, marks));
    }
}

TEST(MarkOracle, ScorerMatchesMapOnShuffledDesigns) {
    Rng rng{0xD15C0};
    for (int trial = 0; trial < 40; ++trial) {
        const core::SlotIndex slots = rng.uniform_int(1, 3000);
        const auto marks = random_marks(rng, slots, /*shuffled=*/trial % 2 == 0);
        auto design = random_design(rng, slots);
        shuffle(design, rng);
        SCOPED_TRACE(testing::Message() << "trial " << trial);
        expect_same_reports(stream_through_scorer(design, marks),
                            core::oracle::score_by_map(design, marks));
    }
}

TEST(MarkOracle, ScorerWithNoMarksReadsEverySlotUncongested) {
    const std::vector<core::Experiment> design{{3, core::ExperimentKind::extended},
                                               {0, core::ExperimentKind::basic}};
    const auto reports = stream_through_scorer(design, {});
    expect_same_reports(reports, core::oracle::score_by_map(design, {}));
    EXPECT_EQ(reports[0].code, 0);
    EXPECT_EQ(reports[1].code, 0);
}

class Discard final : public sim::PacketSink {
public:
    void accept(const sim::Packet& pkt) override { packets.push_back(pkt); }
    std::vector<sim::Packet> packets;
};

void expect_same_outcome(const core::ProbeOutcome& got, const core::ProbeOutcome& want) {
    EXPECT_EQ(got.slot, want.slot);
    EXPECT_EQ(got.send_time, want.send_time);
    EXPECT_EQ(got.packets_sent, want.packets_sent);
    EXPECT_EQ(got.packets_lost, want.packets_lost);
    EXPECT_EQ(got.max_owd, want.max_owd);
    EXPECT_EQ(got.any_received, want.any_received);
    EXPECT_EQ(got.ce_marked, want.ce_marked);
}

TEST(MarkOracle, ProbeTrainMatchesMapRecord) {
    constexpr sim::FlowId kFlow = 77;
    constexpr int kPackets = 3;
    Rng rng{0x7A1B};
    for (int trial = 0; trial < 20; ++trial) {
        SCOPED_TRACE(testing::Message() << "trial " << trial);
        sim::Scheduler sched;
        Discard wire;
        probes::ProbeTrain train{sched, wire, {kFlow, kPackets, 600, microseconds(30)}, 0};
        core::oracle::ProbeRecordOracle oracle{kFlow, kPackets};

        // Sends at increasing keys with gaps, one per millisecond.
        std::vector<std::int64_t> keys;
        for (std::int64_t k = rng.uniform_int(0, 4); keys.size() < 200; k += rng.uniform_int(1, 4)) {
            keys.push_back(k);
        }
        for (std::size_t i = 0; i < keys.size(); ++i) {
            const std::int64_t key = keys[i];
            sched.schedule_at(milliseconds(static_cast<std::int64_t>(i)),
                              [&train, &oracle, key] {
                                  train.send(key);
                                  oracle.sent(key);
                              });
        }
        sched.run();
        ASSERT_EQ(wire.packets.size(), keys.size() * kPackets);

        // Arrivals: ~20% lost, ~10% CE-marked, ~10% delivered twice (the
        // copy with its own delay and CE mark), random delays, so the packets
        // of one key arrive apart and out of order; plus packets of unsent
        // keys, another flow and another kind; all shuffled.
        std::vector<std::pair<sim::Packet, TimeNs>> arrivals;
        for (sim::Packet pkt : wire.packets) {
            if (rng.bernoulli(0.2)) continue;
            for (int copies = rng.bernoulli(0.1) ? 2 : 1; copies > 0; --copies) {
                pkt.ecn_ce = rng.bernoulli(0.1);
                arrivals.emplace_back(pkt,
                                      pkt.sent_at + microseconds(rng.uniform_int(100, 50'000)));
            }
        }
        for (int j = 0; j < 30; ++j) {
            sim::Packet stray = wire.packets[static_cast<std::size_t>(j)];
            if (j % 3 == 0) stray.seq = keys.back() + 1 + j;  // never sent
            if (j % 3 == 1) stray.flow = kFlow + 1;
            if (j % 3 == 2) stray.kind = sim::PacketKind::data;
            arrivals.emplace_back(stray, stray.sent_at + milliseconds(1));
        }
        shuffle(arrivals, rng);
        for (const auto& [pkt, clock] : arrivals) {
            EXPECT_EQ(train.receive(pkt, clock), oracle.receive(pkt, clock));
        }
        EXPECT_EQ(train.packets_received(), oracle.packets_received());

        // Every key from below the first to past the last, sent or not.
        probes::ProbeTrain::OutcomeWalk walk = train.walk();
        for (std::int64_t key = keys.front() - 2; key <= keys.back() + 2; ++key) {
            const TimeNs at = milliseconds(key);
            const core::ProbeOutcome want = oracle.outcome(key, at);
            ASSERT_GE(want.packets_lost, 0);
            expect_same_outcome(train.outcome(key, at), want);
            expect_same_outcome(walk.next(key, at), want);
        }
    }
}

}  // namespace
}  // namespace bb
