// ProbeTrain: the one sender and receive record every slot prober shares.
// The sender's packets on the wire (timing, ids, fields, tallies, pool use)
// and the receiver's outcome assembly (loss, max OWD, CE, per-key filing,
// foreign-packet rejection) are checked directly against a scheduler and a
// recording sink, with no topology in between.
#include "probes/probe_train.h"

#include <gtest/gtest.h>

#include <vector>

namespace bb::probes {
namespace {

class PacketRecorder final : public sim::PacketSink {
public:
    explicit PacketRecorder(const sim::Scheduler& sched) : sched_{&sched} {}
    void accept(const sim::Packet& pkt) override {
        packets_.push_back(pkt);
        arrivals_.push_back(sched_->now());
    }
    [[nodiscard]] const std::vector<sim::Packet>& packets() const noexcept { return packets_; }
    [[nodiscard]] const std::vector<TimeNs>& arrivals() const noexcept { return arrivals_; }

private:
    const sim::Scheduler* sched_;
    std::vector<sim::Packet> packets_;
    std::vector<TimeNs> arrivals_;
};

ProbeTrain::Shape shape(int packets = 3) {
    ProbeTrain::Shape s;
    s.flow = 42;
    s.packets_per_probe = packets;
    s.packet_bytes = 600;
    s.intra_probe_gap = microseconds(30);
    return s;
}

// Send one probe under `key` at `at` and run the scheduler until it is out.
void send_at(sim::Scheduler& sched, ProbeTrain& train, TimeNs at, std::int64_t key) {
    sched.schedule_at(at, [&train, key] { train.send(key); });
    sched.run();
}

TEST(ProbeTrain, FirstPacketLeavesNowAndTheRestFollowAtTheGap) {
    sim::Scheduler sched;
    PacketRecorder out{sched};
    ProbeTrain train{sched, out, shape(), 0};
    const TimeNs t0 = milliseconds(5);
    send_at(sched, train, t0, 7);

    ASSERT_EQ(out.packets().size(), 3u);
    for (int k = 0; k < 3; ++k) {
        const TimeNs expected = t0 + microseconds(30) * k;
        EXPECT_EQ(out.arrivals()[k], expected) << "packet " << k;
        // Parked packets are re-stamped when they actually leave.
        EXPECT_EQ(out.packets()[k].sent_at, expected) << "packet " << k;
        EXPECT_EQ(out.packets()[k].probe_pkt, k);
    }
}

TEST(ProbeTrain, PacketsCarryTheShapeAndTheProbeKey) {
    sim::Scheduler sched;
    PacketRecorder out{sched};
    auto s = shape(2);
    s.packet_bytes = 1000;
    s.ecn_ect = true;
    ProbeTrain train{sched, out, s, 0};
    send_at(sched, train, TimeNs::zero(), 123);

    ASSERT_EQ(out.packets().size(), 2u);
    for (const sim::Packet& pkt : out.packets()) {
        EXPECT_EQ(pkt.kind, sim::PacketKind::probe);
        EXPECT_EQ(pkt.flow, 42u);
        EXPECT_EQ(pkt.size_bytes, 1000);
        EXPECT_EQ(pkt.seq, 123);
        EXPECT_TRUE(pkt.ecn_ect);
        EXPECT_FALSE(pkt.ecn_ce);
    }
}

TEST(ProbeTrain, PacketIdsContinueTheCallersIdBlock) {
    sim::Scheduler sched;
    PacketRecorder out{sched};
    const std::uint64_t block = sim::flow_id_block(3, 42);
    ProbeTrain train{sched, out, shape(), block};
    send_at(sched, train, TimeNs::zero(), 0);
    send_at(sched, train, milliseconds(5), 1);

    ASSERT_EQ(out.packets().size(), 6u);
    for (std::size_t i = 0; i < out.packets().size(); ++i) {
        EXPECT_EQ(out.packets()[i].id, block + i + 1) << "packet " << i;
    }
}

TEST(ProbeTrain, TalliesCountProbesPacketsAndBytes) {
    sim::Scheduler sched;
    PacketRecorder out{sched};
    ProbeTrain train{sched, out, shape(), 0};
    for (int i = 0; i < 4; ++i) send_at(sched, train, milliseconds(5 * (i + 1)), i);

    EXPECT_EQ(train.probes_sent(), 4u);
    EXPECT_EQ(train.packets_sent(), 12u);
    EXPECT_EQ(train.bytes_sent(), 12 * 600);
    EXPECT_EQ(train.packets_received(), 0u);
    EXPECT_EQ(out.packets().size(), 12u);
}

TEST(ProbeTrain, ParkedPacketsReturnToThePool) {
    sim::Scheduler sched;
    PacketRecorder out{sched};
    ProbeTrain train{sched, out, shape(), 0};
    sched.schedule_at(TimeNs::zero(), [&train] { train.send(0); });
    sched.run_until(microseconds(1));
    // The first packet went out directly; the other two wait in the pool.
    EXPECT_EQ(out.packets().size(), 1u);
    EXPECT_EQ(sched.packet_pool().in_use(), 2u);
    sched.run();
    EXPECT_EQ(out.packets().size(), 3u);
    EXPECT_EQ(sched.packet_pool().in_use(), 0u);
    sched.packet_pool().check_invariants();
}

TEST(ProbeTrain, UnheardProbeLosesEveryPacket) {
    sim::Scheduler sched;
    PacketRecorder out{sched};
    ProbeTrain train{sched, out, shape(), 0};
    const core::ProbeOutcome po = train.outcome(9, milliseconds(45));
    EXPECT_EQ(po.slot, 9);
    EXPECT_EQ(po.send_time, milliseconds(45));
    EXPECT_EQ(po.packets_sent, 3);
    EXPECT_EQ(po.packets_lost, 3);
    EXPECT_FALSE(po.any_received);
    EXPECT_FALSE(po.ce_marked);
    EXPECT_EQ(po.max_owd, TimeNs::zero());
}

TEST(ProbeTrain, OutcomeRecordsPartialLossMaxDelayAndCe) {
    sim::Scheduler sched;
    PacketRecorder out{sched};
    ProbeTrain train{sched, out, shape(), 0};
    send_at(sched, train, milliseconds(10), 2);
    ASSERT_EQ(out.packets().size(), 3u);

    // Packet 1 is lost; packet 0 arrives after 4 ms, packet 2 after 6 ms
    // carrying a CE mark.  Delays are read against the given receiver clock.
    const sim::Packet& p0 = out.packets()[0];
    sim::Packet p2 = out.packets()[2];
    p2.ecn_ce = true;
    EXPECT_TRUE(train.receive(p0, p0.sent_at + milliseconds(4)));
    EXPECT_TRUE(train.receive(p2, p2.sent_at + milliseconds(6)));

    const core::ProbeOutcome po = train.outcome(2, milliseconds(10));
    EXPECT_EQ(po.packets_sent, 3);
    EXPECT_EQ(po.packets_lost, 1);
    EXPECT_TRUE(po.any_received);
    EXPECT_TRUE(po.ce_marked);
    EXPECT_EQ(po.max_owd, milliseconds(6));
    EXPECT_EQ(train.packets_received(), 2u);
}

TEST(ProbeTrain, RecordsAreFiledPerKey) {
    sim::Scheduler sched;
    PacketRecorder out{sched};
    ProbeTrain train{sched, out, shape(), 0};
    send_at(sched, train, milliseconds(5), 10);
    send_at(sched, train, milliseconds(10), 11);
    ASSERT_EQ(out.packets().size(), 6u);

    // Every packet of key 10 arrives; only the last one of key 11 does.
    for (int k = 0; k < 3; ++k) {
        const sim::Packet& pkt = out.packets()[k];
        EXPECT_TRUE(train.receive(pkt, pkt.sent_at + milliseconds(1)));
    }
    const sim::Packet& late = out.packets()[5];
    EXPECT_TRUE(train.receive(late, late.sent_at + milliseconds(3)));

    const core::ProbeOutcome a = train.outcome(10, milliseconds(5));
    const core::ProbeOutcome b = train.outcome(11, milliseconds(10));
    EXPECT_EQ(a.packets_lost, 0);
    EXPECT_EQ(a.max_owd, milliseconds(1));
    EXPECT_EQ(b.packets_lost, 2);
    EXPECT_EQ(b.max_owd, milliseconds(3));
}

TEST(ProbeTrain, IgnoresPacketsThatAreNotItsProbes) {
    sim::Scheduler sched;
    PacketRecorder out{sched};
    ProbeTrain train{sched, out, shape(), 0};

    sim::Packet data;
    data.flow = 42;
    data.kind = sim::PacketKind::data;
    data.seq = 0;
    sim::Packet other_flow;
    other_flow.flow = 43;
    other_flow.kind = sim::PacketKind::probe;
    other_flow.seq = 0;
    EXPECT_FALSE(train.receive(data, milliseconds(1)));
    EXPECT_FALSE(train.receive(other_flow, milliseconds(1)));

    EXPECT_EQ(train.packets_received(), 0u);
    const core::ProbeOutcome po = train.outcome(0, TimeNs::zero());
    EXPECT_EQ(po.packets_lost, 3);
    EXPECT_FALSE(po.any_received);
}

TEST(ProbeTrain, RepeatedKeyIsACallerBug) {
    sim::Scheduler sched;
    PacketRecorder out{sched};
    ProbeTrain train{sched, out, shape(), 0};
    train.send(4);
    EXPECT_DEATH(train.send(4), "keys must strictly increase");
}

TEST(ProbeTrain, DecreasingKeyIsACallerBug) {
    sim::Scheduler sched;
    PacketRecorder out{sched};
    ProbeTrain train{sched, out, shape(), 0};
    train.send(4);
    EXPECT_DEATH(train.send(3), "keys must strictly increase");
}

TEST(ProbeTrain, PacketOfAKeyNeverSentIsRefused) {
    sim::Scheduler sched;
    PacketRecorder out{sched};
    ProbeTrain train{sched, out, shape(), 0};
    send_at(sched, train, TimeNs::zero(), 5);

    // A probe packet of this flow, but filed under a key no send() made.
    sim::Packet phantom = out.packets()[0];
    phantom.seq = 6;
    EXPECT_FALSE(train.receive(phantom, phantom.sent_at + milliseconds(1)));
    EXPECT_EQ(train.packets_received(), 0u);
    EXPECT_EQ(train.outcome(6, milliseconds(5)).packets_lost, 3);
    EXPECT_EQ(train.outcome(5, TimeNs::zero()).packets_lost, 3);
}

TEST(ProbeTrain, DuplicateDeliveryCountedOnce) {
    sim::Scheduler sched;
    PacketRecorder out{sched};
    ProbeTrain train{sched, out, shape(), 0};
    send_at(sched, train, milliseconds(5), 3);
    ASSERT_EQ(out.packets().size(), 3u);

    // Packet 0 arrives three times and packet 2 twice; packet 1 is lost.  A
    // copy is refused and leaves no trace, not even its larger delay.
    const sim::Packet& p0 = out.packets()[0];
    const sim::Packet& p2 = out.packets()[2];
    EXPECT_TRUE(train.receive(p0, p0.sent_at + milliseconds(2)));
    EXPECT_FALSE(train.receive(p0, p0.sent_at + milliseconds(2)));
    EXPECT_FALSE(train.receive(p0, p0.sent_at + milliseconds(9)));
    EXPECT_TRUE(train.receive(p2, p2.sent_at + milliseconds(3)));
    EXPECT_FALSE(train.receive(p2, p2.sent_at + milliseconds(3)));

    const core::ProbeOutcome po = train.outcome(3, milliseconds(5));
    EXPECT_EQ(po.packets_lost, 1);
    EXPECT_TRUE(po.any_received);
    EXPECT_EQ(po.max_owd, milliseconds(3));
    EXPECT_EQ(train.packets_received(), 2u);
}

TEST(ProbeTrain, PacketIndexOutsideTheTrainIsRefused) {
    sim::Scheduler sched;
    PacketRecorder out{sched};
    ProbeTrain train{sched, out, shape(), 0};
    send_at(sched, train, TimeNs::zero(), 1);

    for (const std::int32_t k : {-1, 3, 64, 1000}) {
        sim::Packet pkt = out.packets()[0];
        pkt.probe_pkt = k;
        EXPECT_FALSE(train.receive(pkt, pkt.sent_at + milliseconds(1))) << "probe_pkt " << k;
    }
    EXPECT_EQ(train.packets_received(), 0u);
    EXPECT_EQ(train.outcome(1, TimeNs::zero()).packets_lost, 3);
}

TEST(ProbeTrain, SixtyFourPacketTrainFilesEveryPacket) {
    sim::Scheduler sched;
    PacketRecorder out{sched};
    ProbeTrain train{sched, out, shape(64), 0};
    send_at(sched, train, TimeNs::zero(), 0);
    ASSERT_EQ(out.packets().size(), 64u);
    for (const sim::Packet& pkt : out.packets()) {
        EXPECT_TRUE(train.receive(pkt, pkt.sent_at + milliseconds(1)));
    }
    EXPECT_EQ(train.outcome(0, TimeNs::zero()).packets_lost, 0);
}

TEST(ProbeTrain, PacketsPerProbeOutsideOneToSixtyFourIsACallerBug) {
    sim::Scheduler sched;
    PacketRecorder out{sched};
    EXPECT_DEATH((ProbeTrain{sched, out, shape(0), 0}), "packets_per_probe must be in \\[1, 64\\]");
    EXPECT_DEATH((ProbeTrain{sched, out, shape(65), 0}), "packets_per_probe must be in \\[1, 64\\]");
}

}  // namespace
}  // namespace bb::probes
