// One BADABING-style probe (paper §6.1–6.2): `packets_per_probe` packets
// sent back to back, `intra_probe_gap` apart, whose loss and maximum one-way
// delay mark one slot.  Probing tools differ only in *when* they send a
// train; what a train is — its packets on the wire and the receive record
// that turns arrivals into a core::ProbeOutcome — lives here once.
//
// The sender emits the first packet immediately and parks the rest in the
// scheduler's PacketPool, each re-stamped and sent `intra_probe_gap * k`
// later.  Packet ids continue the caller's flow_id_block; `seq` carries the
// caller's probe key (a slot or an ordinal), which the receiver files under.
#ifndef BB_PROBES_PROBE_TRAIN_H
#define BB_PROBES_PROBE_TRAIN_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/types.h"
#include "sim/packet.h"
#include "sim/scheduler.h"
#include "util/time.h"

namespace bb::probes {

class ProbeTrain {
public:
    struct Shape {
        sim::FlowId flow{0};
        int packets_per_probe{3};
        std::int32_t packet_bytes{600};
        TimeNs intra_probe_gap{microseconds(30)};  // the paper's hosts' spacing (§6.1)
        bool ecn_ect{false};  // send ECN-capable packets (CE marks are recorded)
    };

    // `first_id` is the caller's flow_id_block; packet ids count up from it.
    // `shape.packets_per_probe` must be in [1, 64] (BB_CHECK), the scenario
    // spec's bound: the receive record keeps one bit per packet.
    ProbeTrain(sim::Scheduler& sched, sim::PacketSink& out, const Shape& shape,
               std::uint64_t first_id);

    ProbeTrain(const ProbeTrain&) = delete;
    ProbeTrain& operator=(const ProbeTrain&) = delete;

    // Room in the receive record for `probes` sends (a drawn design knows
    // its size up front).
    void reserve(std::size_t probes) { records_.reserve(probes); }

    // Sender: emit the probe filed under `key`, starting now.  Keys must
    // strictly increase from one send to the next (BB_CHECK): a repeated key
    // would merge two probes into one record.
    void send(std::int64_t key);

    // Receiver: file one arriving packet, its one-way delay read against
    // `receiver_clock` (the receiver's idea of now).  Returns false, and
    // records nothing, for packets that are not this train's probes (another
    // flow, another kind, a key that was never sent, a `probe_pkt` outside
    // the train) and for a copy of a packet already filed.
    bool receive(const sim::Packet& pkt, TimeNs receiver_clock);

    // Outcome assembly: one forward walk over the record.  next(key,
    // send_time) is the outcome of probe `key`, sent at `send_time`; a probe
    // with no recorded arrival lost every packet.  The keys asked for must
    // increase from call to call.
    class OutcomeWalk {
    public:
        [[nodiscard]] core::ProbeOutcome next(std::int64_t key, TimeNs send_time);

    private:
        friend class ProbeTrain;
        explicit OutcomeWalk(const ProbeTrain& train) : train_{&train} {}

        const ProbeTrain* train_;
        std::size_t pos_{0};  // first record whose key is not below the last key asked
    };
    [[nodiscard]] OutcomeWalk walk() const { return OutcomeWalk{*this}; }

    // One probe's outcome: walk().next(key, send_time), linear in the
    // record, so whole-run assembly keeps one walk instead.
    [[nodiscard]] core::ProbeOutcome outcome(std::int64_t key, TimeNs send_time) const;

    [[nodiscard]] std::uint64_t probes_sent() const noexcept { return records_.size(); }
    [[nodiscard]] std::uint64_t packets_sent() const noexcept { return packets_sent_; }
    [[nodiscard]] std::uint64_t packets_received() const noexcept {
        return packets_received_;
    }
    [[nodiscard]] std::int64_t bytes_sent() const noexcept { return bytes_sent_; }

private:
    struct Record {
        std::int64_t key{0};
        TimeNs max_owd{TimeNs::zero()};
        std::uint64_t seen{0};  // bit k: packet k of the probe arrived
        bool ce{false};
    };

    sim::Scheduler* sched_;
    sim::PacketSink* out_;
    Shape shape_;
    std::uint64_t next_id_;

    // One record per send, sorted by key because send() appends keys in
    // increasing order; arrivals find theirs by binary search.  A sorted
    // vector keeps outcome assembly in key order (determinism rule
    // no-unordered-container, DESIGN.md §14).
    std::vector<Record> records_;
    std::uint64_t packets_sent_{0};
    std::uint64_t packets_received_{0};
    std::int64_t bytes_sent_{0};
};

}  // namespace bb::probes

#endif  // BB_PROBES_PROBE_TRAIN_H
