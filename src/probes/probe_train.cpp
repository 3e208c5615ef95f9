#include "probes/probe_train.h"

#include <algorithm>
#include <bit>

#include "util/contract.h"

namespace bb::probes {

ProbeTrain::ProbeTrain(sim::Scheduler& sched, sim::PacketSink& out, const Shape& shape,
                       std::uint64_t first_id)
    : sched_{&sched}, out_{&out}, shape_{shape}, next_id_{first_id} {
    BB_CHECK_MSG(shape.packets_per_probe >= 1 && shape.packets_per_probe <= 64,
                 "probe train: packets_per_probe must be in [1, 64]");
}

void ProbeTrain::send(std::int64_t key) {
    BB_CHECK_MSG(records_.empty() || key > records_.back().key,
                 "probe train: keys must strictly increase from send to send");
    records_.push_back(Record{key});
    for (int k = 0; k < shape_.packets_per_probe; ++k) {
        sim::Packet pkt;
        pkt.id = ++next_id_;
        pkt.flow = shape_.flow;
        pkt.kind = sim::PacketKind::probe;
        pkt.size_bytes = shape_.packet_bytes;
        pkt.seq = key;
        pkt.probe_pkt = k;
        pkt.sent_at = sched_->now();
        pkt.ecn_ect = shape_.ecn_ect;
        ++packets_sent_;
        bytes_sent_ += shape_.packet_bytes;
        if (k == 0) {
            out_->accept(pkt);
        } else {
            // Parked in the per-replica pool; re-stamped at emission time.
            const sim::PacketPool::Handle h = sched_->packet_pool().put(pkt);
            sched_->schedule_after(shape_.intra_probe_gap * k, [this, h] {
                sim::Packet p = sched_->packet_pool().take(h);
                p.sent_at = sched_->now();
                out_->accept(p);
            });
        }
    }
}

bool ProbeTrain::receive(const sim::Packet& pkt, TimeNs receiver_clock) {
    if (pkt.kind != sim::PacketKind::probe || pkt.flow != shape_.flow) return false;
    if (pkt.probe_pkt < 0 || pkt.probe_pkt >= shape_.packets_per_probe) return false;
    const auto it = std::lower_bound(
        records_.begin(), records_.end(), pkt.seq,
        [](const Record& r, std::int64_t key) { return r.key < key; });
    if (it == records_.end() || it->key != pkt.seq) return false;
    Record& rec = *it;
    const std::uint64_t bit = std::uint64_t{1} << pkt.probe_pkt;
    if ((rec.seen & bit) != 0) return false;  // a copy of a packet already filed
    rec.seen |= bit;
    ++packets_received_;
    if (pkt.ecn_ce) rec.ce = true;
    rec.max_owd = std::max(rec.max_owd, receiver_clock - pkt.sent_at);
    return true;
}

core::ProbeOutcome ProbeTrain::outcome(std::int64_t key, TimeNs send_time) const {
    return walk().next(key, send_time);
}

core::ProbeOutcome ProbeTrain::OutcomeWalk::next(std::int64_t key, TimeNs send_time) {
    const std::vector<Record>& records = train_->records_;
    while (pos_ < records.size() && records[pos_].key < key) ++pos_;
    core::ProbeOutcome po;
    po.slot = key;
    po.send_time = send_time;
    po.packets_sent = train_->shape_.packets_per_probe;
    po.packets_lost = po.packets_sent;
    if (pos_ < records.size() && records[pos_].key == key) {
        const Record& rec = records[pos_];
        po.packets_lost -= std::popcount(rec.seen);
        po.max_owd = rec.max_owd;
        po.any_received = rec.seen != 0;
        po.ce_marked = rec.ce;
    }
    return po;
}

}  // namespace bb::probes
