#include "probes/probe_train.h"

#include <algorithm>

namespace bb::probes {

ProbeTrain::ProbeTrain(sim::Scheduler& sched, sim::PacketSink& out, const Shape& shape,
                       std::uint64_t first_id)
    : sched_{&sched}, out_{&out}, shape_{shape}, next_id_{first_id} {}

void ProbeTrain::send(std::int64_t key) {
    ++probes_sent_;
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
    ++packets_received_;
    Record& rec = records_[pkt.seq];
    ++rec.received;
    if (pkt.ecn_ce) rec.ce = true;
    rec.max_owd = std::max(rec.max_owd, receiver_clock - pkt.sent_at);
    return true;
}

core::ProbeOutcome ProbeTrain::outcome(std::int64_t key, TimeNs send_time) const {
    core::ProbeOutcome po;
    po.slot = key;
    po.send_time = send_time;
    po.packets_sent = shape_.packets_per_probe;
    po.packets_lost = shape_.packets_per_probe;
    if (const auto it = records_.find(key); it != records_.end()) {
        po.packets_lost -= it->second.received;
        po.max_owd = it->second.max_owd;
        po.any_received = it->second.received > 0;
        po.ce_marked = it->second.ce;
    }
    return po;
}

}  // namespace bb::probes
