// Test-only references for the two flat records re-analysis walks: the
// MarkScorer's slot-sorted marks and the ProbeTrain's key-sorted receive
// record.  Each keeps its state in a std::map and answers every lookup with
// find(), and builds report codes and outcomes itself — no score_experiment,
// basic_code/extended_code or ProbeTrain call — so a slip in the production
// cursor, sort, de-duplication or walk shows up as a mismatch here instead of
// being reproduced by the check.
#ifndef BB_TESTS_MARK_ORACLE_H
#define BB_TESTS_MARK_ORACLE_H

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "core/marking.h"
#include "core/types.h"
#include "sim/packet.h"
#include "util/contract.h"
#include "util/time.h"

namespace bb::core::oracle {

// Reports for `design` under `marks`: a slot's last mark decides, an
// unmarked slot is uncongested.
inline std::vector<ExperimentResult> score_by_map(const std::vector<Experiment>& design,
                                                  const std::vector<SlotMark>& marks) {
    std::map<SlotIndex, bool> by_slot;
    for (const SlotMark& m : marks) by_slot[m.slot] = m.congested;
    const auto bit = [&by_slot](SlotIndex s) -> std::uint8_t {
        const auto it = by_slot.find(s);
        return it != by_slot.end() && it->second ? 1 : 0;
    };
    std::vector<ExperimentResult> reports;
    for (const Experiment& e : design) {
        ExperimentResult r;
        r.kind = e.kind;
        r.code = 0;
        for (int k = 0; k < e.probes(); ++k) {
            r.code = static_cast<std::uint8_t>((r.code << 1) | bit(e.start_slot + k));
        }
        reports.push_back(r);
    }
    return reports;
}

// The receive record of one probe flow, keyed by probe (packet seq).
class ProbeRecordOracle {
public:
    ProbeRecordOracle(sim::FlowId flow, int packets_per_probe)
        : flow_{flow}, packets_per_probe_{packets_per_probe} {}

    void sent(std::int64_t key) { records_.emplace(key, Record{}); }

    // Mirrors ProbeTrain::receive: packets of another flow or kind, of a key
    // never sent or of an index outside the train, and copies of a packet
    // already filed, are refused and leave no trace.
    bool receive(const sim::Packet& pkt, TimeNs receiver_clock) {
        if (pkt.kind != sim::PacketKind::probe || pkt.flow != flow_) return false;
        if (pkt.probe_pkt < 0 || pkt.probe_pkt >= packets_per_probe_) return false;
        const auto it = records_.find(pkt.seq);
        if (it == records_.end()) return false;
        Record& rec = it->second;
        if (!rec.arrived.insert(pkt.probe_pkt).second) return false;
        ++received_;
        rec.ce = rec.ce || pkt.ecn_ce;
        const TimeNs owd = receiver_clock - pkt.sent_at;
        if (owd > rec.max_owd) rec.max_owd = owd;
        return true;
    }

    [[nodiscard]] ProbeOutcome outcome(std::int64_t key, TimeNs send_time) const {
        ProbeOutcome po;
        po.slot = key;
        po.send_time = send_time;
        po.packets_sent = packets_per_probe_;
        po.packets_lost = packets_per_probe_;
        const auto it = records_.find(key);
        if (it != records_.end()) {
            const auto received = static_cast<int>(it->second.arrived.size());
            BB_CHECK_MSG(received <= packets_per_probe_, "oracle: more arrivals than packets");
            po.packets_lost = packets_per_probe_ - received;
            po.any_received = received != 0;
            po.max_owd = it->second.max_owd;
            po.ce_marked = it->second.ce;
        }
        return po;
    }

    [[nodiscard]] std::uint64_t packets_received() const noexcept { return received_; }

private:
    struct Record {
        std::set<std::int32_t> arrived;  // probe_pkt of every packet filed
        TimeNs max_owd{TimeNs::zero()};
        bool ce{false};
    };

    sim::FlowId flow_;
    int packets_per_probe_;
    std::map<std::int64_t, Record> records_;
    std::uint64_t received_{0};
};

}  // namespace bb::core::oracle

#endif  // BB_TESTS_MARK_ORACLE_H
