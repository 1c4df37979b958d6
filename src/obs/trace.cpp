#include "obs/trace.h"

#include <map>
#include <ostream>
#include <string>

#include "common/json.h"

namespace fl::obs {

const char* to_string(EventType type) {
    switch (type) {
    case EventType::kSubmit: return "submit";
    case EventType::kEndorseReply: return "endorse_reply";
    case EventType::kBroadcast: return "broadcast";
    case EventType::kConsolidate: return "consolidate";
    case EventType::kConsolidateFail: return "consolidate_fail";
    case EventType::kEnqueue: return "enqueue";
    case EventType::kTtcEnqueue: return "ttc_enqueue";
    case EventType::kDequeue: return "dequeue";
    case EventType::kQuotaTransfer: return "quota_transfer";
    case EventType::kBlockCut: return "block_cut";
    case EventType::kCommit: return "commit";
    case EventType::kAbort: return "abort";
    case EventType::kComplete: return "complete";
    case EventType::kClientFail: return "client_fail";
    case EventType::kEndorseTimeout: return "endorse_timeout";
    case EventType::kRetry: return "retry";
    case EventType::kResubmit: return "resubmit";
    case EventType::kFault: return "fault";
    case EventType::kPriorityInversion: return "priority_inversion";
    case EventType::kStarvation: return "starvation";
    case EventType::kUnfairnessAlarm: return "unfairness_alarm";
    case EventType::kRaftElection: return "raft_election";
    case EventType::kRaftLeaderElected: return "raft_leader_elected";
    case EventType::kRaftSnapshot: return "raft_snapshot";
    }
    return "unknown";
}

const char* to_string(ActorKind kind) {
    switch (kind) {
    case ActorKind::kClient: return "client";
    case ActorKind::kPeer: return "peer";
    case ActorKind::kOsn: return "osn";
    case ActorKind::kBroker: return "broker";
    case ActorKind::kAudit: return "audit";
    case ActorKind::kRaft: return "raft";
    }
    return "unknown";
}

namespace {

/// Chrome trace timestamps are microseconds; keep sub-µs precision as a
/// fraction (json_number is %.17g — deterministic and round-trip exact).
std::string us(std::int64_t ns) { return json_number(static_cast<double>(ns) / 1000.0); }

/// Process ids for the Chrome export: 1 = stitched tx lifecycle, then one
/// process per actor kind so instants group into readable tracks.
int pid_of(ActorKind kind) { return 2 + static_cast<int>(kind); }

/// Lifecycle milestones of one transaction, harvested from the raw events.
struct TxLife {
    std::int64_t submit = -1;
    std::int64_t broadcast = -1;
    std::int64_t commit = -1;  ///< first kCommit or kAbort at any peer
    std::int64_t complete = -1;
    std::int64_t client_fail = -1;
    std::uint64_t block = kNoBlock;
    PriorityLevel priority = kUnassignedPriority;
    TxValidationCode code = TxValidationCode::kValid;
    bool aborted = false;
};

/// Emits one "X" (complete span) line.  `first` tracks the array comma.
void write_span(std::ostream& os, bool& first, const char* name, std::uint64_t tx,
                std::int64_t begin_ns, std::int64_t end_ns, const TxLife& life) {
    if (end_ns < begin_ns) return;
    if (!first) os << ",\n";
    first = false;
    os << R"({"name":")" << name << R"(","cat":"tx","ph":"X","pid":1,"tid":)" << tx
       << R"(,"ts":)" << us(begin_ns) << R"(,"dur":)" << us(end_ns - begin_ns)
       << R"(,"args":{"tx":)" << tx;
    if (life.priority != kUnassignedPriority) os << R"(,"prio":)" << life.priority;
    if (life.block != kNoBlock) os << R"(,"block":)" << life.block;
    if (!is_valid(life.code)) os << R"(,"code":")" << to_string(life.code) << '"';
    os << "}}";
}

void write_metadata(std::ostream& os, bool& first, int pid, const char* name) {
    if (!first) os << ",\n";
    first = false;
    os << R"({"name":"process_name","ph":"M","pid":)" << pid
       << R"(,"args":{"name":")" << name << R"("}})";
}

void write_instant(std::ostream& os, bool& first, const TraceEvent& e) {
    if (!first) os << ",\n";
    first = false;
    os << R"({"name":")" << to_string(e.type) << R"(","cat":"raw","ph":"i","s":"t","pid":)"
       << pid_of(e.actor_kind) << R"(,"tid":)" << e.actor << R"(,"ts":)"
       << us(e.at.as_nanos()) << R"(,"args":{)";
    bool first_arg = true;
    const auto arg = [&](const char* key) -> std::ostream& {
        if (!first_arg) os << ',';
        first_arg = false;
        os << '"' << key << "\":";
        return os;
    };
    if (e.tx != kNoTx) arg("tx") << e.tx;
    if (e.priority != kUnassignedPriority) arg("prio") << e.priority;
    if (e.block != kNoBlock) arg("block") << e.block;
    if (!is_valid(e.code)) arg("code") << '"' << to_string(e.code) << '"';
    if (e.value != 0) arg("value") << e.value;
    if (e.value2 != 0) arg("value2") << e.value2;
    os << "}}";
}

}  // namespace

void TraceSink::write_chrome_json(std::ostream& os) const {
    // Harvest lifecycle milestones.  std::map keys keep the span section in
    // ascending tx / block order — part of the byte-determinism contract.
    std::map<std::uint64_t, TxLife> txs;
    std::map<std::uint64_t, std::int64_t> block_cuts;  // earliest cut per block
    for (const TraceEvent& e : events_) {
        const std::int64_t t = e.at.as_nanos();
        if (e.type == EventType::kBlockCut && e.block != kNoBlock) {
            const auto [it, inserted] = block_cuts.try_emplace(e.block, t);
            if (!inserted && t < it->second) it->second = t;
            continue;
        }
        if (e.tx == kNoTx) continue;
        TxLife& life = txs[e.tx];
        switch (e.type) {
        case EventType::kSubmit:
            if (life.submit < 0) life.submit = t;
            break;
        case EventType::kBroadcast:
            if (life.broadcast < 0) life.broadcast = t;
            break;
        case EventType::kCommit:
        case EventType::kAbort:
            if (life.commit < 0) {
                life.commit = t;
                life.block = e.block;
                life.priority = e.priority;
                life.code = e.code;
                life.aborted = e.type == EventType::kAbort;
            }
            break;
        case EventType::kComplete:
            if (life.complete < 0) life.complete = t;
            break;
        case EventType::kClientFail:
            if (life.client_fail < 0) {
                life.client_fail = t;
                life.code = e.code;
            }
            break;
        default:
            break;
        }
    }

    os << "{\"displayTimeUnit\":\"ms\",";
    if (has_channel_) os << "\"channel\":" << channel_ << ',';
    os << "\"traceEvents\":[\n";
    bool first = true;
    write_metadata(os, first, 1, "tx lifecycle");
    write_metadata(os, first, pid_of(ActorKind::kClient), "clients");
    write_metadata(os, first, pid_of(ActorKind::kPeer), "peers");
    write_metadata(os, first, pid_of(ActorKind::kOsn), "osns");
    write_metadata(os, first, pid_of(ActorKind::kBroker), "broker");

    for (const auto& [tx, life] : txs) {
        if (life.submit >= 0 && life.client_fail >= 0) {
            write_span(os, first, "endorse (failed)", tx, life.submit,
                       life.client_fail, life);
            continue;
        }
        if (life.submit >= 0 && life.broadcast >= 0) {
            write_span(os, first, "endorse", tx, life.submit, life.broadcast, life);
        }
        const auto cut = life.block != kNoBlock ? block_cuts.find(life.block)
                                                : block_cuts.end();
        if (life.broadcast >= 0 && cut != block_cuts.end()) {
            write_span(os, first, "order", tx, life.broadcast, cut->second, life);
        }
        if (cut != block_cuts.end() && life.commit >= 0) {
            write_span(os, first, life.aborted ? "validate (abort)" : "validate",
                       tx, cut->second, life.commit, life);
        }
        if (life.commit >= 0 && life.complete >= 0) {
            write_span(os, first, "notify", tx, life.commit, life.complete, life);
        }
    }

    for (const TraceEvent& e : events_) {
        write_instant(os, first, e);
    }
    os << "\n]}\n";
}

void TraceSink::write_jsonl(std::ostream& os) const {
    for (const TraceEvent& e : events_) {
        os << "{";
        if (has_channel_) os << R"("ch":)" << channel_ << ',';
        os << R"("t_ns":)" << e.at.as_nanos() << R"(,"type":")" << to_string(e.type)
           << R"(","actor":")" << to_string(e.actor_kind) << R"(","actor_id":)"
           << e.actor;
        if (e.tx != kNoTx) os << R"(,"tx":)" << e.tx;
        if (e.priority != kUnassignedPriority) os << R"(,"prio":)" << e.priority;
        if (e.block != kNoBlock) os << R"(,"block":)" << e.block;
        if (!is_valid(e.code)) os << R"(,"code":")" << to_string(e.code) << '"';
        if (e.value != 0) os << R"(,"value":)" << e.value;
        if (e.value2 != 0) os << R"(,"value2":)" << e.value2;
        os << "}\n";
    }
}

}  // namespace fl::obs
