// Deterministic tracing for the simulated network.
//
// Components emit typed TraceEvents (plain structs, no strings) into a
// TraceSink; the sink stitches them into per-transaction lifecycle spans and
// serializes either Chrome trace-event JSON (loadable in Perfetto / chrome://
// tracing) or a compact JSONL form (one event per line).
//
// Determinism contract (same as the sweep harness, DESIGN.md §9/§10): every
// timestamp is simulated time, events are stored in emission order, and the
// emission order of a run depends only on the seed — so the serialized trace
// is byte-identical for a given seed at any --threads value.
//
// Cost contract: components hold a `TraceSink*` that is null unless a trace
// was requested.  Every emit site is `if (trace_) trace_->emit({...})` over
// POD fields — no string formatting, no allocation beyond the event vector —
// so an untraced run does no observable extra work (regression target:
// bench/micro_ordering).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <vector>

#include "common/time.h"
#include "common/types.h"

namespace fl::obs {

/// Sentinels for "event is not about a transaction / block".
inline constexpr std::uint64_t kNoTx = std::numeric_limits<std::uint64_t>::max();
inline constexpr std::uint64_t kNoBlock = std::numeric_limits<std::uint64_t>::max();

/// Event taxonomy — one entry per pipeline step the paper's evaluation
/// reasons about (see DESIGN.md §10 for the full field semantics).
enum class EventType : std::uint8_t {
    kSubmit = 0,       ///< client built a proposal           (client, tx)
    kEndorseReply,     ///< one peer finished endorsing       (peer, tx, priority=vote, value=ok)
    kBroadcast,        ///< client sent envelope to an OSN    (client, tx, value=wire bytes)
    kConsolidate,      ///< OSN consolidated the votes        (osn, tx, priority=level)
    kConsolidateFail,  ///< consolidation rejected the tx     (osn, tx)
    kEnqueue,          ///< tx appended to a priority topic   (broker, tx, priority, value=offset, value2=wire)
    kTtcEnqueue,       ///< TTC marker appended to a topic    (broker, priority, block, value=offset)
    kDequeue,          ///< generator consumed the tx          (osn, tx, priority, block)
    kQuotaTransfer,    ///< Algorithm 1 surplus hand-off      (osn, block, priority=from, value=to, value2=slots)
    kBlockCut,         ///< generator cut a block             (osn, block, value=txs, value2=by_timeout)
    kCommit,           ///< tx validated + committed          (peer, tx, priority, block)
    kAbort,            ///< tx invalidated at commit          (peer, tx, priority, block, code=reason)
    kComplete,         ///< commit notice reached the client  (client, tx, priority, block, code)
    kClientFail,       ///< failed before ordering            (client, tx, code)
    kEndorseTimeout,   ///< endorsement collection timed out  (client, tx, value=attempt)
    kRetry,            ///< client re-sent the proposals      (client, tx, value=new attempt)
    kResubmit,         ///< envelope re-broadcast to an OSN   (client, tx, value=resubmission #)
    kFault,            ///< injected fault applied            (actor by kind, value=fault::FaultKind, value2=target)
    kPriorityInversion,  ///< audit: commit order violated priority/arrival order (audit, tx, priority, block, value=arrival seq, value2=prior seq)
    kStarvation,         ///< audit: client saw no service in a window (audit, actor=client, value=pending, value2=incident #)
    kUnfairnessAlarm,    ///< audit: Jain below threshold K windows  (audit, value=jain micro-units, value2=streak)
    kRaftElection,       ///< raft: node started an election        (raft, actor=node, value=term)
    kRaftLeaderElected,  ///< raft: node won an election            (raft, actor=node, value=term, value2=leader change #)
    kRaftSnapshot,       ///< raft: follower installed a snapshot   (raft, actor=node, value=snap index, value2=snap term)
};
[[nodiscard]] const char* to_string(EventType type);

enum class ActorKind : std::uint8_t { kClient = 0, kPeer, kOsn, kBroker, kAudit, kRaft };
[[nodiscard]] const char* to_string(ActorKind kind);

/// One typed event.  POD on purpose: emit sites fill integer fields only.
struct TraceEvent {
    TimePoint at;
    EventType type = EventType::kSubmit;
    ActorKind actor_kind = ActorKind::kClient;
    std::uint64_t actor = 0;        ///< client/peer/osn id; 0 for the broker
    std::uint64_t tx = kNoTx;       ///< transaction id, kNoTx if not tx-scoped
    PriorityLevel priority = kUnassignedPriority;
    std::uint64_t block = kNoBlock;
    TxValidationCode code = TxValidationCode::kValid;
    std::uint64_t value = 0;   ///< type-specific (see the enum comments)
    std::uint64_t value2 = 0;  ///< type-specific
};

/// Append-only event store + exporters.  Single-threaded, like everything
/// inside one simulation.
class TraceSink {
public:
    void emit(const TraceEvent& event) { events_.push_back(event); }

    /// Tags the sink with the channel its events belong to (multi-channel
    /// runs attach one sink per channel; core/multi_channel.h).  A tagged
    /// sink emits a "ch" field on every JSONL line and a top-level
    /// "channel" key in the Chrome JSON; an untagged sink serializes
    /// byte-identically to the pre-channel format.
    void set_channel(std::uint64_t channel) {
        channel_ = channel;
        has_channel_ = true;
    }
    [[nodiscard]] bool has_channel() const { return has_channel_; }
    [[nodiscard]] std::uint64_t channel() const { return channel_; }

    [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }
    [[nodiscard]] std::size_t size() const { return events_.size(); }
    [[nodiscard]] bool empty() const { return events_.empty(); }
    void clear() { events_.clear(); }

    /// Chrome trace-event JSON (Perfetto-loadable): per-tx lifecycle spans
    /// (endorse → order → validate → notify) on a "tx lifecycle" process
    /// plus every raw event as an instant on its actor's track.
    void write_chrome_json(std::ostream& os) const;

    /// Compact form: one JSON object per line, in emission order.
    void write_jsonl(std::ostream& os) const;

private:
    std::vector<TraceEvent> events_;
    std::uint64_t channel_ = 0;
    bool has_channel_ = false;
};

}  // namespace fl::obs
