// Multi-Queue Block Generator — the paper's Algorithm 1 + Algorithm 2,
// implemented event-driven over the ordering-service message queues.
//
// One generator instance runs inside every OSN.  It consumes the N priority
// topics of its channel through in-order subscriptions and assembles blocks:
//
//   * each block reserves TR[i] slots for priority level i (the block
//     formation policy quotas, summing to the block size BS);
//   * READ_QUEUE semantics (Algorithm 2): a queue is read until its quota is
//     met, it runs dry, or the first TTC marker for the current block is
//     consumed;
//   * when a level sees its TTC with quota left over, the surplus transfers
//     to the highest-priority level that has not seen a TTC yet (Algorithm 1
//     lines 17-23);
//   * the block is cut when every level has either exhausted its quota or
//     seen the block's TTC — i.e. the paper's two cut conditions;
//   * when this OSN's local batch timer (armed by the first transaction of
//     the block, as in Fabric) expires, it produces a TTC_BN into every
//     queue via `ttc_sender`; duplicate TTCs for the same block are consumed
//     and ignored, TTCs for past blocks are skipped as stale, and TTCs for
//     future blocks are left unconsumed.
//
// Within a block the generator preserves FIFO order inside each priority
// level and emits levels in priority order — a canonical layout that is
// byte-identical across OSNs, so the chain hash matches everywhere.
//
// The vanilla-Fabric baseline is the N == 1 special case (single queue,
// quota == BS), which makes overhead comparisons apples-to-apples.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/time.h"
#include "common/types.h"
#include "orderer/ordering_backend.h"
#include "orderer/record.h"
#include "sim/simulator.h"

namespace fl::obs {
class TraceSink;
}
namespace fl::obs::audit {
class AuditAccountant;
}

namespace fl::orderer {

struct GeneratorConfig {
    /// Per-level reserved quotas TR (0 = best-effort level); sum <= BS.
    std::vector<std::uint32_t> quotas;
    /// Maximum transactions per block (BS).
    std::uint32_t block_size = 500;
    /// Local batch timeout (armed by the first transaction of a block).
    Duration timeout = Duration::seconds(1);
    /// Constant offset modelling this OSN's unsynchronized local clock.
    Duration clock_skew = Duration::zero();
    /// Time the OSN's consume loop spends per record (unmarshalling,
    /// envelope checks, batching).  This is the ordering service's
    /// throughput bound: at 2 ms/record the orderer sustains 500 tps and
    /// excess load backs up *in the queues*, upstream of block formation —
    /// which is where the multi-queue generator can discriminate by
    /// priority.  Zero disables the bound (unit tests).
    Duration consume_per_record = Duration::zero();
    /// Token-bucket burst: records the consumers may have pre-processed
    /// while the generator was arrival-limited (Kafka consumers prefetch),
    /// so a post-timeout surplus dance does not stall the pipeline.  Sized
    /// like a per-topic prefetch depth (~BS/2 across topics); much larger
    /// values would let sustained overloads hide inside the bank.
    std::uint32_t consume_burst = 256;
};

/// One cut block, pre-canonicalization already applied.
struct CutResult {
    BlockNumber number = 0;
    std::vector<std::shared_ptr<const ledger::Envelope>> transactions;
    bool by_timeout = false;
    /// transactions-per-level actually included (diagnostics/tests).
    std::vector<std::uint32_t> per_level_counts;
};

class MultiQueueBlockGenerator {
public:
    using Subscriptions = std::vector<std::shared_ptr<Subscription>>;
    using TtcSender = std::function<void(BlockNumber)>;
    using CutCallback = std::function<void(CutResult)>;

    /// `subs[i]` must be the subscription for priority level i.  `send_ttc`
    /// produces a TTC for the given block into every queue.  `on_cut` fires
    /// each time a block is assembled.
    MultiQueueBlockGenerator(sim::Simulator& sim, GeneratorConfig config,
                             Subscriptions subs, TtcSender send_ttc,
                             CutCallback on_cut);

    MultiQueueBlockGenerator(const MultiQueueBlockGenerator&) = delete;
    MultiQueueBlockGenerator& operator=(const MultiQueueBlockGenerator&) = delete;

    ~MultiQueueBlockGenerator();

    /// Drives Algorithm 1 as far as currently-available records allow.
    /// Invoked automatically when subscriptions signal new data; exposed for
    /// tests.
    void pump();

    /// Attaches a trace sink (null detaches).  `actor` labels the events
    /// with the owning OSN's id.  Emit sites are branch-on-null, so a
    /// detached generator does no extra work (see obs/trace.h).
    void set_trace(obs::TraceSink* sink, std::uint64_t actor) {
        trace_ = sink;
        trace_actor_ = actor;
    }

    /// Attaches the fairness-audit accountant (null detaches).  The audit
    /// layer observes dequeues on exactly one OSN's generator (they all cut
    /// identical blocks; FabricNetwork wires OSN 0) and tx-id-dedups, so
    /// crash replay cannot double-count.
    void set_audit(obs::audit::AuditAccountant* audit) { audit_ = audit; }

    [[nodiscard]] BlockNumber current_block() const { return block_number_; }
    [[nodiscard]] std::uint64_t blocks_cut() const { return blocks_cut_; }
    [[nodiscard]] std::uint64_t ttcs_sent() const { return ttcs_sent_; }
    [[nodiscard]] std::uint64_t stale_ttcs_skipped() const { return stale_ttcs_; }
    /// Algorithm 1 lines 17-23 surplus hand-offs executed so far.
    [[nodiscard]] std::uint64_t quota_transfers() const { return quota_transfers_; }
    /// Per-level subscriptions (observability: queue-depth gauges read the
    /// consumed counts off these).
    [[nodiscard]] const Subscriptions& subscriptions() const { return subs_; }
    [[nodiscard]] const std::vector<std::uint32_t>& remaining_quotas() const {
        return remaining_;
    }
    /// Quotas in force for the block currently being generated (reflects
    /// committed runtime configuration updates).
    [[nodiscard]] const std::vector<std::uint32_t>& current_quotas() const {
        return config_.quotas;
    }
    [[nodiscard]] std::uint64_t config_updates_applied() const {
        return config_updates_;
    }

private:
    [[nodiscard]] bool scan_once();       ///< one pass over all levels; true if progressed
    [[nodiscard]] bool cut_ready() const;
    void reset_block_state();
    void maybe_arm_timer();
    void on_timeout();
    CutResult assemble();
    /// Consume-loop rate limiting: false when the budget is exhausted (a
    /// resume is then scheduled automatically).
    [[nodiscard]] bool can_consume();
    void charge_consume();
    void refill_tokens();
    void schedule_consume_resume();

    sim::Simulator& sim_;
    GeneratorConfig config_;
    Subscriptions subs_;
    TtcSender send_ttc_;
    CutCallback on_cut_;

    BlockNumber block_number_ = 0;
    std::vector<std::uint32_t> remaining_;  // TR, mutated by reads/transfers
    std::vector<bool> ttc_flag_;            // TTCFLAG
    std::vector<std::vector<std::shared_ptr<const ledger::Envelope>>> buckets_;
    std::uint32_t collected_ = 0;
    bool ttc_sent_ = false;
    bool any_tx_seen_ = false;  // timer arming condition
    sim::TimerHandle timer_;
    bool pumping_ = false;
    double consume_tokens_ = 0.0;     // token bucket (records)
    TimePoint consume_refill_at_;     // last refill time
    sim::TimerHandle consume_timer_;  // pending budget-resume wakeup

    /// Staged runtime policy change (applies from the next block; paper
    /// §3.3's "modify the block formation policy during operation").
    std::optional<std::vector<std::uint32_t>> pending_quotas_;

    std::uint64_t blocks_cut_ = 0;
    std::uint64_t ttcs_sent_ = 0;
    std::uint64_t stale_ttcs_ = 0;
    std::uint64_t config_updates_ = 0;
    std::uint64_t quota_transfers_ = 0;

    obs::TraceSink* trace_ = nullptr;  // null unless a trace was requested
    std::uint64_t trace_actor_ = 0;
    obs::audit::AuditAccountant* audit_ = nullptr;
};

}  // namespace fl::orderer
