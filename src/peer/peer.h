// Peer node: endorser + committer on the simulated network.
//
// Endorsement path: proposals arrive (network), queue on the peer's CPU
// station (execute + sign cost), run the chaincode against this peer's
// committed state, vote a priority (Priority Calculator) and reply.
//
// Commit path: blocks arrive from the ordering service, are validated one
// block at a time (validation is a serial pipeline whose per-block duration
// models the peer's internal signature-check parallelism), applied to the
// world state, appended to the block store, and committed transactions are
// notified to their submitting clients.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "chaincode/registry.h"
#include "common/rng.h"
#include "crypto/signature.h"
#include "ledger/block_store.h"
#include "ledger/world_state.h"
#include "peer/endorser.h"
#include "peer/priority_calculator.h"
#include "peer/validator.h"
#include "policy/consolidation_policy.h"
#include "sim/cpu.h"
#include "sim/network.h"

namespace fl::obs {
class TraceSink;
}
namespace fl::obs::audit {
class AuditAccountant;
}

namespace fl::peer {

struct PeerParams {
    unsigned cpu_parallelism = 8;

    /// Mean chaincode execute+simulate cost per proposal (exponential).
    Duration endorse_execute_cost = Duration::micros(1500);
    /// Signing the endorsement response.
    Duration endorse_sign_cost = Duration::micros(250);

    /// Per-block validation pipeline costs.  Endorsement-signature checking
    /// dominates and scales with the endorsement count (= peer count here),
    /// which is what makes absolute latency grow with network size in the
    /// paper's Figure 4.
    Duration validate_per_tx_cost = Duration::micros(120);
    Duration verify_per_endorsement_cost = Duration::micros(500);
    Duration commit_per_tx_cost = Duration::micros(60);
    Duration block_overhead_cost = Duration::millis(2);
    /// Effective parallelism of signature verification inside the validator
    /// (Fabric v1.0's VSCC path had very limited concurrency).
    unsigned validation_parallelism = 4;

    /// Extra per-transaction validation cost when priorities are enabled
    /// (consolidation re-check) — part of the scheme's overhead.
    Duration priority_check_per_tx_cost = Duration::micros(15);

    /// Stripe width of this peer's world state (ledger/world_state.h).
    /// Purely an implementation knob: every observable result is identical
    /// at any shard count (DESIGN.md §13); it only moves the lock
    /// granularity / merge-cost trade-off that bench/scale_state sweeps.
    std::size_t state_shards = ledger::WorldState::kDefaultShards;
};

/// Per-commit notification delivered back to the submitting client.
struct CommitNotice {
    TxId tx_id;
    TxValidationCode code = TxValidationCode::kValid;
    PriorityLevel priority = kUnassignedPriority;
    BlockNumber block = 0;
    /// When the ordering service cut the containing block (latency
    /// breakdown: ordering phase ends here).
    TimePoint block_cut_at;
    TimePoint committed_at;
};

class Peer {
public:
    Peer(sim::Simulator& sim, sim::Network& net, const crypto::KeyStore& keys,
         const chaincode::Registry& registry, const policy::ChannelConfig& channel,
         PeerParams params, PeerId id, NodeId node, crypto::Identity identity,
         std::unique_ptr<PriorityCalculator> calculator, Rng rng);

    Peer(const Peer&) = delete;
    Peer& operator=(const Peer&) = delete;

    [[nodiscard]] PeerId id() const { return id_; }
    [[nodiscard]] NodeId node() const { return node_; }
    [[nodiscard]] OrgId org() const { return identity_.org; }
    [[nodiscard]] const crypto::Identity& identity() const { return identity_; }

    /// Endorsement entry point; `reply` fires at this peer when the
    /// endorsement completes (the caller routes it back over the network).
    void handle_proposal(const ledger::Proposal& proposal,
                         std::function<void(EndorsementResult)> reply);

    /// Ordering-service delivery entry point.
    void deliver_block(std::shared_ptr<const ledger::Block> block);

    /// Registers a client for commit notifications of its transactions.
    void register_client(ClientId client, NodeId client_node,
                         std::function<void(CommitNotice)> on_commit);

    [[nodiscard]] const ledger::WorldState& state() const { return state_; }
    [[nodiscard]] const ledger::BlockStore& chain() const { return chain_; }

    /// Test/bootstrap helper: injects a committed key-value pair directly
    /// (version {0,0}), bypassing the pipeline.  Must be applied identically
    /// on every peer before traffic starts.
    void seed_state(const std::string& key, const std::string& value);

    /// Attaches a trace sink (null detaches).  Emit sites branch on null, so
    /// untraced peers pay one predicted-not-taken branch per event site.
    void set_trace(obs::TraceSink* sink) { trace_ = sink; }

    /// Attaches the fairness-audit accountant (null detaches); charges
    /// endorse/validation CPU and state I/O, and reports commit order.
    void set_audit(obs::audit::AuditAccountant* audit) { audit_ = audit; }

    // -- fault injection ----------------------------------------------------
    /// Takes the endorsement service down (true) or up (false).  While down,
    /// proposals are silently dropped — the client's endorsement timeout is
    /// the only signal, exactly like a crashed endorser process.  The commit
    /// path is unaffected: Fabric peers run endorsement and validation as
    /// separate services, and the chaos model faults them independently.
    void set_endorser_down(bool down) { endorser_down_ = down; }
    [[nodiscard]] bool endorser_down() const { return endorser_down_; }

    /// Scales the chaincode-execution cost (1.0 = configured speed).  Models
    /// an overloaded or degraded endorser that still answers, just late.
    void set_endorse_slowdown(double factor) { endorse_slowdown_ = factor; }
    [[nodiscard]] double endorse_slowdown() const { return endorse_slowdown_; }

    /// Proposals dropped while the endorsement service was down.
    [[nodiscard]] std::uint64_t proposals_dropped() const { return proposals_dropped_; }

    // -- statistics ---------------------------------------------------------
    [[nodiscard]] std::uint64_t proposals_endorsed() const { return endorsed_; }
    /// Cumulative simulated CPU time the endorsement station spent busy —
    /// the per-org "shared endorser CPU" meter the multi-channel engine
    /// aggregates across channels at window boundaries (core/multi_channel.h).
    [[nodiscard]] Duration endorse_cpu_busy() const {
        return endorse_cpu_.busy_time();
    }
    [[nodiscard]] std::uint64_t blocks_committed() const { return blocks_committed_; }
    [[nodiscard]] std::uint64_t txs_valid() const { return txs_valid_; }
    [[nodiscard]] std::uint64_t txs_invalid() const { return txs_invalid_; }
    [[nodiscard]] const std::unordered_map<TxValidationCode, std::uint64_t>&
    invalid_by_code() const { return invalid_by_code_; }
    /// Intra-block conflicts where priority order picked the winner.
    [[nodiscard]] std::uint64_t mvcc_priority_wins() const {
        return mvcc_priority_wins_;
    }
    /// Intra-block conflicts resolved by plain arrival order.
    [[nodiscard]] std::uint64_t mvcc_fifo_wins() const { return mvcc_fifo_wins_; }

private:
    struct ClientRoute {
        NodeId node;
        std::function<void(CommitNotice)> on_commit;
    };

    void pump_validation();
    [[nodiscard]] Duration block_validation_cost(const ledger::Block& block) const;
    void commit_block(const ledger::Block& block);
    [[nodiscard]] double observed_load_tps();

    sim::Simulator& sim_;
    sim::Network& net_;
    const crypto::KeyStore& keys_;
    const chaincode::Registry& registry_;
    const policy::ChannelConfig& channel_;
    PeerParams params_;
    PeerId id_;
    NodeId node_;
    crypto::Identity identity_;
    std::unique_ptr<PriorityCalculator> calculator_;
    std::unique_ptr<policy::ConsolidationPolicy> consolidation_;
    Rng rng_;

    sim::CpuStation endorse_cpu_;
    ledger::WorldState state_;
    ledger::BlockStore chain_;
    std::unordered_set<std::uint64_t> seen_tx_ids_;

    std::deque<std::shared_ptr<const ledger::Block>> inbound_blocks_;
    bool validating_ = false;

    std::unordered_map<ClientId, ClientRoute> clients_;

    // load tracking for dynamic calculators
    TimePoint load_window_start_;
    std::uint64_t load_window_count_ = 0;
    double last_window_tps_ = 0.0;

    bool endorser_down_ = false;
    double endorse_slowdown_ = 1.0;
    std::uint64_t proposals_dropped_ = 0;

    std::uint64_t endorsed_ = 0;
    std::uint64_t blocks_committed_ = 0;
    std::uint64_t txs_valid_ = 0;
    std::uint64_t txs_invalid_ = 0;
    std::uint64_t mvcc_priority_wins_ = 0;
    std::uint64_t mvcc_fifo_wins_ = 0;
    std::unordered_map<TxValidationCode, std::uint64_t> invalid_by_code_;

    obs::TraceSink* trace_ = nullptr;
    obs::audit::AuditAccountant* audit_ = nullptr;
};

}  // namespace fl::peer
