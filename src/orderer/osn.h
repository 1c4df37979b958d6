// Ordering Service Node (OSN).
//
// Receives endorsed envelopes broadcast by clients, runs the Priority
// Consolidator, produces each transaction into the Kafka-equivalent topic of
// its consolidated priority level, and independently runs the Multi-Queue
// Block Generator over all priority topics.  Cut blocks are assembled
// (hashes computed), chained, and delivered to the peers connected to this
// OSN.
//
// With `channel.priority_enabled == false` the same node degrades to the
// vanilla Fabric Kafka orderer: a single topic, no consolidation work, FIFO
// blocks — the baseline of every figure.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "crypto/signature.h"
#include "ledger/block.h"
#include "mq/broker.h"
#include "orderer/block_generator.h"
#include "orderer/consolidator.h"
#include "orderer/ordering_backend.h"
#include "orderer/record.h"
#include "policy/channel_config.h"
#include "sim/cpu.h"
#include "sim/network.h"

namespace fl::obs {
class TraceSink;
}

namespace fl::orderer {

struct OsnParams {
    unsigned cpu_parallelism = 4;

    /// Consume-loop cost per queue record — the ordering service's
    /// throughput bound.  2.13 ms/record puts capacity (~470 tps) right at
    /// the paper's 500 tps knee: below it the system is comfortable, at and
    /// above it queues grow in the ordering service's priority topics.
    Duration consume_per_record_cost = Duration::micros(2130);
    /// Extra consume-loop work per record in priority mode (multi-queue
    /// bookkeeping) — part of the scheme's measured overhead.
    Duration priority_consume_overhead = Duration::micros(10);

    /// Consume-loop prefetch burst (records); see GeneratorConfig.
    std::uint32_t consume_burst = 256;

    /// Per-envelope ingestion cost in baseline mode (no consolidation).
    Duration ingest_per_tx_cost = Duration::micros(20);
    /// Priority-mode extra work: consolidation bookkeeping per transaction
    /// plus signature verification per endorsement.
    Duration consolidate_per_tx_cost = Duration::micros(40);
    Duration consolidate_per_endorsement_cost = Duration::micros(25);

    /// Block assembly (hashing, serialization) — serial per OSN.
    Duration assembly_overhead_cost = Duration::micros(500);
    Duration assembly_per_tx_cost = Duration::micros(8);
    /// Extra per-block bookkeeping for the multi-queue generator.
    Duration multiqueue_per_block_cost = Duration::micros(200);

    /// This OSN's local-clock offset (the paper's unsynchronized timers).
    Duration clock_skew = Duration::zero();

    /// Verify endorsement signatures during consolidation (crash-fault
    /// orderers are trusted; committers re-verify regardless).
    bool verify_endorsements = false;

    /// Fault-injection: a byzantine orderer that stamps every transaction
    /// with the highest priority instead of the consolidated value.  The
    /// paper's §3.3 byzantine note: committers re-derive the consolidation
    /// from the signed endorser votes, so such promotions are invalidated
    /// at validation time (kBadPriorityConsolidation).
    bool byzantine_promote_all = false;
};

class Osn {
public:
    using BrokerT = mq::Broker<OrderedRecord>;

    /// Primary constructor: the OSN orders through any OrderingBackend
    /// (Kafka-style broker or the Raft cluster, DESIGN.md §15).
    Osn(sim::Simulator& sim, sim::Network& net, OrderingBackend& backend,
        const crypto::KeyStore& keys, const policy::ChannelConfig& channel,
        OsnParams params, OsnId id, NodeId node);

    /// Convenience overload for direct-broker call sites (unit tests, the
    /// pre-refactor API): owns a MqOrderingBackend adapter internally.
    Osn(sim::Simulator& sim, sim::Network& net, BrokerT& broker,
        const crypto::KeyStore& keys, const policy::ChannelConfig& channel,
        OsnParams params, OsnId id, NodeId node);

    Osn(const Osn&) = delete;
    Osn& operator=(const Osn&) = delete;

    /// Subscribes to the channel topics and starts the block generator.
    /// Topics must already exist on the broker.
    void start();

    /// Fault injection: crash the OSN.  All volatile ordering state (block
    /// generator, consume positions, chained hashes) is lost; the broker log
    /// — the durable state in the Kafka design — survives.  In-flight CPU
    /// work is invalidated via an epoch counter.  Idempotent.
    void crash();

    /// Fault injection: restart after a crash.  Re-subscribes to every topic
    /// from offset 0 and replays the log, Kafka-style: cuts are determined
    /// by log positions alone, so the rebuilt chain must match what was cut
    /// before the crash (verified against the pre-crash hashes; replayed
    /// blocks are not re-delivered to peers).  Idempotent.
    void restart();

    /// Client entry point (called after client->OSN network delay).
    void broadcast(std::shared_ptr<const ledger::Envelope> envelope);

    /// Registers a peer delivery target; blocks are pushed over the network.
    void connect_peer(NodeId peer_node,
                      std::function<void(std::shared_ptr<const ledger::Block>)> deliver);

    /// Submits a channel-configuration transaction changing the block
    /// formation policy at run time (paper §3.3's two motivating scenarios;
    /// their prototype left this unimplemented).  The update is produced
    /// into the highest-priority queue — §4: configuration transactions
    /// execute at the highest priority — so every OSN applies it at the
    /// same block boundary.  Requires priority mode and a policy with the
    /// same number of levels.  Note: delivery assumes the top level keeps a
    /// non-zero quota (true for every practical policy).
    void submit_config_update(const policy::BlockFormationPolicy& new_policy);

    /// Attaches a trace sink (null detaches); forwarded to the block
    /// generator, so this works both before and after start().
    void set_trace(obs::TraceSink* sink);

    /// Attaches the fairness-audit accountant (null detaches); forwarded to
    /// the block generator like set_trace, and re-forwarded on restart().
    void set_audit(obs::audit::AuditAccountant* audit);

    [[nodiscard]] OsnId id() const { return id_; }
    [[nodiscard]] NodeId node() const { return node_; }

    // -- statistics ---------------------------------------------------------
    [[nodiscard]] bool alive() const { return alive_; }
    [[nodiscard]] std::uint64_t crashes() const { return crashes_; }
    [[nodiscard]] std::uint64_t restarts() const { return restarts_; }
    /// Envelopes that arrived while crashed (clients must resubmit).
    [[nodiscard]] std::uint64_t dropped_broadcasts() const { return dropped_broadcasts_; }
    /// Replayed blocks whose hash differed from the pre-crash chain — any
    /// non-zero value is a determinism bug (asserted by the chaos tests).
    [[nodiscard]] std::uint64_t replay_hash_mismatches() const {
        return replay_hash_mismatches_;
    }
    [[nodiscard]] std::uint64_t envelopes_received() const { return received_; }
    [[nodiscard]] std::uint64_t consolidation_failures() const { return consolidation_failures_; }
    [[nodiscard]] std::uint64_t blocks_delivered() const { return blocks_delivered_; }
    [[nodiscard]] const MultiQueueBlockGenerator* generator() const {
        return generator_.get();
    }
    /// Header hashes of all blocks this OSN has cut (consistency checks).
    [[nodiscard]] const std::vector<crypto::Digest>& block_hashes() const {
        return block_hashes_;
    }
    /// Per-level counts across all cut blocks.
    [[nodiscard]] const std::vector<std::uint64_t>& level_totals() const {
        return level_totals_;
    }

private:
    struct PeerRoute {
        NodeId node;
        std::function<void(std::shared_ptr<const ledger::Block>)> deliver;
    };

    Osn(sim::Simulator& sim, sim::Network& net,
        std::unique_ptr<OrderingBackend> owned, OrderingBackend* external,
        const crypto::KeyStore& keys, const policy::ChannelConfig& channel,
        OsnParams params, OsnId id, NodeId node);

    void send_ttc(BlockNumber block);
    void on_cut(CutResult result);

    sim::Simulator& sim_;
    sim::Network& net_;
    std::unique_ptr<OrderingBackend> owned_backend_;  ///< broker-overload adapter
    OrderingBackend& ordering_;
    const policy::ChannelConfig& channel_;
    OsnParams params_;
    OsnId id_;
    NodeId node_;

    sim::CpuStation ingest_cpu_;
    sim::CpuStation assembly_cpu_;  // parallelism 1: blocks assemble in order
    std::optional<Consolidator> consolidator_;
    std::unique_ptr<MultiQueueBlockGenerator> generator_;
    std::vector<PeerRoute> peers_;

    std::optional<crypto::Digest> last_hash_;
    std::vector<crypto::Digest> block_hashes_;
    std::vector<std::uint64_t> level_totals_;

    bool alive_ = true;
    /// Bumped on crash and restart; CPU-station lambdas capture the value at
    /// submission and no-op when it no longer matches (stale work).
    std::uint64_t epoch_ = 0;
    /// Pre-crash chain, moved out of block_hashes_ on restart unless a crash
    /// mid-replay left block_hashes_ shorter; replayed blocks are checked
    /// against it and not re-delivered.
    std::vector<crypto::Digest> replay_expected_;
    /// Blocks whose per-level counts were already added to level_totals_
    /// (high-water mark so replay does not double-count).
    std::uint64_t levels_counted_ = 0;
    std::uint64_t crashes_ = 0;
    std::uint64_t restarts_ = 0;
    std::uint64_t dropped_broadcasts_ = 0;
    std::uint64_t replay_hash_mismatches_ = 0;

    std::uint64_t received_ = 0;
    std::uint64_t consolidation_failures_ = 0;
    std::uint64_t blocks_delivered_ = 0;

    obs::TraceSink* trace_ = nullptr;
    obs::audit::AuditAccountant* audit_ = nullptr;
};

}  // namespace fl::orderer
