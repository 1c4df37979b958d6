// Deterministic simulated-time Raft ordering backend (DESIGN.md §15).
//
// A cluster of N in-simulation Raft nodes replaces the single Kafka-style
// broker behind the OrderingBackend interface.  The replicated state machine
// is the set of priority-topic logs: a client `produce` becomes a Raft log
// entry; once the entry is replicated to a majority and committed it is
// applied — appended to the ordering seam's shared committed topic log
// (orderer::OrderingBackend::append_committed) and fanned out to
// subscribers exactly once, from the current leader.  OSN crash/restart
// replay, TTC semantics, the append hook and the consistency checks all
// read that log, so everything above the interface is backend-agnostic.
//
// Determinism contract (the whole point of this implementation):
//   - consensus messages are zero-delay simulator events scheduled under the
//     sender's domain (the peers share a rack: replication latency is
//     negligible next to the jittered client/OSN links), and the
//     per-message drop stream and every node's election-timeout stream are
//     split from one Rng owned by the cluster — the main network's draw
//     sequence is untouched, which is what makes fault-free Raft runs
//     byte-identical to the mq backend;
//   - election timeouts are seeded-uniform in [min, max) per arming, so
//     leader changes, terms and the entire chaos timeline are a pure
//     function of (config, seed);
//   - timers are quiescence-gated: election and retry timers are armed only
//     while uncommitted client submissions exist (or a reachable follower
//     lags), so the event queue drains and `Simulator::run()` terminates.
//
// Failure semantics:
//   - crash preserves durable Raft state (term, vote, log, snapshot) and
//     invalidates in-flight work via a per-node epoch, mirroring the OSN
//     crash()/restart() discipline;
//   - a partitioned minority leader keeps accepting submissions that can
//     never commit; the cluster retries every uncommitted submission on the
//     next elected leader (Raft's client-session pattern), and commit-time
//     seq dedup makes the retry exactly-once — this is what keeps TTC
//     markers exactly-once under leader change;
//   - snapshots compact node logs only; the committed topic log is the
//     state machine and is retained in full so OSN restart can re-subscribe
//     from offset 0.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "common/types.h"
#include "orderer/ordering_backend.h"
#include "orderer/record.h"
#include "raft/params.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace fl::obs {
class TraceSink;
}

namespace fl::raft {

/// Raft node addresses: node i lives at kRaftNodeBase + i.  Node 0 shares
/// the mq broker's address and bootstraps as leader of term 1, so
/// fault-free produce/fanout traffic traverses the identical links in the
/// identical order as the mq backend (the byte-identity argument).
inline constexpr std::uint64_t kRaftNodeBase = orderer::kOrderingServiceNode;

/// Target sentinel for restart faults: revive every crashed node.
inline constexpr std::uint32_t kAllNodes = 0xFFFFFFFFu;

enum class Role : std::uint8_t { kFollower = 0, kCandidate, kLeader };

class RaftOrderingBackend final : public orderer::OrderingBackend {
public:
    /// `net` is the main simulation network (produce + subscriber fanout —
    /// the same links the mq broker uses); consensus traffic is zero-delay
    /// simulator events.  `rng` must be independent of every other
    /// component stream (FabricNetwork derives it from a seed xor).
    RaftOrderingBackend(sim::Simulator& sim, sim::Network& net, Rng rng,
                        RaftParams params);

    // -- OrderingBackend ----------------------------------------------------
    void produce(const std::string& topic, NodeId producer, std::size_t size_bytes,
                 orderer::OrderedRecord value) override;
    orderer::Offset produce_local(const std::string& topic, std::size_t size_bytes,
                                  orderer::OrderedRecord value) override;
    [[nodiscard]] NodeId node() const override { return NodeId{kRaftNodeBase}; }

    /// Whole-cluster outage: every node crashes (durable state survives);
    /// closing the window restarts them and re-elects.  Submissions during
    /// the window are buffered in arrival order (deferred_appends_total).
    void set_down(bool down) override;
    [[nodiscard]] bool is_down() const override { return down_; }
    [[nodiscard]] std::uint64_t outages() const override { return outages_; }
    [[nodiscard]] std::uint64_t deferred_appends_total() const override {
        return buffered_submits_;
    }

    // -- fault injection ----------------------------------------------------
    /// Crashes the current leader (no-op when leaderless).
    void kill_leader();
    void crash_node(std::uint32_t i);
    /// Restarts node i, or every crashed node when i == kAllNodes.
    void restart_node(std::uint32_t i);
    /// Isolates node i from all peers on the consensus network (client
    /// submissions still reach it — the stale-leader scenario).
    void partition_node(std::uint32_t i);
    /// Clears all partitions and triggers a leader-driven re-sync.
    void heal_partitions();
    /// Seeded per-message drop probability between Raft peers.
    void set_drop_prob(double p);

    void set_trace(obs::TraceSink* sink) { trace_ = sink; }

    // -- statistics (gauges + gates) ----------------------------------------
    [[nodiscard]] std::optional<std::uint32_t> leader() const;
    [[nodiscard]] std::uint64_t current_term() const;
    [[nodiscard]] std::uint64_t leader_changes() const { return leader_changes_; }
    [[nodiscard]] std::uint64_t elections_started() const { return elections_; }
    [[nodiscard]] std::uint64_t commit_index() const { return applied_; }
    /// Leader's last log index minus the slowest *alive* follower's match
    /// index; 0 when leaderless.
    [[nodiscard]] std::uint64_t replication_lag() const;
    [[nodiscard]] std::uint64_t snapshot_installs() const { return snapshot_installs_; }
    [[nodiscard]] std::uint64_t log_truncations() const { return truncations_; }
    [[nodiscard]] std::uint64_t compactions() const { return compactions_; }
    /// Uncommitted submissions re-proposed by a newly elected leader.
    [[nodiscard]] std::uint64_t leader_resubmissions() const { return resubmissions_; }
    /// Committed entries skipped because their seq already applied (the
    /// exactly-once guard firing; > 0 only under leader change).
    [[nodiscard]] std::uint64_t duplicate_commits_skipped() const {
        return dup_commits_skipped_;
    }
    [[nodiscard]] std::uint64_t messages_dropped() const { return messages_dropped_; }
    [[nodiscard]] std::uint64_t consensus_messages() const {
        return consensus_messages_;
    }
    [[nodiscard]] std::uint64_t node_crashes() const { return crashes_; }
    [[nodiscard]] std::uint64_t node_restarts() const { return restarts_; }
    [[nodiscard]] bool node_alive(std::uint32_t i) const { return nodes_[i].alive; }
    [[nodiscard]] std::uint64_t node_term(std::uint32_t i) const {
        return nodes_[i].term;
    }
    [[nodiscard]] std::uint32_t node_count() const {
        return static_cast<std::uint32_t>(nodes_.size());
    }
    /// Uncommitted client submissions (buffered or in some leader's log).
    [[nodiscard]] std::size_t pending_submissions() const { return pending_.size(); }

    /// Safety check for the chaos gates: every pair of node logs must agree
    /// on every index both contain at or below the cluster commit point
    /// (Raft's Log Matching property over the committed prefix).
    [[nodiscard]] bool committed_prefixes_consistent() const;

private:
    static constexpr std::uint32_t kNoLeader = 0xFFFFFFFFu;
    static constexpr std::uint32_t kNoopTopic = 0xFFFFFFFFu;

    struct Entry {
        std::uint64_t term = 0;
        std::uint64_t seq = 0;  ///< client-session id; 0 for leader no-ops
        std::uint32_t topic = kNoopTopic;
        std::size_t wire = 0;
        orderer::OrderedRecord record;
    };

    struct PendingSubmit {
        std::uint32_t topic = 0;
        std::size_t wire = 0;
        orderer::OrderedRecord record;
    };

    struct Node {
        // Durable state (survives crash; Raft's persisted triple + log).
        std::uint64_t term = 1;
        std::optional<std::uint32_t> voted_for;
        std::vector<Entry> log;        ///< global indices [snap+1, snap+size]
        std::uint64_t snap_index = 0;  ///< entries covered by the snapshot
        std::uint64_t snap_term = 0;
        // Volatile state.
        Role role = Role::kFollower;
        bool alive = true;
        std::uint64_t epoch = 0;  ///< bumped on crash/restart; guards in-flight work
        std::uint64_t commit = 0;
        std::uint32_t votes_granted = 0;
        // Leader-volatile state (reinitialized on election).
        std::vector<std::uint64_t> next;
        std::vector<std::uint64_t> match;
        std::vector<std::uint64_t> acked_commit;  ///< follower's acked commit index
        sim::TimerHandle election_timer;
        sim::TimerHandle retry_timer;
        Rng rng{0};  ///< election-timeout stream
    };

    // Log geometry helpers (global, 1-based indices).
    [[nodiscard]] std::uint64_t last_index(const Node& n) const {
        return n.snap_index + n.log.size();
    }
    [[nodiscard]] std::uint64_t term_at(const Node& n, std::uint64_t idx) const;
    [[nodiscard]] const Entry& entry_at(const Node& n, std::uint64_t idx) const;
    [[nodiscard]] NodeId node_id(std::uint32_t i) const {
        return NodeId{kRaftNodeBase + i};
    }
    [[nodiscard]] std::uint32_t majority() const {
        return static_cast<std::uint32_t>(nodes_.size() / 2 + 1);
    }
    [[nodiscard]] bool is_partitioned(std::uint32_t a, std::uint32_t b) const {
        return partitioned_[a] || partitioned_[b];
    }
    [[nodiscard]] bool has_pending_work() const { return !pending_.empty(); }
    [[nodiscard]] bool leader_alive() const {
        return leader_ != kNoLeader && nodes_[leader_].alive;
    }

    // Client path.
    void submit(std::uint32_t topic, std::size_t wire, orderer::OrderedRecord rec);
    void leader_append(std::uint32_t l, std::uint64_t seq, const PendingSubmit& p);

    // Consensus message plumbing (unreliable path: partitions + seeded drop;
    // delivered as a zero-delay event under the sender's domain).
    void rpc(std::uint32_t from, std::uint32_t to, std::function<void()> handler);

    // AppendEntries / InstallSnapshot.
    void sync_followers(std::uint32_t l);
    void send_append(std::uint32_t l, std::uint32_t f);
    void on_append_request(std::uint32_t me, std::uint32_t from,
                           std::uint64_t req_term, std::uint64_t prev,
                           std::uint64_t prev_term, std::vector<Entry> entries,
                           std::uint64_t leader_commit);
    void on_append_reply(std::uint32_t l, std::uint32_t f, std::uint64_t reply_term,
                         bool ok, std::uint64_t match, std::uint64_t hint,
                         std::uint64_t follower_commit);
    void send_install(std::uint32_t l, std::uint32_t f);
    void advance_commit(std::uint32_t l);
    void apply_committed(std::uint32_t l);
    void apply_entry(const Entry& e);
    void maybe_compact();

    // Elections.
    void maybe_arm_election(std::uint32_t i);
    void arm_elections_everywhere();
    void start_election(std::uint32_t i);
    void on_vote_request(std::uint32_t me, std::uint32_t cand,
                         std::uint64_t cand_term, std::uint64_t cand_last_idx,
                         std::uint64_t cand_last_term);
    void on_vote_reply(std::uint32_t cand, std::uint64_t reply_term, bool granted);
    void become_leader(std::uint32_t i);
    void step_down(std::uint32_t i, std::uint64_t new_term);

    // Retry (message loss) + topology changes.
    [[nodiscard]] bool needs_retry(std::uint32_t l) const;
    void maybe_arm_retry(std::uint32_t l);
    void on_topology_change();

    /// Fanout originates at the node that applied the entry: the current
    /// leader, or the contact node when leaderless during replay.
    [[nodiscard]] NodeId fanout_node() const override {
        return leader_alive() ? node_id(leader_) : node();
    }
    void trace_event(std::uint8_t type, std::uint64_t actor, std::uint64_t value,
                     std::uint64_t value2) const;

    sim::Simulator& sim_;
    RaftParams params_;
    Rng drop_rng_{0};
    double drop_prob_ = 0.0;

    std::vector<Node> nodes_;
    std::vector<bool> partitioned_;
    std::uint32_t leader_ = 0;  ///< router's view: newest elected leader

    // Client sessions: seq -> uncommitted submission, in seq (arrival) order.
    std::map<std::uint64_t, PendingSubmit> pending_;
    std::uint64_t next_seq_ = 0;
    std::unordered_map<std::uint32_t, std::uint64_t> pending_by_topic_;

    std::uint64_t applied_ = 0;  ///< cluster commit/apply point (global index)

    obs::TraceSink* trace_ = nullptr;

    bool down_ = false;
    std::vector<std::uint32_t> down_revive_;  ///< nodes crashed by set_down(true)
    std::uint64_t outages_ = 0;
    std::uint64_t buffered_submits_ = 0;
    std::uint64_t leader_changes_ = 0;
    std::uint64_t elections_ = 0;
    std::uint64_t snapshot_installs_ = 0;
    std::uint64_t truncations_ = 0;
    std::uint64_t compactions_ = 0;
    std::uint64_t resubmissions_ = 0;
    std::uint64_t dup_commits_skipped_ = 0;
    std::uint64_t messages_dropped_ = 0;
    std::uint64_t consensus_messages_ = 0;
    std::uint64_t crashes_ = 0;
    std::uint64_t restarts_ = 0;
};

}  // namespace fl::raft
