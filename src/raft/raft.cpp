#include "raft/raft.h"

#include <algorithm>
#include <unordered_set>

#include "common/log.h"
#include "obs/trace.h"

namespace fl::raft {

RaftOrderingBackend::RaftOrderingBackend(sim::Simulator& sim, sim::Network& net,
                                         Rng rng, RaftParams params)
    : OrderingBackend(net), sim_(sim), params_(params), drop_prob_(params.drop_prob) {
    // split() advances the parent: this draw, once the backplane network's
    // jitter seed, keeps the drop and election-timeout streams where they were.
    (void)rng.split("raftnet");
    drop_rng_ = rng.split("raftdrop");
    if (params_.nodes == 0) params_.nodes = 1;
    if (params_.election_timeout_max <= params_.election_timeout_min) {
        params_.election_timeout_max =
            params_.election_timeout_min + Duration::millis(1);
    }
    nodes_.resize(params_.nodes);
    partitioned_.assign(params_.nodes, false);
    for (std::uint32_t i = 0; i < params_.nodes; ++i) {
        nodes_[i].rng = rng.split("raftnode" + std::to_string(i));
    }
    // Node 0 bootstraps as leader of term 1 — modelling an election that
    // completed before the experiment window opens.  Fault-free runs
    // therefore never buffer a produce, and the cluster contact address
    // (kRaftNodeBase) is the leader from the first event on.
    Node& boot = nodes_[0];
    boot.role = Role::kLeader;
    boot.next.assign(params_.nodes, 1);
    boot.match.assign(params_.nodes, 0);
    boot.acked_commit.assign(params_.nodes, 0);
    leader_ = 0;
}

// -- log geometry -----------------------------------------------------------

std::uint64_t RaftOrderingBackend::term_at(const Node& n, std::uint64_t idx) const {
    if (idx == 0) return 0;
    if (idx == n.snap_index) return n.snap_term;
    return n.log.at(idx - n.snap_index - 1).term;
}

const RaftOrderingBackend::Entry& RaftOrderingBackend::entry_at(
    const Node& n, std::uint64_t idx) const {
    return n.log.at(idx - n.snap_index - 1);
}

// -- OrderingBackend surface ------------------------------------------------

void RaftOrderingBackend::produce(const std::string& topic, NodeId producer,
                                  std::size_t size_bytes,
                                  orderer::OrderedRecord value) {
    const std::uint32_t tid = topic_id(topic);
    const std::size_t wire = size_bytes + orderer::kRecordOverheadBytes;
    // Same call shape as the mq broker: one reliable hop from the producer
    // to the cluster contact, so the main network draws the identical jitter
    // sequence under either backend.
    net_.send_reliable(producer, node(), wire,
                       [this, tid, wire, value = std::move(value)]() mutable {
                           submit(tid, wire, std::move(value));
                       });
}

orderer::Offset RaftOrderingBackend::produce_local(const std::string& topic,
                                                   std::size_t size_bytes,
                                                   orderer::OrderedRecord value) {
    const std::uint32_t tid = topic_id(topic);
    const std::size_t wire = size_bytes + orderer::kRecordOverheadBytes;
    auto off = static_cast<orderer::Offset>(log_size(tid));
    if (const auto it = pending_by_topic_.find(tid); it != pending_by_topic_.end()) {
        off += it->second;  // in-flight submissions land first
    }
    submit(tid, wire, std::move(value));
    return off;
}

void RaftOrderingBackend::set_down(bool down) {
    if (down_ == down) return;
    down_ = down;
    if (down) {
        ++outages_;
        down_revive_.clear();
        for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
            if (nodes_[i].alive) {
                down_revive_.push_back(i);
                crash_node(i);
            }
        }
        return;
    }
    for (const std::uint32_t i : down_revive_) {
        restart_node(i);
    }
    down_revive_.clear();
}

// -- client path ------------------------------------------------------------

void RaftOrderingBackend::submit(std::uint32_t topic, std::size_t wire,
                                 orderer::OrderedRecord rec) {
    const std::uint64_t seq = ++next_seq_;
    const auto [it, inserted] =
        pending_.emplace(seq, PendingSubmit{topic, wire, std::move(rec)});
    ++pending_by_topic_[topic];
    if (leader_alive()) {
        leader_append(leader_, seq, it->second);
    } else {
        // Leaderless window (crash, outage, not-yet-elected): buffer in
        // arrival order; the next elected leader proposes the backlog.
        ++buffered_submits_;
    }
    // Followers keep a (seeded) election timer armed while uncommitted work
    // exists — this is the leader-failure detector, and the only way a
    // minority-partitioned leader's stalled submissions trigger the
    // majority side to elect a successor.
    arm_elections_everywhere();
}

void RaftOrderingBackend::leader_append(std::uint32_t l, std::uint64_t seq,
                                        const PendingSubmit& p) {
    Node& ldr = nodes_[l];
    Entry e;
    e.term = ldr.term;
    e.seq = seq;
    e.topic = p.topic;
    e.wire = p.wire;
    e.record = p.record;
    ldr.log.push_back(std::move(e));
    sync_followers(l);
    advance_commit(l);  // single-node clusters commit synchronously
    maybe_arm_retry(l);
}

// -- consensus transport ----------------------------------------------------

void RaftOrderingBackend::rpc(std::uint32_t from, std::uint32_t to,
                              std::function<void()> handler) {
    Node& dst = nodes_[to];
    if (!dst.alive) return;  // a dead process receives nothing
    if (is_partitioned(from, to)) {
        ++messages_dropped_;
        return;
    }
    if (drop_prob_ > 0.0 && drop_rng_.chance(drop_prob_)) {
        ++messages_dropped_;
        return;
    }
    ++consensus_messages_;
    sim_.schedule_after(
        Duration::zero(),
        [this, to, epoch = dst.epoch, handler = std::move(handler)] {
            // Epoch guard: datagrams sent before a crash never reach the
            // restarted incarnation (mirrors the OSN in-flight-work guard).
            if (!nodes_[to].alive || nodes_[to].epoch != epoch) return;
            handler();
        });
}

// -- replication ------------------------------------------------------------

void RaftOrderingBackend::sync_followers(std::uint32_t l) {
    Node& ldr = nodes_[l];
    for (std::uint32_t f = 0; f < nodes_.size(); ++f) {
        if (f == l || !nodes_[f].alive) continue;
        if (ldr.next[f] > last_index(ldr) && ldr.acked_commit[f] >= ldr.commit) {
            continue;  // caught up and knows it — nothing to tell
        }
        send_append(l, f);
    }
}

void RaftOrderingBackend::send_append(std::uint32_t l, std::uint32_t f) {
    Node& ldr = nodes_[l];
    if (!nodes_[f].alive) return;
    if (ldr.next[f] <= ldr.snap_index) {
        send_install(l, f);
        return;
    }
    const std::uint64_t prev = ldr.next[f] - 1;
    const std::uint64_t prev_term = term_at(ldr, prev);
    std::vector<Entry> entries;
    for (std::uint64_t idx = prev + 1; idx <= last_index(ldr); ++idx) {
        entries.push_back(entry_at(ldr, idx));
    }
    rpc(l, f,
        [this, f, l, term = ldr.term, prev, prev_term, entries = std::move(entries),
         commit = ldr.commit]() mutable {
            on_append_request(f, l, term, prev, prev_term, std::move(entries), commit);
        });
}

void RaftOrderingBackend::on_append_request(std::uint32_t me, std::uint32_t from,
                                            std::uint64_t req_term,
                                            std::uint64_t prev,
                                            std::uint64_t prev_term,
                                            std::vector<Entry> entries,
                                            std::uint64_t leader_commit) {
    Node& n = nodes_[me];
    if (req_term < n.term) {
        // Stale leader: refuse and carry our newer term so it steps down.
        rpc(me, from, [this, from, me, term = n.term] {
            on_append_reply(from, me, term, false, 0, 0, 0);
        });
        return;
    }
    if (req_term > n.term || n.role != Role::kFollower) {
        step_down(me, req_term);
    }
    n.election_timer.cancel();  // heard from the leader of our term

    bool ok = false;
    std::uint64_t match = 0;
    std::uint64_t hint = 0;
    // The snapshotted prefix is committed, hence matches by definition; skip
    // any batch overlap below it.
    if (prev < n.snap_index) {
        const std::uint64_t skip =
            std::min<std::uint64_t>(n.snap_index - prev, entries.size());
        entries.erase(entries.begin(),
                      entries.begin() + static_cast<std::ptrdiff_t>(skip));
        prev += skip;
        if (prev == n.snap_index) prev_term = n.snap_term;
    }
    if (prev > last_index(n)) {
        hint = last_index(n);  // follower is short: jump straight back
    } else if (prev > n.snap_index && term_at(n, prev) != prev_term) {
        hint = prev - 1;  // conflicting history: back up one
    } else if (prev < n.snap_index) {
        ok = true;  // batch ended inside our snapshot — all committed
        match = prev + entries.size();
    } else {
        ok = true;
        std::uint64_t idx = prev;
        for (Entry& e : entries) {
            ++idx;
            if (idx <= last_index(n)) {
                if (term_at(n, idx) == e.term) continue;  // already present
                // Conflict: truncate our uncommitted suffix (Raft §5.3).
                n.log.erase(n.log.begin() +
                                static_cast<std::ptrdiff_t>(idx - n.snap_index - 1),
                            n.log.end());
                ++truncations_;
            }
            n.log.push_back(std::move(e));
        }
        match = idx;
        const std::uint64_t new_commit =
            std::min<std::uint64_t>(leader_commit, last_index(n));
        if (new_commit > n.commit) n.commit = new_commit;
        maybe_compact();
    }
    rpc(me, from, [this, from, me, term = n.term, ok, match, hint, commit = n.commit] {
        on_append_reply(from, me, term, ok, match, hint, commit);
    });
    maybe_arm_election(me);
}

void RaftOrderingBackend::on_append_reply(std::uint32_t l, std::uint32_t f,
                                          std::uint64_t reply_term, bool ok,
                                          std::uint64_t match, std::uint64_t hint,
                                          std::uint64_t follower_commit) {
    Node& ldr = nodes_[l];
    if (!ldr.alive || ldr.role != Role::kLeader) return;
    if (reply_term > ldr.term) {
        step_down(l, reply_term);
        return;
    }
    if (reply_term < ldr.term) return;  // stale reply from an older exchange
    ldr.acked_commit[f] = follower_commit;
    if (ok) {
        if (match > ldr.match[f]) ldr.match[f] = match;
        ldr.next[f] = std::max<std::uint64_t>(ldr.next[f], ldr.match[f] + 1);
        advance_commit(l);
        if (ldr.next[f] <= last_index(ldr) || ldr.acked_commit[f] < ldr.commit) {
            send_append(l, f);  // ship the rest / publish the new commit
        }
    } else {
        ldr.next[f] = std::max<std::uint64_t>(
            1, std::min<std::uint64_t>(hint + 1, ldr.next[f] - 1));
        send_append(l, f);
    }
    maybe_arm_retry(l);
}

void RaftOrderingBackend::send_install(std::uint32_t l, std::uint32_t f) {
    Node& ldr = nodes_[l];
    rpc(l, f, [this, f, l, term = ldr.term, s_idx = ldr.snap_index,
               s_term = ldr.snap_term] {
        Node& n = nodes_[f];
        if (term < n.term) {
            rpc(f, l, [this, l, f, t = n.term] {
                on_append_reply(l, f, t, false, 0, 0, 0);
            });
            return;
        }
        if (term > n.term || n.role != Role::kFollower) step_down(f, term);
        n.election_timer.cancel();
        if (s_idx > n.snap_index) {
            if (s_idx >= last_index(n)) {
                n.log.clear();
            } else {
                n.log.erase(n.log.begin(), n.log.begin() + static_cast<std::ptrdiff_t>(
                                                               s_idx - n.snap_index));
            }
            n.snap_index = s_idx;
            n.snap_term = s_term;
            if (s_idx > n.commit) n.commit = s_idx;
            ++snapshot_installs_;
            trace_event(static_cast<std::uint8_t>(obs::EventType::kRaftSnapshot), f,
                        s_idx, s_term);
        }
        rpc(f, l, [this, l, f, t = n.term, m = n.snap_index, c = n.commit] {
            on_append_reply(l, f, t, true, m, 0, c);
        });
        maybe_arm_election(f);
    });
}

void RaftOrderingBackend::advance_commit(std::uint32_t l) {
    Node& ldr = nodes_[l];
    std::vector<std::uint64_t> reached;
    reached.reserve(nodes_.size());
    for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
        // A crashed follower's durable log still holds what it acked.
        reached.push_back(i == l ? last_index(ldr) : ldr.match[i]);
    }
    std::sort(reached.begin(), reached.end(), std::greater<>());
    const std::uint64_t candidate = reached[majority() - 1];
    // Only entries of the leader's own term commit by counting (§5.4.2);
    // earlier-term entries commit transitively underneath them.
    if (candidate > ldr.commit && term_at(ldr, candidate) == ldr.term) {
        ldr.commit = candidate;
        apply_committed(l);
        sync_followers(l);  // publish the new commit index
    }
}

void RaftOrderingBackend::apply_committed(std::uint32_t l) {
    Node& ldr = nodes_[l];
    while (applied_ < ldr.commit) {
        ++applied_;
        apply_entry(entry_at(ldr, applied_));
    }
    maybe_compact();
}

void RaftOrderingBackend::apply_entry(const Entry& e) {
    if (e.seq == 0) return;  // leader no-op: term boundary only
    const auto it = pending_.find(e.seq);
    if (it == pending_.end()) {
        // Already applied under an earlier log index: a leader-change
        // retry committed twice in the log; the session dedup makes
        // delivery exactly-once.
        ++dup_commits_skipped_;
        return;
    }
    FL_TRACE("raft: apply seq " << e.seq << " to topic " << e.topic);
    append_committed(e.topic, e.wire, e.record);
    if (const auto cnt = pending_by_topic_.find(e.topic);
        cnt != pending_by_topic_.end() && cnt->second > 0) {
        --cnt->second;
    }
    pending_.erase(it);
}

void RaftOrderingBackend::maybe_compact() {
    if (params_.snapshot_threshold == 0) return;
    for (Node& n : nodes_) {
        if (!n.alive) continue;  // a crashed process cannot compact
        const std::uint64_t point = std::min(n.commit, applied_);
        if (point <= n.snap_index) continue;
        if (point - n.snap_index < params_.snapshot_threshold) continue;
        n.snap_term = term_at(n, point);
        n.log.erase(n.log.begin(),
                    n.log.begin() + static_cast<std::ptrdiff_t>(point - n.snap_index));
        n.snap_index = point;
        ++compactions_;
    }
}

// -- elections --------------------------------------------------------------

void RaftOrderingBackend::maybe_arm_election(std::uint32_t i) {
    Node& n = nodes_[i];
    if (!n.alive || n.role == Role::kLeader) return;
    if (n.election_timer.active()) return;
    if (!has_pending_work()) return;  // quiescence gate: nothing to elect for
    const double timeout_s =
        n.rng.uniform(params_.election_timeout_min.as_seconds(),
                      params_.election_timeout_max.as_seconds());
    n.election_timer = sim_.schedule_timer(
        Duration::from_seconds(timeout_s), [this, i, epoch = n.epoch] {
            Node& node = nodes_[i];
            if (!node.alive || node.epoch != epoch) return;
            if (node.role == Role::kLeader) return;
            if (!has_pending_work()) return;  // backlog drained meanwhile
            start_election(i);
        });
}

void RaftOrderingBackend::arm_elections_everywhere() {
    if (!has_pending_work()) return;
    for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
        maybe_arm_election(i);
    }
}

void RaftOrderingBackend::start_election(std::uint32_t i) {
    Node& n = nodes_[i];
    n.role = Role::kCandidate;
    ++n.term;
    n.voted_for = i;
    n.votes_granted = 1;
    ++elections_;
    trace_event(static_cast<std::uint8_t>(obs::EventType::kRaftElection), i,
                n.term, 0);
    FL_DEBUG("raft: node " << i << " starts election, term " << n.term);
    if (n.votes_granted >= majority()) {
        become_leader(i);
        return;
    }
    for (std::uint32_t f = 0; f < nodes_.size(); ++f) {
        if (f == i) continue;
        rpc(i, f, [this, f, i, term = n.term, last_idx = last_index(n),
                   last_trm = term_at(n, last_index(n))] {
            on_vote_request(f, i, term, last_idx, last_trm);
        });
    }
    maybe_arm_election(i);  // re-arm for the split-vote retry
}

void RaftOrderingBackend::on_vote_request(std::uint32_t me, std::uint32_t cand,
                                          std::uint64_t cand_term,
                                          std::uint64_t cand_last_idx,
                                          std::uint64_t cand_last_term) {
    Node& n = nodes_[me];
    if (cand_term > n.term) step_down(me, cand_term);
    bool grant = false;
    if (cand_term == n.term && n.role == Role::kFollower &&
        (!n.voted_for || *n.voted_for == cand)) {
        // Election restriction (§5.4.1): only grant to logs at least as
        // up-to-date as ours, so a leader always holds every committed entry.
        const std::uint64_t my_last_term = term_at(n, last_index(n));
        const bool up_to_date =
            cand_last_term > my_last_term ||
            (cand_last_term == my_last_term && cand_last_idx >= last_index(n));
        if (up_to_date) {
            grant = true;
            n.voted_for = cand;
            n.election_timer.cancel();
            maybe_arm_election(me);
        }
    }
    rpc(me, cand, [this, cand, term = n.term, grant] {
        on_vote_reply(cand, term, grant);
    });
}

void RaftOrderingBackend::on_vote_reply(std::uint32_t cand,
                                        std::uint64_t reply_term, bool granted) {
    Node& n = nodes_[cand];
    if (!n.alive || n.role != Role::kCandidate) return;
    if (reply_term > n.term) {
        step_down(cand, reply_term);
        return;
    }
    if (reply_term < n.term) return;
    if (granted && ++n.votes_granted >= majority()) {
        become_leader(cand);
    }
}

void RaftOrderingBackend::become_leader(std::uint32_t i) {
    Node& n = nodes_[i];
    n.role = Role::kLeader;
    n.election_timer.cancel();
    n.next.assign(nodes_.size(), last_index(n) + 1);
    n.match.assign(nodes_.size(), 0);
    n.acked_commit.assign(nodes_.size(), 0);
    leader_ = i;
    ++leader_changes_;
    trace_event(static_cast<std::uint8_t>(obs::EventType::kRaftLeaderElected), i,
                n.term, leader_changes_);
    FL_DEBUG("raft: node " << i << " elected leader, term " << n.term);
    // No-op entry of the new term so the previous terms' entries underneath
    // it commit by counting (§5.4.2).
    Entry noop;
    noop.term = n.term;
    n.log.push_back(std::move(noop));
    // Client-session retry: re-propose every uncommitted submission the new
    // log does not already carry, in arrival order.  Commit-time seq dedup
    // keeps delivery exactly-once even when the old leader's copy survives.
    std::unordered_set<std::uint64_t> in_log;
    for (const Entry& e : n.log) {
        if (e.seq != 0) in_log.insert(e.seq);
    }
    for (const auto& [seq, p] : pending_) {
        if (in_log.contains(seq)) continue;
        ++resubmissions_;
        leader_append(i, seq, p);
    }
    sync_followers(i);
    advance_commit(i);
    maybe_arm_retry(i);
}

void RaftOrderingBackend::step_down(std::uint32_t i, std::uint64_t new_term) {
    Node& n = nodes_[i];
    if (new_term > n.term) {
        n.term = new_term;
        n.voted_for.reset();
    }
    n.role = Role::kFollower;
    n.votes_granted = 0;
    n.retry_timer.cancel();
    if (leader_ == i) leader_ = kNoLeader;
    maybe_arm_election(i);
}

// -- retries + topology -----------------------------------------------------

bool RaftOrderingBackend::needs_retry(std::uint32_t l) const {
    const Node& ldr = nodes_[l];
    for (std::uint32_t f = 0; f < nodes_.size(); ++f) {
        if (f == l || !nodes_[f].alive || is_partitioned(l, f)) continue;
        if (ldr.next[f] <= last_index(ldr)) return true;
        if (ldr.acked_commit[f] < ldr.commit) return true;
    }
    return false;
}

void RaftOrderingBackend::maybe_arm_retry(std::uint32_t l) {
    Node& n = nodes_[l];
    if (!n.alive || n.role != Role::kLeader) return;
    if (n.retry_timer.active()) return;
    if (!needs_retry(l)) return;
    n.retry_timer =
        sim_.schedule_timer(params_.retry_interval, [this, l, epoch = n.epoch] {
            Node& node = nodes_[l];
            if (!node.alive || node.epoch != epoch) return;
            if (node.role != Role::kLeader) return;
            if (!needs_retry(l)) return;  // acks arrived meanwhile — drain
            sync_followers(l);
            maybe_arm_retry(l);
        });
}

void RaftOrderingBackend::on_topology_change() {
    if (leader_alive()) {
        sync_followers(leader_);
        maybe_arm_retry(leader_);
        return;
    }
    arm_elections_everywhere();
}

// -- fault injection --------------------------------------------------------

void RaftOrderingBackend::kill_leader() {
    if (!leader_alive()) return;
    crash_node(leader_);
}

void RaftOrderingBackend::crash_node(std::uint32_t i) {
    Node& n = nodes_[i];
    if (!n.alive) return;
    n.alive = false;
    ++n.epoch;  // invalidates every in-flight rpc addressed to this node
    n.election_timer.cancel();
    n.retry_timer.cancel();
    n.role = Role::kFollower;
    n.votes_granted = 0;
    ++crashes_;
    if (leader_ == i) leader_ = kNoLeader;
    FL_DEBUG("raft: node " << i << " crashed");
    arm_elections_everywhere();
}

void RaftOrderingBackend::restart_node(std::uint32_t i) {
    if (i == kAllNodes) {
        for (std::uint32_t j = 0; j < nodes_.size(); ++j) {
            if (!nodes_[j].alive) restart_node(j);
        }
        return;
    }
    i %= nodes_.size();
    Node& n = nodes_[i];
    if (n.alive) return;
    n.alive = true;
    ++n.epoch;
    n.role = Role::kFollower;
    n.votes_granted = 0;
    ++restarts_;
    FL_DEBUG("raft: node " << i << " restarted (term " << n.term << ", log to "
                           << last_index(n) << ")");
    on_topology_change();
}

void RaftOrderingBackend::partition_node(std::uint32_t i) {
    partitioned_[i % nodes_.size()] = true;
    arm_elections_everywhere();
}

void RaftOrderingBackend::heal_partitions() {
    partitioned_.assign(nodes_.size(), false);
    on_topology_change();
}

void RaftOrderingBackend::set_drop_prob(double p) {
    drop_prob_ = p;
    if (p <= 0.0) on_topology_change();  // re-sync whatever the drops lost
}

// -- statistics -------------------------------------------------------------

std::optional<std::uint32_t> RaftOrderingBackend::leader() const {
    if (!leader_alive()) return std::nullopt;
    return leader_;
}

std::uint64_t RaftOrderingBackend::current_term() const {
    std::uint64_t t = 0;
    for (const Node& n : nodes_) t = std::max(t, n.term);
    return t;
}

std::uint64_t RaftOrderingBackend::replication_lag() const {
    if (!leader_alive()) return 0;
    const Node& ldr = nodes_[leader_];
    std::uint64_t lag = 0;
    for (std::uint32_t f = 0; f < nodes_.size(); ++f) {
        if (f == leader_ || !nodes_[f].alive) continue;
        const std::uint64_t match = ldr.match[f];
        if (last_index(ldr) > match) lag = std::max(lag, last_index(ldr) - match);
    }
    return lag;
}

bool RaftOrderingBackend::committed_prefixes_consistent() const {
    for (std::uint32_t a = 0; a < nodes_.size(); ++a) {
        for (std::uint32_t b = a + 1; b < nodes_.size(); ++b) {
            const Node& na = nodes_[a];
            const Node& nb = nodes_[b];
            const std::uint64_t lo = std::max(na.snap_index, nb.snap_index) + 1;
            const std::uint64_t hi =
                std::min({last_index(na), last_index(nb), applied_});
            for (std::uint64_t idx = lo; idx <= hi; ++idx) {
                const Entry& ea = entry_at(na, idx);
                const Entry& eb = entry_at(nb, idx);
                if (ea.term != eb.term || ea.seq != eb.seq) return false;
            }
        }
    }
    return true;
}

void RaftOrderingBackend::trace_event(std::uint8_t type, std::uint64_t actor,
                                      std::uint64_t value,
                                      std::uint64_t value2) const {
    if (trace_ == nullptr) return;
    obs::TraceEvent ev;
    ev.at = sim_.now();
    ev.type = static_cast<obs::EventType>(type);
    ev.actor_kind = obs::ActorKind::kRaft;
    ev.actor = actor;
    ev.value = value;
    ev.value2 = value2;
    trace_->emit(ev);
}

}  // namespace fl::raft
