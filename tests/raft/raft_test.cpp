// Unit tests for the deterministic simulated-time Raft ordering backend:
// fault-free replication, leader failover, the stale-minority-leader
// scenario, whole-cluster outages, snapshot install for lagging followers,
// exactly-once apply under leader-change retries, and quiescence (every
// scenario must drain — a perpetual timer would hang sim.run()).
#include "raft/raft.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "orderer/record.h"
#include "ordering_records.h"

namespace fl::raft {
namespace {

using orderer::OrderedRecord;
using ordering_test::drain_ids;
using ordering_test::rec;
using ordering_test::tx_ids;

struct Fixture {
    explicit Fixture(RaftParams params = {}, std::uint64_t seed = 7)
        : raft(sim, net, Rng(seed), params) {
        raft.create_topic("t");
    }

    static sim::LinkParams link() {
        sim::LinkParams p;
        p.base_latency = Duration::micros(500);
        p.jitter_stddev = Duration::micros(100);
        return p;
    }

    sim::Simulator sim;
    sim::Network net{sim, Rng(3), link()};
    RaftOrderingBackend raft;
};

TEST(RaftTest, FaultFreeRunCommitsInOrderWithoutElections) {
    Fixture f;
    auto sub = f.raft.subscribe("t", NodeId{50});
    for (std::uint64_t i = 0; i < 10; ++i) f.raft.produce_local("t", 100, rec(i));
    f.sim.run();

    EXPECT_EQ(f.raft.topic_size("t"), 10u);
    EXPECT_EQ(tx_ids(f.raft.log_of("t")),
              (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
    ASSERT_TRUE(f.raft.leader().has_value());
    EXPECT_EQ(*f.raft.leader(), 0u);  // bootstrap leader still in office
    EXPECT_EQ(f.raft.current_term(), 1u);
    EXPECT_EQ(f.raft.elections_started(), 0u);
    EXPECT_EQ(f.raft.leader_changes(), 0u);
    EXPECT_EQ(f.raft.pending_submissions(), 0u);
    EXPECT_EQ(f.raft.replication_lag(), 0u);
    EXPECT_EQ(f.raft.duplicate_commits_skipped(), 0u);
    EXPECT_TRUE(f.raft.committed_prefixes_consistent());
    // The subscriber saw every record, in offset order.
    EXPECT_EQ(drain_ids(*sub).size(), 10u);
}

TEST(RaftTest, ProduceWithNetworkHopAlsoCommits) {
    Fixture f;
    for (std::uint64_t i = 0; i < 5; ++i) {
        f.raft.produce("t", NodeId{300}, 100, rec(i));
    }
    f.sim.run();
    EXPECT_EQ(f.raft.topic_size("t"), 5u);
    EXPECT_EQ(f.raft.commit_index(), 5u + 0u);  // no no-ops in term 1
}

TEST(RaftTest, SubscribeBoundarySemanticsMatchTheBroker) {
    Fixture f;
    for (std::uint64_t i = 0; i < 3; ++i) f.raft.produce_local("t", 100, rec(i));
    f.sim.run();
    // Offset == size is the live tail; past it is a caller bug.
    auto tail = f.raft.subscribe("t", NodeId{50}, 3);
    EXPECT_THROW((void)f.raft.subscribe("t", NodeId{50}, 4), std::out_of_range);
    auto mid = f.raft.subscribe("t", NodeId{51}, 1);
    f.sim.run();
    EXPECT_FALSE(tail->has_ready());
    EXPECT_EQ(drain_ids(*mid), (std::vector<std::uint64_t>{1, 2}));
    EXPECT_THROW((void)f.raft.read("t", 3), std::out_of_range);
    EXPECT_EQ(f.raft.read("t", 0).envelope->tx_id().value(), 0u);
}

TEST(RaftTest, LeaderCrashMidReplicationElectsAndCommitsExactlyOnce) {
    Fixture f;
    // Submit with the appends still in flight, then crash the leader at the
    // same instant: the followers hold the entries, the leader is gone.
    for (std::uint64_t i = 0; i < 4; ++i) f.raft.produce_local("t", 100, rec(i));
    f.raft.kill_leader();
    EXPECT_FALSE(f.raft.leader().has_value());
    f.sim.run();

    EXPECT_GE(f.raft.elections_started(), 1u);
    EXPECT_GE(f.raft.leader_changes(), 1u);
    ASSERT_TRUE(f.raft.leader().has_value());
    EXPECT_NE(*f.raft.leader(), 0u);
    EXPECT_GE(f.raft.current_term(), 2u);
    // Every submission applied exactly once, in arrival order.
    EXPECT_EQ(tx_ids(f.raft.log_of("t")), (std::vector<std::uint64_t>{0, 1, 2, 3}));
    EXPECT_EQ(f.raft.pending_submissions(), 0u);
    EXPECT_TRUE(f.raft.committed_prefixes_consistent());
}

TEST(RaftTest, SubmissionsDuringLeaderlessWindowAreBufferedThenOrdered) {
    Fixture f;
    f.raft.kill_leader();
    for (std::uint64_t i = 0; i < 6; ++i) f.raft.produce_local("t", 100, rec(i));
    EXPECT_EQ(f.raft.deferred_appends_total(), 6u);
    f.sim.run();

    EXPECT_EQ(tx_ids(f.raft.log_of("t")),
              (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5}));
    // The elected leader proposed the whole backlog itself.
    EXPECT_EQ(f.raft.leader_resubmissions(), 6u);
    EXPECT_EQ(f.raft.duplicate_commits_skipped(), 0u);
}

TEST(RaftTest, PartitionedMinorityLeaderIsSupersededAndTruncated) {
    Fixture f;
    // Isolate the leader; clients can still reach it, so it keeps accepting
    // submissions that can never commit.
    f.raft.partition_node(0);
    for (std::uint64_t i = 0; i < 5; ++i) f.raft.produce_local("t", 100, rec(i));
    f.sim.run();

    // The majority side elected a successor, which re-proposed every
    // uncommitted submission (none of them had reached its log).
    ASSERT_TRUE(f.raft.leader().has_value());
    EXPECT_NE(*f.raft.leader(), 0u);
    EXPECT_GE(f.raft.current_term(), 2u);
    EXPECT_EQ(f.raft.leader_resubmissions(), 5u);
    EXPECT_EQ(tx_ids(f.raft.log_of("t")),
              (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
    EXPECT_EQ(f.raft.duplicate_commits_skipped(), 0u);
    EXPECT_EQ(f.raft.node_term(0), 1u);  // stale leader still in its old term

    // Heal: the stale leader hears the higher term, steps down, and its
    // never-committed suffix is truncated in favor of the winner's log.
    f.raft.heal_partitions();
    f.sim.run();
    EXPECT_GE(f.raft.log_truncations(), 1u);
    EXPECT_TRUE(f.raft.committed_prefixes_consistent());
    EXPECT_EQ(f.raft.topic_size("t"), 5u);  // still exactly once
    EXPECT_EQ(f.raft.replication_lag(), 0u);
}

TEST(RaftTest, WholeClusterOutageBuffersAndRecovers) {
    Fixture f;
    f.raft.produce_local("t", 100, rec(100));
    f.sim.run();

    f.raft.set_down(true);
    EXPECT_TRUE(f.raft.is_down());
    EXPECT_EQ(f.raft.outages(), 1u);
    for (std::uint64_t i = 0; i < 4; ++i) f.raft.produce_local("t", 100, rec(i));
    EXPECT_EQ(f.raft.deferred_appends_total(), 4u);
    EXPECT_EQ(f.raft.topic_size("t"), 1u);

    f.raft.set_down(false);
    f.sim.run();
    EXPECT_EQ(tx_ids(f.raft.log_of("t")),
              (std::vector<std::uint64_t>{100, 0, 1, 2, 3}));
    EXPECT_GE(f.raft.leader_changes(), 1u);  // the cluster re-elected
    EXPECT_TRUE(f.raft.committed_prefixes_consistent());
}

TEST(RaftTest, CrashedFollowerCatchesUpViaSnapshotInstall) {
    RaftParams params;
    params.snapshot_threshold = 8;
    Fixture f(params);
    f.raft.crash_node(2);
    for (std::uint64_t i = 0; i < 20; ++i) f.raft.produce_local("t", 100, rec(i));
    f.sim.run();

    // Majority (nodes 0+1) committed everything and compacted past the
    // crashed follower's position.
    EXPECT_EQ(f.raft.topic_size("t"), 20u);
    EXPECT_GE(f.raft.compactions(), 1u);

    f.raft.restart_node(2);
    f.sim.run();
    EXPECT_GE(f.raft.snapshot_installs(), 1u);
    EXPECT_TRUE(f.raft.node_alive(2));
    EXPECT_EQ(f.raft.replication_lag(), 0u);
    EXPECT_TRUE(f.raft.committed_prefixes_consistent());
}

TEST(RaftTest, RestartedFollowerWithoutCompactionReplaysTheLog) {
    Fixture f;  // default threshold 4096: no compaction in this run
    f.raft.crash_node(1);
    for (std::uint64_t i = 0; i < 10; ++i) f.raft.produce_local("t", 100, rec(i));
    f.sim.run();
    EXPECT_EQ(f.raft.topic_size("t"), 10u);

    f.raft.restart_node(1);
    f.sim.run();
    EXPECT_EQ(f.raft.snapshot_installs(), 0u);
    EXPECT_EQ(f.raft.replication_lag(), 0u);
    EXPECT_TRUE(f.raft.committed_prefixes_consistent());
}

TEST(RaftTest, MessageDropsAreRetriedToCompletion) {
    RaftParams params;
    params.drop_prob = 0.2;
    Fixture f(params);
    auto sub = f.raft.subscribe("t", NodeId{50});
    for (std::uint64_t i = 0; i < 25; ++i) f.raft.produce_local("t", 100, rec(i));
    f.sim.run();

    EXPECT_GT(f.raft.messages_dropped(), 0u);
    EXPECT_EQ(f.raft.topic_size("t"), 25u);
    EXPECT_EQ(f.raft.pending_submissions(), 0u);
    EXPECT_EQ(f.raft.replication_lag(), 0u);
    EXPECT_EQ(drain_ids(*sub).size(), 25u);  // exactly once despite the lossy backplane
}

TEST(RaftTest, SingleNodeClusterCommitsSynchronously) {
    RaftParams params;
    params.nodes = 1;
    Fixture f(params);
    EXPECT_EQ(f.raft.produce_local("t", 100, rec(1)), 0u);
    EXPECT_EQ(f.raft.topic_size("t"), 1u);  // no peers to wait for
    EXPECT_EQ(f.raft.elections_started(), 0u);
    f.sim.run();
    EXPECT_EQ(f.raft.consensus_messages(), 0u);
}

TEST(RaftTest, FiveNodeClusterSurvivesTwoCrashes) {
    RaftParams params;
    params.nodes = 5;
    Fixture f(params);
    f.raft.crash_node(3);
    f.raft.kill_leader();
    for (std::uint64_t i = 0; i < 8; ++i) f.raft.produce_local("t", 100, rec(i));
    f.sim.run();
    EXPECT_EQ(f.raft.topic_size("t"), 8u);
    ASSERT_TRUE(f.raft.leader().has_value());
    EXPECT_TRUE(f.raft.committed_prefixes_consistent());
}

TEST(RaftTest, SameSeedSameTimelineDifferentSeedDifferentElections) {
    // The entire chaos timeline — who wins, in which term, after how many
    // elections — is a pure function of the seed.
    const auto run = [](std::uint64_t seed) {
        Fixture f(RaftParams{}, seed);
        f.raft.kill_leader();
        for (std::uint64_t i = 0; i < 6; ++i) f.raft.produce_local("t", 100, rec(i));
        f.sim.run();
        return std::tuple(*f.raft.leader(), f.raft.current_term(),
                          f.raft.elections_started(), f.raft.consensus_messages());
    };
    EXPECT_EQ(run(7), run(7));
    bool any_differs = false;
    const auto base = run(7);
    for (std::uint64_t seed : {8u, 9u, 10u, 11u}) {
        any_differs = any_differs || run(seed) != base;
    }
    EXPECT_TRUE(any_differs);
}

TEST(RaftTest, TtcMarkersStayExactlyOnceUnderLeaderChange) {
    // TTC markers are submissions like any other: a leader change mid-flight
    // must not duplicate or drop them (the block-cut-consistency hazard).
    Fixture f;
    f.raft.produce_local("t", 100, rec(1));
    f.raft.produce_local("t", 24, OrderedRecord::time_to_cut(0, OsnId{0}));
    f.raft.produce_local("t", 24, OrderedRecord::time_to_cut(0, OsnId{1}));
    f.raft.kill_leader();
    f.sim.run();

    const auto& log = f.raft.log_of("t");
    ASSERT_EQ(log.size(), 3u);
    int ttcs = 0;
    for (const OrderedRecord& r : log) ttcs += r.is_ttc();
    EXPECT_EQ(ttcs, 2);
    EXPECT_EQ(f.raft.duplicate_commits_skipped(), 0u);
}

}  // namespace
}  // namespace fl::raft
