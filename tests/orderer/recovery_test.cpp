// Orderer crash-recovery: an OSN that (re)starts from nothing rebuilds the
// exact chain purely from the queue logs — no timers needed, because every
// cut decision (quota fills and TTC markers) is materialized in the total
// order.  This is the operational payoff of the TTC design: ordering state
// is fully log-determined.
#include <gtest/gtest.h>

#include "mq/broker.h"
#include "orderer/block_generator.h"
#include "orderer/record.h"

namespace fl::orderer {
namespace {

std::shared_ptr<const ledger::Envelope> tx(std::uint64_t id, PriorityLevel level) {
    auto env = std::make_shared<ledger::Envelope>();
    env->proposal.tx_id = TxId{id};
    env->consolidated_priority = level;
    return env;
}

struct Cluster {
    sim::Simulator sim;
    sim::Network net{sim, Rng(11), link()};
    mq::Broker broker{net};
    std::vector<std::string> topics{"p0", "p1", "p2"};

    static sim::LinkParams link() {
        sim::LinkParams p;
        p.base_latency = Duration::micros(200);
        p.jitter_stddev = Duration::micros(50);
        return p;
    }

    Cluster() {
        for (const auto& t : topics) {
            broker.create_topic(t);
        }
    }

    std::unique_ptr<MultiQueueBlockGenerator> make_generator(
        NodeId node, std::vector<std::vector<std::uint64_t>>& out,
        bool send_ttcs) {
        GeneratorConfig cfg;
        cfg.quotas = {4, 6, 2};
        cfg.block_size = 12;
        cfg.timeout = Duration::millis(50);
        MultiQueueBlockGenerator::Subscriptions subs;
        for (const auto& t : topics) {
            subs.push_back(broker.subscribe(t, node));
        }
        return std::make_unique<MultiQueueBlockGenerator>(
            sim, cfg, std::move(subs),
            [this, node, send_ttcs](BlockNumber bn) {
                if (!send_ttcs) return;  // a recovering node stays passive
                for (const auto& t : topics) {
                    broker.produce(t, node, 24, OrderedRecord::time_to_cut(bn, OsnId{7}));
                }
            },
            [&out](CutResult r) {
                std::vector<std::uint64_t> ids;
                for (const auto& env : r.transactions) {
                    ids.push_back(env->proposal.tx_id.value());
                }
                out.push_back(std::move(ids));
            });
    }

    void traffic(int txs) {
        Rng rng(3);
        TimePoint at = TimePoint::origin();
        for (int i = 1; i <= txs; ++i) {
            at += Duration::from_seconds(rng.exponential(0.004));
            const auto level = static_cast<std::size_t>(rng.next_below(3));
            sim.schedule_at(at, [this, level, i] {
                broker.produce(topics[level], NodeId{900}, 100,
                               OrderedRecord::transaction(
                                   tx(static_cast<std::uint64_t>(i),
                                      static_cast<PriorityLevel>(level))));
            });
        }
    }
};

TEST(RecoveryTest, RestartedOsnRebuildsIdenticalChainFromLogs) {
    Cluster c;
    std::vector<std::vector<std::uint64_t>> live_blocks;
    auto live = c.make_generator(NodeId{1}, live_blocks, /*send_ttcs=*/true);
    c.traffic(200);
    c.sim.run();
    ASSERT_FALSE(live_blocks.empty());

    // "Crash recovery": a brand-new OSN subscribes from offset zero after
    // the fact and replays.  It sends no TTCs of its own — the original
    // markers in the logs fully determine every cut.
    std::vector<std::vector<std::uint64_t>> replay_blocks;
    auto replayed = c.make_generator(NodeId{2}, replay_blocks, /*send_ttcs=*/false);
    c.sim.run();

    EXPECT_EQ(replay_blocks, live_blocks);
    EXPECT_EQ(replayed->blocks_cut(), live->blocks_cut());
    EXPECT_EQ(replayed->ttcs_sent(), 0u);
}

TEST(RecoveryTest, MidStreamJoinerConvergesOnRemainingBlocks) {
    Cluster c;
    std::vector<std::vector<std::uint64_t>> live_blocks;
    auto live = c.make_generator(NodeId{1}, live_blocks, /*send_ttcs=*/true);
    c.traffic(200);
    // Let roughly half the traffic flow, then a second OSN joins from
    // offset zero (Kafka consumers always can) and catches up.
    c.sim.run_until(TimePoint::origin() + Duration::from_seconds(0.4));
    std::vector<std::vector<std::uint64_t>> joiner_blocks;
    auto joiner = c.make_generator(NodeId{2}, joiner_blocks, /*send_ttcs=*/true);
    c.sim.run();

    EXPECT_EQ(joiner_blocks, live_blocks);
    EXPECT_EQ(joiner->blocks_cut(), live->blocks_cut());
}

TEST(RecoveryTest, ReplayIsTimerFree) {
    // The replaying generator must never arm a batch timer for already-
    // complete blocks: every block's cut condition is satisfied from log
    // content alone, so recovery latency is bounded by consumption, not by
    // block timeouts.
    Cluster c;
    std::vector<std::vector<std::uint64_t>> live_blocks;
    auto live = c.make_generator(NodeId{1}, live_blocks, /*send_ttcs=*/true);
    c.traffic(100);
    c.sim.run();
    const TimePoint live_done = c.sim.now();

    std::vector<std::vector<std::uint64_t>> replay_blocks;
    auto replayed = c.make_generator(NodeId{2}, replay_blocks, /*send_ttcs=*/false);
    c.sim.run();
    // Replay completes within roughly network-delay time; the clock may
    // additionally drain one armed-then-cancelled 50 ms batch timer, but a
    // timer-driven replay would need one timeout per block (>= 0.4 s here).
    EXPECT_LT((c.sim.now() - live_done).as_seconds(), 0.08);
    EXPECT_EQ(replay_blocks, live_blocks);
    (void)live;
    (void)replayed;
}

}  // namespace
}  // namespace fl::orderer
