// Runtime block-formation-policy updates (paper §3.3's online
// reconfiguration, unimplemented in the paper's prototype): a channel
// configuration record travels through the highest-priority queue, so every
// OSN applies the new quotas at the same block boundary.
#include <gtest/gtest.h>

#include "core/fabric_network.h"
#include "harness/workload.h"
#include "mq/broker.h"
#include "orderer/block_generator.h"

namespace fl {
namespace {

// ---------------------------------------------------------- generator level

std::shared_ptr<const ledger::Envelope> tx(std::uint64_t id, PriorityLevel level) {
    auto env = std::make_shared<ledger::Envelope>();
    env->proposal.tx_id = TxId{id};
    env->consolidated_priority = level;
    return env;
}

struct GenFixture {
    sim::Simulator sim;
    sim::Network net{sim, Rng(5), fast_link()};
    mq::Broker broker{net};
    std::vector<orderer::CutResult> cuts;
    std::unique_ptr<orderer::MultiQueueBlockGenerator> gen;

    static sim::LinkParams fast_link() {
        sim::LinkParams p;
        p.base_latency = Duration::micros(10);
        p.jitter_stddev = Duration::zero();
        return p;
    }

    GenFixture() {
        for (int i = 0; i < 2; ++i) {
            broker.create_topic("p" + std::to_string(i));
        }
        orderer::GeneratorConfig cfg;
        cfg.quotas = {3, 1};
        cfg.block_size = 4;
        cfg.timeout = Duration::millis(100);
        orderer::MultiQueueBlockGenerator::Subscriptions subs;
        for (int i = 0; i < 2; ++i) {
            subs.push_back(broker.subscribe("p" + std::to_string(i), NodeId{50}));
        }
        gen = std::make_unique<orderer::MultiQueueBlockGenerator>(
            sim, cfg, std::move(subs),
            [this](BlockNumber bn) {
                for (int i = 0; i < 2; ++i) {
                    broker.produce("p" + std::to_string(i), NodeId{50}, 24,
                                   orderer::OrderedRecord::time_to_cut(bn, OsnId{0}));
                }
            },
            [this](orderer::CutResult r) { cuts.push_back(std::move(r)); });
    }

    void produce_tx(int level, std::uint64_t id) {
        broker.produce("p" + std::to_string(level), NodeId{60}, 100,
                       orderer::OrderedRecord::transaction(
                           tx(id, static_cast<PriorityLevel>(level))));
    }
};

TEST(ConfigUpdateTest, AppliesAtNextBlockBoundary) {
    GenFixture f;
    // Block 0 under 3:1: three high, one low — cut by size.
    for (std::uint64_t i = 1; i <= 3; ++i) f.produce_tx(0, i);
    f.produce_tx(1, 10);
    f.sim.run_until(TimePoint::origin() + Duration::millis(20));
    ASSERT_EQ(f.cuts.size(), 1u);
    EXPECT_EQ(f.cuts[0].per_level_counts, (std::vector<std::uint32_t>{3, 1}));

    // The config record flips the quotas to 1:3.  It is consumed while
    // block 1 is being formed and takes effect from the following block.
    f.broker.produce("p0", NodeId{70}, 64,
                     orderer::OrderedRecord::config_update({1, 3}));
    for (std::uint64_t i = 4; i <= 6; ++i) f.produce_tx(0, i);
    f.produce_tx(1, 11);
    f.sim.run_until(TimePoint::origin() + Duration::millis(40));
    ASSERT_EQ(f.cuts.size(), 2u);
    // Block 1 still used the old 3:1 quotas...
    EXPECT_EQ(f.cuts[1].per_level_counts, (std::vector<std::uint32_t>{3, 1}));
    // ...and the staged update is now in force.
    EXPECT_EQ(f.gen->config_updates_applied(), 1u);
    EXPECT_EQ(f.gen->current_quotas(), (std::vector<std::uint32_t>{1, 3}));

    // Block 2 cuts by size under the new 1:3 policy.
    f.produce_tx(0, 7);
    for (std::uint64_t i = 12; i <= 14; ++i) f.produce_tx(1, i);
    f.sim.run();
    ASSERT_EQ(f.cuts.size(), 3u);
    EXPECT_EQ(f.cuts[2].per_level_counts, (std::vector<std::uint32_t>{1, 3}));
    EXPECT_FALSE(f.cuts[2].by_timeout);
}

TEST(ConfigUpdateTest, ConfigRecordConsumesNoTxSlot) {
    GenFixture f;
    f.broker.produce("p0", NodeId{70}, 64,
                     orderer::OrderedRecord::config_update({2, 2}));
    for (std::uint64_t i = 1; i <= 3; ++i) f.produce_tx(0, i);
    f.produce_tx(1, 10);
    f.sim.run();
    ASSERT_EQ(f.cuts.size(), 1u);
    EXPECT_EQ(f.cuts[0].transactions.size(), 4u);  // full block despite config
}

TEST(ConfigUpdateTest, LastUpdateInBlockWins) {
    GenFixture f;
    f.broker.produce("p0", NodeId{70}, 64,
                     orderer::OrderedRecord::config_update({1, 3}));
    f.broker.produce("p0", NodeId{70}, 64,
                     orderer::OrderedRecord::config_update({2, 2}));
    for (std::uint64_t i = 1; i <= 3; ++i) f.produce_tx(0, i);
    f.produce_tx(1, 10);
    f.sim.run();
    ASSERT_GE(f.cuts.size(), 1u);
    EXPECT_EQ(f.gen->current_quotas(), (std::vector<std::uint32_t>{2, 2}));
}

// ------------------------------------------------------------ network level

TEST(ConfigUpdateTest, AllOsnsSwitchAtSameBoundary) {
    core::NetworkConfig cfg;
    cfg.orgs = 4;
    cfg.osns = 3;
    cfg.clients = 3;
    cfg.seed = 31;
    cfg.channel.priority_enabled = true;
    cfg.channel.block_policy = policy::BlockFormationPolicy::parse("2:3:1");
    cfg.channel.block_size = 60;
    cfg.channel.block_timeout = Duration::millis(200);
    core::FabricNetwork net(cfg);
    net.set_tx_sink([](const client::TxRecord&) {});

    harness::Workload workload;
    for (std::size_t c = 0; c < 3; ++c) {
        harness::LoadSpec load;
        load.client_index = c;
        load.tps = 100.0;
        load.generate = harness::priority_class_mix({1, 2, 1});
        workload.loads.push_back(std::move(load));
    }
    workload.distribute_total(900);
    harness::WorkloadDriver driver(net, std::move(workload), Rng(1));
    driver.start();

    // Mid-run, flip to an aggressive high-priority policy.
    net.simulator().schedule_after(Duration::millis(1200), [&net] {
        net.update_block_policy(policy::BlockFormationPolicy::parse("10:1:1"));
    });
    net.run();

    EXPECT_TRUE(net.osn_blocks_identical());
    EXPECT_TRUE(net.chains_identical());
    for (const auto& osn : net.osns()) {
        ASSERT_NE(osn->generator(), nullptr);
        EXPECT_EQ(osn->generator()->config_updates_applied(), 1u);
        EXPECT_EQ(osn->generator()->current_quotas(),
                  policy::BlockFormationPolicy::parse("10:1:1").quotas(60));
    }
}

TEST(ConfigUpdateTest, RejectedInBaselineMode) {
    core::NetworkConfig cfg;
    cfg.channel.priority_enabled = false;
    core::FabricNetwork net(cfg);
    EXPECT_THROW(
        net.update_block_policy(policy::BlockFormationPolicy::parse("1:1:1")),
        std::logic_error);
}

TEST(ConfigUpdateTest, LevelMismatchRejected) {
    core::NetworkConfig cfg;
    cfg.channel.priority_levels = 3;
    core::FabricNetwork net(cfg);
    EXPECT_THROW(net.update_block_policy(policy::BlockFormationPolicy::parse("1:1")),
                 std::invalid_argument);
}

}  // namespace
}  // namespace fl
