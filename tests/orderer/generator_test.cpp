#include "orderer/block_generator.h"

#include <gtest/gtest.h>

#include "mq/broker.h"
#include "orderer/record.h"

namespace fl::orderer {
namespace {

std::shared_ptr<const ledger::Envelope> tx(std::uint64_t id, PriorityLevel level) {
    auto env = std::make_shared<ledger::Envelope>();
    env->proposal.tx_id = TxId{id};
    env->consolidated_priority = level;
    return env;
}

/// Single-OSN generator over an in-process broker with near-zero latency.
struct Fixture {
    sim::Simulator sim;
    sim::Network net{sim, Rng(5), fast_link()};
    mq::Broker broker{net};
    std::vector<CutResult> cuts;
    std::unique_ptr<MultiQueueBlockGenerator> gen;
    OsnId self{0};

    static sim::LinkParams fast_link() {
        sim::LinkParams p;
        p.base_latency = Duration::micros(10);
        p.jitter_stddev = Duration::zero();
        return p;
    }

    void build(std::vector<std::uint32_t> quotas, std::uint32_t block_size,
               Duration timeout = Duration::millis(100)) {
        for (std::size_t i = 0; i < quotas.size(); ++i) {
            broker.create_topic(topic(i));
        }
        GeneratorConfig cfg;
        cfg.quotas = std::move(quotas);
        cfg.block_size = block_size;
        cfg.timeout = timeout;
        MultiQueueBlockGenerator::Subscriptions subs;
        for (std::size_t i = 0; i < cfg.quotas.size(); ++i) {
            subs.push_back(broker.subscribe(topic(i), NodeId{50}));
        }
        gen = std::make_unique<MultiQueueBlockGenerator>(
            sim, cfg, std::move(subs),
            [this, n = cfg.quotas.size()](BlockNumber bn) {
                for (std::size_t i = 0; i < n; ++i) {
                    broker.produce(topic(i), NodeId{50}, 24,
                                   OrderedRecord::time_to_cut(bn, self));
                }
            },
            [this](CutResult r) { cuts.push_back(std::move(r)); });
    }

    static std::string topic(std::size_t level) {
        return "p" + std::to_string(level);
    }

    void produce_tx(std::size_t level, std::uint64_t id) {
        broker.produce(topic(level), NodeId{60}, 100,
                       OrderedRecord::transaction(tx(id, static_cast<PriorityLevel>(level))));
    }

    std::vector<std::uint64_t> block_tx_ids(const CutResult& r) {
        std::vector<std::uint64_t> ids;
        for (const auto& env : r.transactions) {
            ids.push_back(env->proposal.tx_id.value());
        }
        return ids;
    }
};

TEST(GeneratorTest, ConstructionValidation) {
    Fixture f;
    f.broker.create_topic("p0");
    GeneratorConfig cfg;
    cfg.quotas = {10, 10};
    cfg.block_size = 15;  // quotas exceed BS
    MultiQueueBlockGenerator::Subscriptions subs;
    subs.push_back(f.broker.subscribe("p0", NodeId{1}));
    subs.push_back(f.broker.subscribe("p0", NodeId{1}));
    EXPECT_THROW(MultiQueueBlockGenerator(f.sim, cfg, subs, [](BlockNumber) {},
                                          [](CutResult) {}),
                 std::invalid_argument);
    cfg.quotas = {0, 0};
    cfg.block_size = 15;
    EXPECT_THROW(MultiQueueBlockGenerator(f.sim, cfg, subs, [](BlockNumber) {},
                                          [](CutResult) {}),
                 std::invalid_argument);
    cfg.quotas = {10};
    EXPECT_THROW(MultiQueueBlockGenerator(f.sim, cfg, subs, [](BlockNumber) {},
                                          [](CutResult) {}),
                 std::invalid_argument);  // size mismatch with 2 subs
}

TEST(GeneratorTest, CutBySizeWhenAllQuotasFill) {
    Fixture f;
    f.build({2, 3, 1}, 6);
    std::uint64_t id = 0;
    for (std::size_t level = 0; level < 3; ++level) {
        for (std::uint32_t i = 0; i < (level == 0 ? 2u : level == 1 ? 3u : 1u); ++i) {
            f.produce_tx(level, ++id);
        }
    }
    f.sim.run_until(TimePoint::origin() + Duration::millis(50));
    ASSERT_EQ(f.cuts.size(), 1u);
    EXPECT_EQ(f.cuts[0].transactions.size(), 6u);
    EXPECT_FALSE(f.cuts[0].by_timeout);
    EXPECT_EQ(f.cuts[0].per_level_counts, (std::vector<std::uint32_t>{2, 3, 1}));
    EXPECT_EQ(f.gen->ttcs_sent(), 0u);  // never reached timeout
}

TEST(GeneratorTest, CutByTimeoutWithPartialQuotas) {
    Fixture f;
    f.build({2, 3, 1}, 6, Duration::millis(100));
    f.produce_tx(0, 1);  // lone high-priority tx
    f.sim.run();
    ASSERT_EQ(f.cuts.size(), 1u);
    EXPECT_TRUE(f.cuts[0].by_timeout);
    EXPECT_EQ(f.cuts[0].transactions.size(), 1u);
    EXPECT_EQ(f.gen->ttcs_sent(), 1u);
}

TEST(GeneratorTest, NoTrafficNoBlocks) {
    Fixture f;
    f.build({2, 3, 1}, 6, Duration::millis(100));
    f.sim.run();
    EXPECT_TRUE(f.cuts.empty());
    EXPECT_EQ(f.gen->ttcs_sent(), 0u);  // timer never armed
}

TEST(GeneratorTest, BestEffortLevelOnlyViaSurplus) {
    // Policy <4:0:0>: levels 1-2 are best effort.  A lone level-2 tx must
    // still commit after the timeout via surplus transfer.
    Fixture f;
    f.build({4, 0, 0}, 4, Duration::millis(100));
    f.produce_tx(2, 7);
    f.sim.run();
    ASSERT_EQ(f.cuts.size(), 1u);
    EXPECT_EQ(f.block_tx_ids(f.cuts[0]), (std::vector<std::uint64_t>{7}));
    EXPECT_TRUE(f.cuts[0].by_timeout);
}

TEST(GeneratorTest, BestEffortServedAfterReservedLevels) {
    Fixture f;
    f.build({2, 0, 0}, 2, Duration::millis(100));
    // More high-priority than quota plus low-priority extras.
    f.produce_tx(0, 1);
    f.produce_tx(0, 2);
    f.produce_tx(0, 3);
    f.produce_tx(2, 100);
    f.sim.run_until(TimePoint::origin() + Duration::millis(20));
    // First block: quota path with exactly the 2 reserved high-priority txs.
    ASSERT_GE(f.cuts.size(), 1u);
    EXPECT_EQ(f.block_tx_ids(f.cuts[0]), (std::vector<std::uint64_t>{1, 2}));
    f.sim.run();
    // Next block (timeout): leftover high tx first, then the low-priority one.
    ASSERT_EQ(f.cuts.size(), 2u);
    EXPECT_EQ(f.block_tx_ids(f.cuts[1]), (std::vector<std::uint64_t>{3, 100}));
}

TEST(GeneratorTest, SurplusTransfersDownward) {
    // Quotas 2:2:2 but only level 2 has traffic: after timeout the whole
    // block is level-2 transactions (up to the full block size).
    Fixture f;
    f.build({2, 2, 2}, 6, Duration::millis(100));
    for (std::uint64_t i = 1; i <= 5; ++i) {
        f.produce_tx(2, i);
    }
    f.sim.run();
    ASSERT_EQ(f.cuts.size(), 1u);
    EXPECT_EQ(f.block_tx_ids(f.cuts[0]), (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
    EXPECT_EQ(f.cuts[0].per_level_counts[2], 5u);
}

TEST(GeneratorTest, FifoPreservedWithinLevel) {
    Fixture f;
    f.build({3, 3}, 6, Duration::millis(100));
    f.produce_tx(0, 10);
    f.produce_tx(1, 20);
    f.produce_tx(0, 11);
    f.produce_tx(1, 21);
    f.produce_tx(0, 12);
    f.produce_tx(1, 22);
    f.sim.run();
    ASSERT_EQ(f.cuts.size(), 1u);
    // Canonical layout: level 0 txs (FIFO) then level 1 txs (FIFO).
    EXPECT_EQ(f.block_tx_ids(f.cuts[0]),
              (std::vector<std::uint64_t>{10, 11, 12, 20, 21, 22}));
}

TEST(GeneratorTest, ConsecutiveBlocksNumberSequentially) {
    Fixture f;
    f.build({2}, 2, Duration::millis(50));
    for (std::uint64_t i = 1; i <= 6; ++i) {
        f.produce_tx(0, i);
    }
    f.sim.run();
    ASSERT_EQ(f.cuts.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(f.cuts[i].number, i);
        EXPECT_EQ(f.cuts[i].transactions.size(), 2u);
    }
    EXPECT_EQ(f.gen->blocks_cut(), 3u);
}

TEST(GeneratorTest, DuplicateTtcIgnored) {
    Fixture f;
    f.build({4}, 4, Duration::millis(100));
    f.produce_tx(0, 1);
    // Two other OSNs also time out and enqueue TTC for block 0.
    f.sim.schedule_after(Duration::millis(120), [&f] {
        f.broker.produce("p0", NodeId{70}, 24, OrderedRecord::time_to_cut(0, OsnId{1}));
        f.broker.produce("p0", NodeId{71}, 24, OrderedRecord::time_to_cut(0, OsnId{2}));
    });
    f.produce_tx(0, 2);
    f.sim.run();
    // Block 0 cut on the first TTC; the duplicates are skipped as stale by
    // block 1's generation and do not produce an empty block.
    ASSERT_GE(f.cuts.size(), 1u);
    EXPECT_EQ(f.cuts[0].number, 0u);
    for (const auto& cut : f.cuts) {
        EXPECT_FALSE(cut.transactions.empty());
    }
    EXPECT_GE(f.gen->stale_ttcs_skipped(), 1u);
}

TEST(GeneratorTest, TimerNotRearmedAfterTtcSent) {
    Fixture f;
    f.build({10}, 10, Duration::millis(50));
    f.produce_tx(0, 1);
    f.sim.run();
    EXPECT_EQ(f.gen->ttcs_sent(), 1u);  // exactly one TTC for the block
    ASSERT_EQ(f.cuts.size(), 1u);
}

TEST(GeneratorTest, OverloadRespectsQuotasPerBlock) {
    Fixture f;
    f.build({2, 3, 1}, 6, Duration::millis(100));
    // Flood every level with exactly 6 blocks' worth of quota.
    std::uint64_t id = 0;
    const std::uint32_t per_level[] = {12, 18, 6};
    for (std::size_t level = 0; level < 3; ++level) {
        for (std::uint32_t i = 0; i < per_level[level]; ++i) {
            f.produce_tx(level, ++id);
        }
    }
    f.sim.run();
    // 36 txs / 6 per block = 6 blocks, each respecting 2:3:1.
    ASSERT_EQ(f.cuts.size(), 6u);
    for (const auto& cut : f.cuts) {
        EXPECT_EQ(cut.per_level_counts, (std::vector<std::uint32_t>{2, 3, 1}));
        EXPECT_FALSE(cut.by_timeout);
    }
}

TEST(GeneratorTest, SingleQueueBaselineIsFifo) {
    Fixture f;
    f.build({4}, 4, Duration::millis(100));
    for (std::uint64_t i = 1; i <= 4; ++i) {
        f.produce_tx(0, i);
    }
    f.sim.run();
    ASSERT_EQ(f.cuts.size(), 1u);
    EXPECT_EQ(f.block_tx_ids(f.cuts[0]), (std::vector<std::uint64_t>{1, 2, 3, 4}));
}

}  // namespace
}  // namespace fl::orderer
