// Edge cases of the Kafka stand-in: offset-range errors, empty-topic
// consumption, unavailability windows, expired subscribers, and duplicate
// time-to-cut markers inside one block window.
#include "mq/broker.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "orderer/block_generator.h"
#include "orderer/record.h"
#include "ordering_records.h"

namespace fl::mq {
namespace {

using ordering_test::drain_ids;
using ordering_test::rec;
using ordering_test::tx_ids;
using Ids = std::vector<std::uint64_t>;

struct Fixture {
    sim::Simulator sim;
    sim::Network net{sim, Rng(3), make_link()};
    Broker broker{net};

    static sim::LinkParams make_link() {
        sim::LinkParams p;
        p.base_latency = Duration::micros(500);
        p.jitter_stddev = Duration::micros(100);
        return p;
    }
};

TEST(BrokerEdgeTest, SubscribePastEndOfTopicThrowsOutOfRange) {
    Fixture f;
    f.broker.create_topic("t");
    for (std::uint64_t i = 0; i < 3; ++i) f.broker.produce_local("t", 10, rec(i));
    EXPECT_THROW((void)f.broker.subscribe("t", NodeId{5}, 4), std::out_of_range);
    EXPECT_THROW((void)f.broker.subscribe("t", NodeId{5}, 1000), std::out_of_range);
}

TEST(BrokerEdgeTest, SubscribeAtEndOfTopicSeesOnlyNewRecords) {
    Fixture f;
    f.broker.create_topic("t");
    for (std::uint64_t i = 0; i < 3; ++i) f.broker.produce_local("t", 10, rec(i));
    // Offset == size is the live tail, not an error (Kafka's "latest").
    auto sub = f.broker.subscribe("t", NodeId{5}, 3);
    f.sim.run();
    EXPECT_FALSE(sub->has_ready());
    f.broker.produce("t", NodeId{1}, 10, rec(99));
    f.sim.run();
    ASSERT_TRUE(sub->has_ready());
    EXPECT_EQ(sub->peek_offset(), 3u);
    EXPECT_EQ(sub->pop().envelope->tx_id().value(), 99u);
}

TEST(BrokerEdgeTest, SubscribeFromMidLogReplaysSuffixOnly) {
    Fixture f;
    f.broker.create_topic("t");
    for (std::uint64_t i = 0; i < 5; ++i) f.broker.produce_local("t", 10, rec(i * 10));
    auto sub = f.broker.subscribe("t", NodeId{5}, 2);
    f.sim.run();
    EXPECT_EQ(drain_ids(*sub), (Ids{20, 30, 40}));
}

TEST(BrokerEdgeTest, ReadUnknownTopicThrowsInvalidArgument) {
    Fixture f;
    EXPECT_THROW((void)f.broker.read("ghost", 0), std::invalid_argument);
}

TEST(BrokerEdgeTest, ReadOutOfRangeOffsetThrowsOutOfRange) {
    Fixture f;
    f.broker.create_topic("t");
    EXPECT_THROW((void)f.broker.read("t", 0), std::out_of_range);
    f.broker.produce_local("t", 10, rec(7));
    EXPECT_EQ(f.broker.read("t", 0).envelope->tx_id().value(), 7u);
    EXPECT_THROW((void)f.broker.read("t", 1), std::out_of_range);
}

TEST(BrokerEdgeTest, EmptyTopicConsumeIsEmptyAndPopThrows) {
    Fixture f;
    f.broker.create_topic("t");
    auto sub = f.broker.subscribe("t", NodeId{5});
    f.sim.run();
    EXPECT_FALSE(sub->has_ready());
    EXPECT_EQ(sub->ready_count(), 0u);
    EXPECT_THROW((void)sub->pop(), std::logic_error);
}

TEST(BrokerEdgeTest, ConsumingPastEndOfTopicThrows) {
    Fixture f;
    f.broker.create_topic("t");
    auto sub = f.broker.subscribe("t", NodeId{5});
    f.broker.produce("t", NodeId{1}, 10, rec(1));
    f.sim.run();
    EXPECT_EQ(sub->pop().envelope->tx_id().value(), 1u);
    EXPECT_THROW((void)sub->pop(), std::logic_error);  // nothing past the end
}

TEST(BrokerEdgeTest, OutageDefersAppendsAndFlushesInArrivalOrder) {
    Fixture f;
    f.broker.create_topic("t");
    auto sub = f.broker.subscribe("t", NodeId{5});
    f.broker.produce_local("t", 10, rec(1));

    f.broker.set_down(true);
    EXPECT_TRUE(f.broker.is_down());
    f.broker.produce_local("t", 10, rec(2));
    f.broker.produce_local("t", 10, rec(3));
    EXPECT_EQ(f.broker.topic_size("t"), 1u);  // deferred, not appended
    EXPECT_EQ(f.broker.deferred_appends_total(), 2u);

    f.broker.set_down(false);
    EXPECT_EQ(f.broker.topic_size("t"), 3u);
    EXPECT_EQ(tx_ids(f.broker.log_of("t")), (Ids{1, 2, 3}));
    f.sim.run();
    EXPECT_EQ(drain_ids(*sub), (Ids{1, 2, 3}));
}

TEST(BrokerEdgeTest, OutageTransitionsAreIdempotentAndCounted) {
    Fixture f;
    f.broker.create_topic("t");
    f.broker.set_down(true);
    f.broker.set_down(true);  // no second outage
    EXPECT_EQ(f.broker.outages(), 1u);
    f.broker.set_down(false);
    f.broker.set_down(false);
    EXPECT_FALSE(f.broker.is_down());
    f.broker.set_down(true);
    EXPECT_EQ(f.broker.outages(), 2u);
    f.broker.set_down(false);
}

TEST(BrokerEdgeTest, DeferredProducesClaimDistinctOffsets) {
    // Regression: during an outage every produce_local used to report
    // log.records.size() — so all deferred appends claimed the same slot.
    // The promised offset must account for deferred records ahead of it.
    Fixture f;
    f.broker.create_topic("t");
    f.broker.create_topic("u");
    EXPECT_EQ(f.broker.produce_local("t", 10, rec(1)), 0u);

    f.broker.set_down(true);
    EXPECT_EQ(f.broker.produce_local("t", 10, rec(2)), 1u);
    EXPECT_EQ(f.broker.produce_local("t", 10, rec(3)), 2u);
    // A different topic's deferred queue does not shift this topic's offsets.
    EXPECT_EQ(f.broker.produce_local("u", 10, rec(9)), 0u);
    EXPECT_EQ(f.broker.produce_local("t", 10, rec(4)), 3u);

    f.broker.set_down(false);
    EXPECT_EQ(tx_ids(f.broker.log_of("t")), (Ids{1, 2, 3, 4}));
    EXPECT_EQ(tx_ids(f.broker.log_of("u")), (Ids{9}));
}

TEST(BrokerEdgeTest, SubscribeDuringOutageReceivesTheFlush) {
    // A consumer that subscribes mid-outage sees the committed prefix only;
    // deferred records arrive like any other post-subscribe append.
    Fixture f;
    f.broker.create_topic("t");
    f.broker.produce_local("t", 10, rec(1));

    f.broker.set_down(true);
    f.broker.produce_local("t", 10, rec(2));
    auto sub = f.broker.subscribe("t", NodeId{5});
    // Offset == committed size is legal during the outage too: the deferred
    // record is not yet part of the log.
    auto tail = f.broker.subscribe("t", NodeId{6}, 1);
    // ...but the deferred append's eventual offset is still out of range.
    EXPECT_THROW((void)f.broker.subscribe("t", NodeId{7}, 2), std::out_of_range);

    f.broker.set_down(false);
    f.sim.run();
    EXPECT_EQ(drain_ids(*sub), (Ids{1, 2}));
    EXPECT_EQ(drain_ids(*tail), (Ids{2}));
}

TEST(BrokerEdgeTest, ExpiredSubscriberIsPrunedNotPushed) {
    Fixture f;
    f.broker.create_topic("t");
    auto keep = f.broker.subscribe("t", NodeId{5});
    {
        auto dropped = f.broker.subscribe("t", NodeId{6});
    }  // consumer gone (e.g. a crashed OSN's generator)
    f.broker.produce_local("t", 10, rec(1));
    f.broker.produce_local("t", 10, rec(2));
    f.sim.run();
    EXPECT_EQ(keep->ready_count(), 2u);
    EXPECT_EQ(f.broker.topic_size("t"), 2u);
}

// -- duplicate TTC markers in one block window -------------------------------

std::shared_ptr<const ledger::Envelope> tx(std::uint64_t id, PriorityLevel level) {
    auto env = std::make_shared<ledger::Envelope>();
    env->proposal.tx_id = TxId{id};
    env->consolidated_priority = level;
    return env;
}

TEST(BrokerEdgeTest, DuplicateTtcMarkersInOneWindowCutExactlyOnce) {
    // Two TTC markers for the same block number land in every queue inside
    // one window (e.g. two OSN timers fired before either marker was
    // consumed).  Exactly one block must be cut for that number, and the
    // generator must not wedge or emit an extra empty block.
    sim::Simulator sim;
    sim::LinkParams link;
    link.base_latency = Duration::micros(10);
    link.jitter_stddev = Duration::zero();
    sim::Network net(sim, Rng(5), link);
    Broker broker(net);
    broker.create_topic("p0");
    broker.create_topic("p1");

    std::vector<orderer::CutResult> cuts;
    orderer::GeneratorConfig cfg;
    cfg.quotas = {2, 2};
    cfg.block_size = 4;
    cfg.timeout = Duration::seconds(100);  // local timer never fires
    orderer::MultiQueueBlockGenerator::Subscriptions subs;
    subs.push_back(broker.subscribe("p0", NodeId{50}));
    subs.push_back(broker.subscribe("p1", NodeId{50}));
    orderer::MultiQueueBlockGenerator gen(
        sim, cfg, std::move(subs), [](BlockNumber) {},
        [&cuts](orderer::CutResult r) { cuts.push_back(std::move(r)); });

    broker.produce_local("p0", 100, orderer::OrderedRecord::transaction(tx(1, 0)));
    broker.produce_local("p1", 100, orderer::OrderedRecord::transaction(tx(2, 1)));
    for (int dup = 0; dup < 2; ++dup) {
        broker.produce_local("p0", 24,
                             orderer::OrderedRecord::time_to_cut(0, OsnId{0}));
        broker.produce_local("p1", 24,
                             orderer::OrderedRecord::time_to_cut(0, OsnId{1}));
    }
    sim.run();

    ASSERT_EQ(cuts.size(), 1u);
    EXPECT_EQ(cuts[0].number, 0u);
    EXPECT_TRUE(cuts[0].by_timeout);
    EXPECT_EQ(cuts[0].transactions.size(), 2u);

    // The generator is still healthy: the next window cuts block 1.
    broker.produce_local("p0", 100, orderer::OrderedRecord::transaction(tx(3, 0)));
    broker.produce_local("p0", 24, orderer::OrderedRecord::time_to_cut(1, OsnId{0}));
    broker.produce_local("p1", 24, orderer::OrderedRecord::time_to_cut(1, OsnId{0}));
    sim.run();
    ASSERT_EQ(cuts.size(), 2u);
    EXPECT_EQ(cuts[1].number, 1u);
    EXPECT_EQ(cuts[1].transactions.size(), 1u);
}

}  // namespace
}  // namespace fl::mq
