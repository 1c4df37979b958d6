#include "mq/broker.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ordering_records.h"

namespace fl::mq {
namespace {

using orderer::Subscription;
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
        p.jitter_stddev = Duration::micros(100);  // deliberately reorder-prone
        return p;
    }
};

TEST(BrokerTest, UnknownTopicThrows) {
    Fixture f;
    EXPECT_THROW(f.broker.produce("ghost", NodeId{1}, 10, rec(42)), std::invalid_argument);
    EXPECT_THROW((void)f.broker.subscribe("ghost", NodeId{1}), std::invalid_argument);
    EXPECT_THROW((void)f.broker.log_of("ghost"), std::invalid_argument);
}

TEST(BrokerTest, CreateTopicIdempotent) {
    Fixture f;
    f.broker.create_topic("t");
    f.broker.create_topic("t");
    EXPECT_TRUE(f.broker.has_topic("t"));
    EXPECT_EQ(f.broker.topic_size("t"), 0u);
}

TEST(BrokerTest, ProduceAppendsInArrivalOrder) {
    Fixture f;
    f.broker.create_topic("t");
    for (std::uint64_t i = 0; i < 20; ++i) {
        f.broker.produce("t", NodeId{1}, 10, rec(i));
    }
    f.sim.run();
    EXPECT_EQ(f.broker.topic_size("t"), 20u);
}

TEST(BrokerTest, SubscriberReceivesAllInLogOrder) {
    Fixture f;
    f.broker.create_topic("t");
    auto sub = f.broker.subscribe("t", NodeId{5});
    for (std::uint64_t i = 0; i < 50; ++i) {
        f.broker.produce("t", NodeId{1}, 10, rec(i));
    }
    f.sim.run();
    // Jitter may reorder pushes in flight; the subscription must still
    // deliver in offset order.
    const Ids received = drain_ids(*sub);
    const Ids log = tx_ids(f.broker.log_of("t"));
    EXPECT_EQ(received, log);
    ASSERT_EQ(received.size(), 50u);
    for (std::size_t i = 1; i < received.size(); ++i) {
        // Values equal the log sequence, which is total order.
        EXPECT_EQ(log[i], received[i]);
    }
}

TEST(BrokerTest, AllSubscribersSeeSameSequence) {
    Fixture f;
    f.broker.create_topic("t");
    auto s1 = f.broker.subscribe("t", NodeId{5});
    auto s2 = f.broker.subscribe("t", NodeId{6});
    auto s3 = f.broker.subscribe("t", NodeId{7});
    // Interleave producers.
    for (std::uint64_t i = 0; i < 30; ++i) {
        f.broker.produce("t", NodeId{1 + i % 3}, 10, rec(i * 7));
    }
    f.sim.run();
    const Ids seq1 = drain_ids(*s1);
    const Ids seq2 = drain_ids(*s2);
    const Ids seq3 = drain_ids(*s3);
    EXPECT_EQ(seq1, seq2);
    EXPECT_EQ(seq2, seq3);
    EXPECT_EQ(seq1.size(), 30u);
}

TEST(BrokerTest, LateSubscriberReplaysFromBeginning) {
    Fixture f;
    f.broker.create_topic("t");
    for (std::uint64_t i = 0; i < 10; ++i) {
        f.broker.produce("t", NodeId{1}, 10, rec(i));
    }
    f.sim.run();
    auto sub = f.broker.subscribe("t", NodeId{9});
    f.sim.run();
    EXPECT_EQ(drain_ids(*sub), tx_ids(f.broker.log_of("t")));
}

TEST(BrokerTest, PeekDoesNotConsume) {
    Fixture f;
    f.broker.create_topic("t");
    auto sub = f.broker.subscribe("t", NodeId{5});
    f.broker.produce("t", NodeId{1}, 10, rec(99));
    f.sim.run();
    ASSERT_TRUE(sub->has_ready());
    EXPECT_EQ(sub->peek().envelope->tx_id().value(), 99u);
    EXPECT_EQ(sub->peek_offset(), 0u);
    EXPECT_EQ(sub->ready_count(), 1u);
    EXPECT_EQ(sub->pop().envelope->tx_id().value(), 99u);
    EXPECT_FALSE(sub->has_ready());
}

TEST(BrokerTest, EmptySubscriptionAccessThrows) {
    Subscription sub;
    EXPECT_THROW((void)sub.peek(), std::logic_error);
    EXPECT_THROW((void)sub.peek_offset(), std::logic_error);
    EXPECT_THROW((void)sub.pop(), std::logic_error);
}

TEST(BrokerTest, OnReadyFiresOnArrival) {
    Fixture f;
    f.broker.create_topic("t");
    auto sub = f.broker.subscribe("t", NodeId{5});
    int signals = 0;
    sub->set_on_ready([&] { ++signals; });
    for (std::uint64_t i = 0; i < 5; ++i) {
        f.broker.produce("t", NodeId{1}, 10, rec(i));
    }
    f.sim.run();
    EXPECT_GE(signals, 1);
    EXPECT_EQ(sub->ready_count(), 5u);
}

TEST(BrokerTest, DroppedSubscriptionDoesNotCrash) {
    Fixture f;
    f.broker.create_topic("t");
    {
        auto sub = f.broker.subscribe("t", NodeId{5});
        f.broker.produce("t", NodeId{1}, 10, rec(1));
    }  // subscription destroyed with a push in flight
    f.broker.produce("t", NodeId{1}, 10, rec(2));
    f.sim.run();
    EXPECT_EQ(f.broker.topic_size("t"), 2u);
}

TEST(BrokerTest, ProduceLocalIsImmediateAndOrdered) {
    Fixture f;
    f.broker.create_topic("t");
    EXPECT_EQ(f.broker.produce_local("t", 10, rec(5)), 0u);
    EXPECT_EQ(f.broker.produce_local("t", 10, rec(6)), 1u);
    EXPECT_EQ(tx_ids(f.broker.log_of("t")), (Ids{5, 6}));
}

TEST(BrokerTest, MultipleTopicsIndependent) {
    Fixture f;
    f.broker.create_topic("a");
    f.broker.create_topic("b");
    f.broker.produce_local("a", 10, rec(1));
    f.broker.produce_local("b", 10, rec(2));
    f.broker.produce_local("b", 10, rec(3));
    EXPECT_EQ(f.broker.topic_size("a"), 1u);
    EXPECT_EQ(f.broker.topic_size("b"), 2u);
}

}  // namespace
}  // namespace fl::mq
