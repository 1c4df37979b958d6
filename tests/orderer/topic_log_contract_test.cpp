// The committed topic-log contract both ordering backends follow: the
// Kafka-style broker and the Raft cluster feed one shared log
// (orderer::OrderingBackend), so unknown-topic and past-the-end errors,
// topic creation and the append hook behave identically under either.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "mq/broker.h"
#include "ordering_records.h"
#include "raft/raft.h"

namespace fl::orderer {
namespace {

using ordering_test::rec;
using ordering_test::tx_ids;

sim::LinkParams link() {
    sim::LinkParams p;
    p.base_latency = Duration::micros(500);
    p.jitter_stddev = Duration::micros(100);
    return p;
}

template <typename Backend>
std::unique_ptr<OrderingBackend> make_backend(sim::Simulator& sim, sim::Network& net) {
    if constexpr (std::is_same_v<Backend, mq::Broker>) {
        return std::make_unique<mq::Broker>(net);
    } else {
        return std::make_unique<Backend>(sim, net, Rng(7), raft::RaftParams{});
    }
}

template <typename Backend>
class TopicLogContractTest : public ::testing::Test {
protected:
    sim::Simulator sim;
    sim::Network net{sim, Rng(3), link()};
    std::unique_ptr<OrderingBackend> backend = make_backend<Backend>(sim, net);
};

using Backends = ::testing::Types<mq::Broker, raft::RaftOrderingBackend>;
TYPED_TEST_SUITE(TopicLogContractTest, Backends);

TYPED_TEST(TopicLogContractTest, UnknownTopicThrowsInvalidArgument) {
    OrderingBackend& b = *this->backend;
    EXPECT_THROW(b.produce("ghost", NodeId{1}, 10, rec(1)), std::invalid_argument);
    EXPECT_THROW((void)b.produce_local("ghost", 10, rec(1)), std::invalid_argument);
    EXPECT_THROW((void)b.subscribe("ghost", NodeId{5}), std::invalid_argument);
    EXPECT_THROW((void)b.read("ghost", 0), std::invalid_argument);
    EXPECT_THROW((void)b.log_of("ghost"), std::invalid_argument);
    EXPECT_EQ(b.topic_size("ghost"), 0u);
    EXPECT_FALSE(b.has_topic("ghost"));
}

TYPED_TEST(TopicLogContractTest, PastTheEndThrowsOutOfRange) {
    OrderingBackend& b = *this->backend;
    b.create_topic("t");
    EXPECT_THROW((void)b.read("t", 0), std::out_of_range);
    for (std::uint64_t i = 0; i < 3; ++i) b.produce_local("t", 10, rec(i));
    this->sim.run();
    ASSERT_EQ(b.topic_size("t"), 3u);
    EXPECT_EQ(b.read("t", 2).envelope->tx_id().value(), 2u);
    EXPECT_THROW((void)b.read("t", 3), std::out_of_range);
    EXPECT_NO_THROW((void)b.subscribe("t", NodeId{5}, 3));  // the live tail
    EXPECT_THROW((void)b.subscribe("t", NodeId{5}, 4), std::out_of_range);
}

TYPED_TEST(TopicLogContractTest, CreateTopicIsIdempotent) {
    OrderingBackend& b = *this->backend;
    b.create_topic("t");
    b.produce_local("t", 10, rec(1));
    this->sim.run();
    b.create_topic("t");  // must not reset the log
    EXPECT_TRUE(b.has_topic("t"));
    EXPECT_EQ(tx_ids(b.log_of("t")), (std::vector<std::uint64_t>{1}));
}

TYPED_TEST(TopicLogContractTest, HookFiresOncePerDurableAppend) {
    struct Call {
        std::string topic;
        Offset offset;
        std::uint64_t tx;
        std::size_t wire;
    };
    OrderingBackend& b = *this->backend;
    b.create_topic("a");
    b.create_topic("b");
    std::vector<Call> calls;
    b.set_on_append([&calls](const std::string& topic, Offset off,
                             const OrderedRecord& r, std::size_t wire) {
        calls.push_back({topic, off, r.envelope->tx_id().value(), wire});
    });
    b.produce_local("a", 100, rec(10));
    b.produce_local("b", 200, rec(20));
    b.produce_local("a", 300, rec(30));
    b.produce("b", NodeId{1}, 400, rec(40));
    this->sim.run();

    ASSERT_EQ(calls.size(), 4u);
    const std::vector<std::string> topics = {"a", "b", "a", "b"};
    const std::vector<Offset> offsets = {0, 0, 1, 1};
    const std::vector<std::uint64_t> txs = {10, 20, 30, 40};
    for (std::size_t i = 0; i < calls.size(); ++i) {
        EXPECT_EQ(calls[i].topic, topics[i]);
        EXPECT_EQ(calls[i].offset, offsets[i]);
        EXPECT_EQ(calls[i].tx, txs[i]);
        EXPECT_EQ(calls[i].wire, (i + 1) * 100 + kRecordOverheadBytes);
    }
    EXPECT_EQ(b.topic_size("a"), 2u);
    EXPECT_EQ(b.topic_size("b"), 2u);
}

}  // namespace
}  // namespace fl::orderer
