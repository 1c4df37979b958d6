#include "sim/network.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/stats.h"

namespace fl::sim {
namespace {

LinkParams no_jitter(Duration latency, double bandwidth) {
    LinkParams p;
    p.base_latency = latency;
    p.bandwidth_bps = bandwidth;
    p.jitter_stddev = Duration::zero();
    return p;
}

TEST(NetworkTest, BaseLatencyApplied) {
    Simulator sim;
    Network net(sim, Rng(1), no_jitter(Duration::millis(2), 0.0));
    double delivered_at = -1.0;
    net.send(NodeId{1}, NodeId{2}, 100, [&] { delivered_at = sim.now().as_seconds(); });
    sim.run();
    EXPECT_NEAR(delivered_at, 0.002, 1e-9);
}

TEST(NetworkTest, TransmissionDelayScalesWithSize) {
    Simulator sim;
    Network net(sim, Rng(1), no_jitter(Duration::zero(), 8e6));  // 8 Mbps = 1 MB/s
    double delivered_at = -1.0;
    net.send(NodeId{1}, NodeId{2}, 500'000, [&] { delivered_at = sim.now().as_seconds(); });
    sim.run();
    EXPECT_NEAR(delivered_at, 0.5, 1e-9);
}

TEST(NetworkTest, JitterVariesDelays) {
    Simulator sim;
    LinkParams p;
    p.base_latency = Duration::millis(1);
    p.bandwidth_bps = 0.0;
    p.jitter_stddev = Duration::micros(200);
    Network net(sim, Rng(7), p);
    RunningStats delays;
    for (int i = 0; i < 2000; ++i) {
        delays.add(net.sample_delay(NodeId{1}, NodeId{2}, 0).as_seconds());
    }
    EXPECT_NEAR(delays.mean(), 0.001, 0.0001);
    EXPECT_GT(delays.stddev(), 0.0001);
    EXPECT_GE(delays.min(), 0.0);  // delays never negative
}

TEST(NetworkTest, PerLinkOverride) {
    Simulator sim;
    Network net(sim, Rng(1), no_jitter(Duration::millis(1), 0.0));
    net.set_link(NodeId{1}, NodeId{2}, no_jitter(Duration::millis(50), 0.0));
    double fast = -1.0;
    double slow = -1.0;
    net.send(NodeId{1}, NodeId{2}, 0, [&] { slow = sim.now().as_seconds(); });
    net.send(NodeId{2}, NodeId{1}, 0, [&] { fast = sim.now().as_seconds(); });
    sim.run();
    EXPECT_NEAR(slow, 0.050, 1e-9);  // overridden direction
    EXPECT_NEAR(fast, 0.001, 1e-9);  // default the other way
}

TEST(NetworkTest, CountsTraffic) {
    Simulator sim;
    Network net(sim, Rng(1), no_jitter(Duration::millis(1), 1e9));
    net.send(NodeId{1}, NodeId{2}, 100, [] {});
    net.send(NodeId{1}, NodeId{2}, 200, [] {});
    sim.run();
    EXPECT_EQ(net.messages_sent(), 2u);
    EXPECT_EQ(net.bytes_sent(), 300u);
}

TEST(NetworkTest, ZeroBandwidthMeansNoTransmissionDelay) {
    Simulator sim;
    Network net(sim, Rng(1), no_jitter(Duration::millis(3), 0.0));
    double at = -1.0;
    net.send(NodeId{1}, NodeId{2}, 1'000'000, [&] { at = sim.now().as_seconds(); });
    sim.run();
    EXPECT_NEAR(at, 0.003, 1e-9);
}

TEST(NetworkTest, PerSenderStreamsIgnoreOtherSendersAndDeliverUnderReceiver) {
    LinkParams p;
    p.base_latency = Duration::millis(1);
    p.bandwidth_bps = 0.0;
    p.jitter_stddev = Duration::micros(200);
    // Node 1's delays, with or without node 5 sending in between.
    const auto node1_delays = [&p](bool interleave) {
        Simulator sim;
        Network net(sim, Rng(7), p);
        std::vector<std::int64_t> delays;
        for (int i = 0; i < 5; ++i) {
            if (interleave) net.send(NodeId{5}, NodeId{2}, 0, [] {});
            net.send(NodeId{1}, NodeId{2}, 0, [&sim, &delays] {
                EXPECT_EQ(sim.domain(), 2u);  // runs as the receiver
                delays.push_back(sim.now().as_nanos());
            });
        }
        sim.run();
        return delays;
    };
    const std::vector<std::int64_t> alone = node1_delays(false);
    ASSERT_EQ(alone.size(), 5u);
    EXPECT_EQ(alone, node1_delays(true));
}

}  // namespace
}  // namespace fl::sim
