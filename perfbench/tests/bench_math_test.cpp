// The benchmark's own arithmetic: the tail-percentile rule and its sample
// counts, the failure ratio, and role attribution.  The median and quartile
// rules live in perfbench/benchstats.py (tests/test_benchstats.py).
#include "bench_math.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

TEST(TailPercentile, KeepsWantedPercentileWithTenBeyond) {
    // 1000 samples: p99 is rank 990, and 10 samples lie beyond it.
    const TailStat t = tail_percentile(one_to(1000), 99.0);
    EXPECT_DOUBLE_EQ(t.p, 99.0);
    EXPECT_DOUBLE_EQ(t.value, 990.0);
    EXPECT_EQ(t.n, 1000u);
    EXPECT_EQ(t.beyond, 10u);
}

TEST(TailPercentile, FallsBackToHighestPercentileWithTenBeyond) {
    // 500 samples: p99 would leave only 5 beyond; rank 490 leaves 10.
    const TailStat t = tail_percentile(one_to(500), 99.0);
    EXPECT_DOUBLE_EQ(t.p, 98.0);
    EXPECT_DOUBLE_EQ(t.value, 490.0);
    EXPECT_EQ(t.n, 500u);
    EXPECT_EQ(t.beyond, 10u);
}

TEST(TailPercentile, FallbackRankIsExactDespiteRounding) {
    // 100 * 912 / 922 = 98.915...; converting that percentile back to a
    // rank in floating point gives 913, which would leave only 9 beyond.
    const TailStat t = tail_percentile(one_to(922), 99.0);
    EXPECT_DOUBLE_EQ(t.value, 912.0);
    EXPECT_EQ(t.beyond, 10u);
    for (std::size_t n = 11; n < 3000; ++n) {
        const TailStat s = tail_percentile(one_to(n), 99.0);
        EXPECT_GE(s.beyond, 10u) << n;
        EXPECT_EQ(s.beyond, n >= 1000 ? n - (99 * n + 99) / 100 : 10u) << n;
    }
}

TEST(TailPercentile, IgnoresInputOrder) {
    std::vector<double> v = one_to(200);
    std::reverse(v.begin(), v.end());
    const TailStat t = tail_percentile(v, 50.0);
    EXPECT_DOUBLE_EQ(t.value, 100.0);
    EXPECT_EQ(t.beyond, 100u);
}

TEST(TailPercentile, TooFewSamplesReportsMedian) {
    const TailStat t = tail_percentile(one_to(7), 99.0);
    EXPECT_DOUBLE_EQ(t.value, 4.0);
    EXPECT_EQ(t.n, 7u);
    EXPECT_EQ(t.beyond, 3u);
}

TEST(TailPercentile, EmptyInputHasNoSamples) {
    const TailStat t = tail_percentile({}, 99.0);
    EXPECT_EQ(t.n, 0u);
    EXPECT_DOUBLE_EQ(t.value, 0.0);
}

TEST(FailRatio, CountsAbortsAndClientFailuresAgainstSubmitted) {
    EXPECT_DOUBLE_EQ(fail_ratio(0, 0, 6000), 0.0);
    EXPECT_DOUBLE_EQ(fail_ratio(3279, 4, 6000), 3283.0 / 6000.0);
    EXPECT_DOUBLE_EQ(fail_ratio(0, 10, 10), 1.0);
    EXPECT_THROW((void)fail_ratio(0, 0, 0), std::invalid_argument);
}

TEST(RoleAttribution, NodeIdRanges) {
    using namespace fl::core;
    EXPECT_EQ(role_of_domain(0, false), Role::kSim);
    EXPECT_EQ(role_of_domain(kPeerNodeBase, false), Role::kPeer);
    EXPECT_EQ(role_of_domain(kOsnNodeBase - 1, false), Role::kPeer);
    EXPECT_EQ(role_of_domain(kOsnNodeBase, false), Role::kOrderer);
    EXPECT_EQ(role_of_domain(kOsnNodeBase + 2, true), Role::kOrderer);
    EXPECT_EQ(role_of_domain(kClientNodeBase, false), Role::kClient);
    EXPECT_EQ(role_of_domain(kClientNodeBase + 2, true), Role::kClient);
    EXPECT_EQ(role_of_domain(kPeerNodeBase - 1, false), Role::kSim);
}

TEST(RoleAttribution, SharedRaftAndBrokerBase) {
    using namespace fl::core;
    // Raft node 0 lives at the broker's address; the backend decides.
    EXPECT_EQ(role_of_domain(kBrokerNode, false), Role::kMq);
    EXPECT_EQ(role_of_domain(kBrokerNode, true), Role::kRaft);
    EXPECT_EQ(role_of_domain(fl::raft::kRaftNodeBase + 2, true), Role::kRaft);
    // Without Raft nothing lives above the broker.
    EXPECT_EQ(role_of_domain(kBrokerNode + 2, false), Role::kSim);
}

}  // namespace
}  // namespace perfbench
