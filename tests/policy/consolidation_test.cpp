#include "policy/consolidation_policy.h"

#include <gtest/gtest.h>

#include <vector>

namespace fl::policy {
namespace {

std::optional<PriorityLevel> run(const ConsolidationPolicy& p,
                                 std::vector<PriorityLevel> votes,
                                 std::uint32_t levels = 3) {
    return p.consolidate(votes, levels);
}

TEST(KOfNMatchTest, AgreementWins) {
    const KOfNMatchPolicy p(2);
    EXPECT_EQ(run(p, {1, 1, 2}), 1u);
    EXPECT_EQ(run(p, {0, 0, 0, 0}), 0u);
}

TEST(KOfNMatchTest, InsufficientAgreementInvalid) {
    const KOfNMatchPolicy p(3);
    EXPECT_FALSE(run(p, {0, 1, 2}).has_value());
    EXPECT_FALSE(run(p, {1, 1, 2, 2}).has_value());
}

TEST(KOfNMatchTest, MostAgreedValueWins) {
    const KOfNMatchPolicy p(2);
    EXPECT_EQ(run(p, {2, 2, 2, 1, 1}), 2u);
}

TEST(KOfNMatchTest, TieResolvesToHigherPriority) {
    const KOfNMatchPolicy p(2);
    EXPECT_EQ(run(p, {1, 1, 2, 2}), 1u);  // smaller level = higher priority
}

TEST(KOfNMatchTest, EmptyVotesInvalid) {
    const KOfNMatchPolicy p(1);
    EXPECT_FALSE(run(p, {}).has_value());
}

TEST(KOfNMatchTest, KZeroRejected) {
    EXPECT_THROW(KOfNMatchPolicy(0), std::invalid_argument);
}

TEST(AverageTest, RoundsToNearest) {
    const AveragePolicy p;
    EXPECT_EQ(run(p, {0, 1}), 1u);     // 0.5 rounds to 1 (llround half away)
    EXPECT_EQ(run(p, {0, 0, 1}), 0u);  // 0.33 -> 0
    EXPECT_EQ(run(p, {2, 2, 1}), 2u);  // 1.67 -> 2
    EXPECT_EQ(run(p, {1, 1, 1}), 1u);
}

TEST(AverageTest, ClampsToLevels) {
    const AveragePolicy p;
    EXPECT_EQ(run(p, {5, 5, 5}, 3), 2u);
}

TEST(MedianTest, LowerMedian) {
    const MedianPolicy p;
    EXPECT_EQ(run(p, {0, 1, 2}), 1u);
    EXPECT_EQ(run(p, {0, 1, 2, 2}), 1u);  // lower median on even count
    EXPECT_EQ(run(p, {2}), 2u);
}

TEST(BestWorstTest, Extremes) {
    const BestPolicy best;
    const WorstPolicy worst;
    EXPECT_EQ(run(best, {2, 0, 1}), 0u);
    EXPECT_EQ(run(worst, {2, 0, 1}), 2u);
}

TEST(PolicyFactoryTest, ParsesSpecs) {
    EXPECT_EQ(make_consolidation_policy("kofn:2")->name(), "kofn:2");
    EXPECT_EQ(make_consolidation_policy("average")->name(), "average");
    EXPECT_EQ(make_consolidation_policy("median")->name(), "median");
    EXPECT_EQ(make_consolidation_policy("best")->name(), "best");
    EXPECT_EQ(make_consolidation_policy("worst")->name(), "worst");
    EXPECT_THROW(make_consolidation_policy("nonsense"), std::invalid_argument);
}

TEST(PolicyFactoryTest, RejectsMalformedK) {
    EXPECT_THROW(make_consolidation_policy("kofn:2x"), std::invalid_argument);
    EXPECT_THROW(make_consolidation_policy("kofn:-1"), std::invalid_argument);
    EXPECT_THROW(make_consolidation_policy("kofn:"), std::invalid_argument);
    EXPECT_THROW(make_consolidation_policy("kofn:0x2"), std::invalid_argument);
    EXPECT_THROW(make_consolidation_policy("kofn:99999999999999999999999"),
                 std::invalid_argument);
}

TEST(PolicyFactoryTest, EmptyVotesAlwaysInvalid) {
    for (const char* spec : {"kofn:1", "average", "median", "best", "worst"}) {
        const auto p = make_consolidation_policy(spec);
        EXPECT_FALSE(p->consolidate({}, 3).has_value()) << spec;
    }
}

class UnanimousSweep
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(UnanimousSweep, UnanimousVotesPassThrough) {
    const auto [spec, level] = GetParam();
    const auto p = make_consolidation_policy(spec);
    const std::vector<PriorityLevel> votes(4, static_cast<PriorityLevel>(level));
    EXPECT_EQ(p->consolidate(votes, 3), static_cast<PriorityLevel>(level));
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, UnanimousSweep,
    ::testing::Combine(::testing::Values("kofn:2", "kofn:4", "average", "median",
                                         "best", "worst"),
                       ::testing::Values(0, 1, 2)));

}  // namespace
}  // namespace fl::policy
