#include "policy/block_formation_policy.h"

#include <gtest/gtest.h>

#include <numeric>

namespace fl::policy {
namespace {

TEST(BlockFormationTest, ParseAndToString) {
    const auto p = BlockFormationPolicy::parse("2:3:1");
    EXPECT_EQ(p.levels(), 3u);
    EXPECT_EQ(p.weights(), (std::vector<std::uint32_t>{2, 3, 1}));
    EXPECT_EQ(p.to_string(), "2:3:1");
}

TEST(BlockFormationTest, ParseErrors) {
    EXPECT_THROW(BlockFormationPolicy::parse(""), std::invalid_argument);
    EXPECT_THROW(BlockFormationPolicy::parse("1::2"), std::invalid_argument);
    EXPECT_THROW(BlockFormationPolicy::parse("0:0:0"), std::invalid_argument);
}

TEST(BlockFormationTest, ParseRejectsMalformedNumbers) {
    // Each of these used to parse: trailing garbage truncated, a sign
    // wrapped, an out-of-range weight narrowed, a hex prefix read as 0.
    EXPECT_THROW(BlockFormationPolicy::parse("1:2x:1"), std::invalid_argument);
    EXPECT_THROW(BlockFormationPolicy::parse("-1:1"), std::invalid_argument);
    EXPECT_THROW(BlockFormationPolicy::parse("4294967297:1"), std::invalid_argument);
    EXPECT_THROW(BlockFormationPolicy::parse("0x10:1"), std::invalid_argument);
    EXPECT_THROW(BlockFormationPolicy::parse("+1:1"), std::invalid_argument);
    EXPECT_THROW(BlockFormationPolicy::parse(" 1:1"), std::invalid_argument);
    EXPECT_EQ(BlockFormationPolicy::parse("4294967295:1").weights(),
              (std::vector<std::uint32_t>{4294967295u, 1u}));
}

TEST(BlockFormationTest, EmptyWeightsRejected) {
    EXPECT_THROW(BlockFormationPolicy(std::vector<std::uint32_t>{}),
                 std::invalid_argument);
}

TEST(BlockFormationTest, QuotasSumToBlockSize) {
    const auto p = BlockFormationPolicy::parse("2:3:1");
    const auto q = p.quotas(500);
    EXPECT_EQ(std::accumulate(q.begin(), q.end(), 0u), 500u);
    // 2:3:1 of 500 = 166.67 : 250 : 83.33 -> largest remainder.
    EXPECT_EQ(q[1], 250u);
    EXPECT_EQ(q[0] + q[2], 250u);
    EXPECT_GT(q[0], q[2]);
}

TEST(BlockFormationTest, PaperDefault121) {
    const auto q = BlockFormationPolicy::parse("1:2:1").quotas(500);
    EXPECT_EQ(q, (std::vector<std::uint32_t>{125, 250, 125}));
}

TEST(BlockFormationTest, BestEffortZeroLevels) {
    // The paper's <100:0:0>: all reserved capacity to the top level.
    const auto q = BlockFormationPolicy::parse("100:0:0").quotas(500);
    EXPECT_EQ(q, (std::vector<std::uint32_t>{500, 0, 0}));
}

TEST(BlockFormationTest, MixedZeroAndNonZero) {
    const auto q = BlockFormationPolicy::parse("1:0:1").quotas(100);
    EXPECT_EQ(q, (std::vector<std::uint32_t>{50, 0, 50}));
}

TEST(BlockFormationTest, Fractions) {
    const auto f = BlockFormationPolicy::parse("2:3:1").fractions();
    EXPECT_NEAR(f[0], 2.0 / 6.0, 1e-12);
    EXPECT_NEAR(f[1], 3.0 / 6.0, 1e-12);
    EXPECT_NEAR(f[2], 1.0 / 6.0, 1e-12);
}

class QuotaSweep : public ::testing::TestWithParam<
                       std::tuple<const char*, std::uint32_t>> {};

TEST_P(QuotaSweep, SumInvariantAndZeroPreservation) {
    const auto [spec, bs] = GetParam();
    const auto p = BlockFormationPolicy::parse(spec);
    const auto q = p.quotas(bs);
    EXPECT_EQ(std::accumulate(q.begin(), q.end(), 0u), bs);
    for (std::size_t i = 0; i < q.size(); ++i) {
        if (p.weights()[i] == 0) {
            EXPECT_EQ(q[i], 0u);
        } else if (bs >= q.size()) {
            EXPECT_GT(q[i], 0u);
        }
    }
}

TEST_P(QuotaSweep, ProportionalWithinOne) {
    const auto [spec, bs] = GetParam();
    const auto p = BlockFormationPolicy::parse(spec);
    const auto q = p.quotas(bs);
    const auto f = p.fractions();
    for (std::size_t i = 0; i < q.size(); ++i) {
        EXPECT_NEAR(static_cast<double>(q[i]), f[i] * bs, 1.0) << spec << " bs=" << bs;
    }
}

INSTANTIATE_TEST_SUITE_P(
    PolicyByBlockSize, QuotaSweep,
    ::testing::Combine(::testing::Values("1:2:1", "1:1:1", "2:3:1", "3:5:1",
                                         "100:0:0", "7:11:3", "1:0:2"),
                       ::testing::Values(10u, 100u, 500u, 501u, 997u)));

}  // namespace
}  // namespace fl::policy
