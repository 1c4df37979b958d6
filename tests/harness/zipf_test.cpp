// ZipfSampler: the YCSB-style skewed sampler behind the scale workload.
#include "harness/workload.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

namespace fl::harness {
namespace {

TEST(ZipfSamplerTest, RanksStayInBounds) {
    ZipfSampler z(1000, 0.99);
    Rng rng(1);
    for (int i = 0; i < 10'000; ++i) {
        EXPECT_LT(z.next_rank(rng), 1000u);
        EXPECT_LT(z.next(rng), 1000u);
    }
}

TEST(ZipfSamplerTest, ThetaZeroIsUniform) {
    // theta = 0 degenerates to the uniform distribution: over many draws
    // every decile of the rank space gets ~10% of the mass.
    ZipfSampler z(1000, 0.0);
    Rng rng(7);
    std::vector<int> decile(10, 0);
    const int draws = 50'000;
    for (int i = 0; i < draws; ++i) {
        ++decile[z.next_rank(rng) / 100];
    }
    for (const int count : decile) {
        EXPECT_GT(count, draws / 10 - draws / 40);
        EXPECT_LT(count, draws / 10 + draws / 40);
    }
}

TEST(ZipfSamplerTest, HighThetaConcentratesOnHotRanks) {
    // At theta = 0.99 YCSB's construction puts a large constant share on
    // the hottest ranks regardless of n.
    ZipfSampler z(100'000, 0.99);
    Rng rng(3);
    const int draws = 20'000;
    int rank0 = 0, top10 = 0;
    for (int i = 0; i < draws; ++i) {
        const std::uint64_t r = z.next_rank(rng);
        if (r == 0) ++rank0;
        if (r < 10) ++top10;
    }
    EXPECT_GT(rank0, draws / 20);   // hottest rank alone: >5% of traffic
    EXPECT_GT(top10, draws / 8);    // top-10 ranks: well over 12%
    EXPECT_LT(rank0, draws / 2);    // ...but not degenerate
}

TEST(ZipfSamplerTest, DeterministicAcrossInstances) {
    ZipfSampler a(5000, 0.8);
    ZipfSampler b(5000, 0.8);
    Rng ra(99), rb(99);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a.next(ra), b.next(rb));
    }
}

TEST(ZipfSamplerTest, ScrambleIsStableAndSpreads) {
    ZipfSampler z(1'000'000, 0.99);
    EXPECT_EQ(z.scramble(0), z.scramble(0));  // pure function of rank
    // The hot ranks must not land on adjacent indices (the hot accounts
    // would then be u0, u1, u2, ... instead of scattered).
    std::map<std::uint64_t, int> hits;
    for (std::uint64_t r = 0; r < 16; ++r) {
        ++hits[z.scramble(r)];
    }
    EXPECT_GE(hits.size(), 14u);  // near-collision-free for tiny rank sets
}

TEST(ZipfSamplerTest, RejectsBadParameters) {
    EXPECT_THROW(ZipfSampler(0, 0.5), std::invalid_argument);
    EXPECT_THROW(ZipfSampler(10, 1.0), std::invalid_argument);
    EXPECT_THROW(ZipfSampler(10, -0.1), std::invalid_argument);
}

TEST(ZipfWorkloadTest, GeneratorValidation) {
    EXPECT_THROW(zipfian_transfers(1, 0.5), std::invalid_argument);
    EXPECT_THROW(zipfian_transfers(100, 0.5, 1.5), std::invalid_argument);
    EXPECT_NO_THROW(zipfian_transfers(100, 0.0, 0.5));
}

TEST(ZipfWorkloadTest, ScaleAccountNames) {
    EXPECT_EQ(scale_account_name(0), "u0");
    EXPECT_EQ(scale_account_name(999'999), "u999999");
}

}  // namespace
}  // namespace fl::harness
