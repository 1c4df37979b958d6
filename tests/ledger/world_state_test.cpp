// WorldState unit tests, plus a randomized differential against the
// independent single-map reference (reference_state.h) and a TSan-able
// concurrent-reader check of the const API.
#include "ledger/world_state.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "reference_state.h"

namespace fl::ledger {
namespace {

TEST(WorldStateTest, GetAbsentKey) {
    WorldState ws;
    EXPECT_FALSE(ws.get("missing").has_value());
    EXPECT_FALSE(ws.version_of("missing").has_value());
    EXPECT_EQ(ws.key_count(), 0u);
}

TEST(WorldStateTest, ApplyAndGet) {
    WorldState ws;
    ws.apply(KvWrite{"k", "v", false}, Version{1, 2});
    EXPECT_EQ(ws.get("k"), "v");
    EXPECT_EQ(ws.version_of("k"), (Version{1, 2}));
}

TEST(WorldStateTest, OverwriteBumpsVersion) {
    WorldState ws;
    ws.apply(KvWrite{"k", "v1", false}, Version{1, 0});
    ws.apply(KvWrite{"k", "v2", false}, Version{2, 3});
    EXPECT_EQ(ws.get("k"), "v2");
    EXPECT_EQ(ws.version_of("k"), (Version{2, 3}));
}

TEST(WorldStateTest, DeleteRemovesKey) {
    WorldState ws;
    ws.apply(KvWrite{"k", "v", false}, Version{1, 0});
    ws.apply(KvWrite{"k", "", true}, Version{2, 0});
    EXPECT_FALSE(ws.get("k").has_value());
    EXPECT_FALSE(ws.version_of("k").has_value());
}

TEST(WorldStateTest, ApplyAllWritesEverything) {
    WorldState ws;
    ReadWriteSet s;
    s.writes.push_back(KvWrite{"a", "1", false});
    s.writes.push_back(KvWrite{"b", "2", false});
    ws.apply_all(s, Version{5, 9});
    EXPECT_EQ(ws.get("a"), "1");
    EXPECT_EQ(ws.get("b"), "2");
    EXPECT_EQ(ws.version_of("b"), (Version{5, 9}));
}

TEST(WorldStateTest, RangeScanOrderedAndBounded) {
    WorldState ws;
    for (const char* k : {"b", "d", "a", "c", "e"}) {
        ws.apply(KvWrite{k, "v", false}, Version{1, 0});
    }
    const auto result = ws.range("b", "e");
    ASSERT_EQ(result.size(), 3u);
    EXPECT_EQ(result[0].key, "b");
    EXPECT_EQ(result[1].key, "c");
    EXPECT_EQ(result[2].key, "d");
}

TEST(WorldStateTest, ValidateReadsMatchingVersion) {
    WorldState ws;
    ws.apply(KvWrite{"k", "v", false}, Version{1, 4});
    ReadWriteSet s;
    s.reads.push_back(KvRead{"k", Version{1, 4}});
    EXPECT_TRUE(ws.validate_reads(s));
}

TEST(WorldStateTest, ValidateReadsStaleVersionFails) {
    WorldState ws;
    ws.apply(KvWrite{"k", "v", false}, Version{2, 0});
    ReadWriteSet s;
    s.reads.push_back(KvRead{"k", Version{1, 0}});
    EXPECT_FALSE(ws.validate_reads(s));
}

TEST(WorldStateTest, ValidateReadsAbsenceSemantics) {
    WorldState ws;
    ReadWriteSet read_absent;
    read_absent.reads.push_back(KvRead{"k", std::nullopt});
    EXPECT_TRUE(ws.validate_reads(read_absent));  // still absent -> fine

    ws.apply(KvWrite{"k", "v", false}, Version{1, 0});
    EXPECT_FALSE(ws.validate_reads(read_absent));  // appeared -> conflict

    ReadWriteSet read_present;
    read_present.reads.push_back(KvRead{"gone", Version{1, 0}});
    EXPECT_FALSE(ws.validate_reads(read_present));  // vanished -> conflict
}

TEST(WorldStateTest, ValidateRangeReadsPhantomDetection) {
    WorldState ws;
    ws.apply(KvWrite{"k1", "v", false}, Version{1, 0});
    ws.apply(KvWrite{"k3", "v", false}, Version{1, 1});

    ReadWriteSet s;
    s.range_reads.push_back(RangeRead{"k0", "k9", ws.range("k0", "k9")});
    EXPECT_TRUE(ws.validate_reads(s));

    // Phantom insert inside the range invalidates the scan.
    ws.apply(KvWrite{"k2", "v", false}, Version{2, 0});
    EXPECT_FALSE(ws.validate_reads(s));
}

TEST(WorldStateTest, ValidateRangeReadsVersionBump) {
    WorldState ws;
    ws.apply(KvWrite{"k1", "v", false}, Version{1, 0});
    ReadWriteSet s;
    s.range_reads.push_back(RangeRead{"k0", "k9", ws.range("k0", "k9")});
    ws.apply(KvWrite{"k1", "v2", false}, Version{2, 0});  // same key, new version
    EXPECT_FALSE(ws.validate_reads(s));
}

TEST(WorldStateTest, FingerprintEqualForEqualStates) {
    WorldState a;
    WorldState b;
    // Insert in different orders; state content is identical.
    a.apply(KvWrite{"x", "1", false}, Version{1, 0});
    a.apply(KvWrite{"y", "2", false}, Version{1, 1});
    b.apply(KvWrite{"y", "2", false}, Version{1, 1});
    b.apply(KvWrite{"x", "1", false}, Version{1, 0});
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(WorldStateTest, FingerprintSensitiveToValueAndVersion) {
    WorldState a;
    WorldState b;
    a.apply(KvWrite{"x", "1", false}, Version{1, 0});
    b.apply(KvWrite{"x", "2", false}, Version{1, 0});
    EXPECT_NE(a.fingerprint(), b.fingerprint());

    WorldState c;
    c.apply(KvWrite{"x", "1", false}, Version{2, 0});
    EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(WorldStateTest, FingerprintIndependentOfInsertionOrder) {
    // The same final contents reached through shuffled write orders hash
    // equal (the in-order walk, not the write history, feeds the hash).
    std::vector<std::pair<KvWrite, Version>> writes;
    for (std::uint32_t i = 0; i < 300; ++i) {
        writes.push_back({KvWrite{"k" + std::to_string(i * 7919 % 1000),
                                  "v" + std::to_string(i), false},
                          Version{1, i}});
    }
    WorldState in_order;
    for (const auto& [w, v] : writes) in_order.apply(w, v);
    std::mt19937_64 rng(42);
    for (int shuffle = 0; shuffle < 4; ++shuffle) {
        std::shuffle(writes.begin(), writes.end(), rng);
        WorldState shuffled;
        for (const auto& [w, v] : writes) shuffled.apply(w, v);
        EXPECT_EQ(in_order.fingerprint(), shuffled.fingerprint());
        EXPECT_EQ(in_order.key_count(), shuffled.key_count());
    }
}

TEST(WorldStateTest, InsertThenDeleteRestoresFingerprint) {
    WorldState ws;
    ws.apply(KvWrite{"a", "1", false}, Version{1, 0});
    ws.apply(KvWrite{"c", "3", false}, Version{1, 1});
    const std::uint64_t before = ws.fingerprint();
    const std::uint64_t bytes_before = ws.approx_memory_bytes();

    ws.apply(KvWrite{"b", "2", false}, Version{2, 0});
    EXPECT_NE(ws.fingerprint(), before);
    ws.apply(KvWrite{"b", "", true}, Version{3, 0});
    EXPECT_EQ(ws.fingerprint(), before);
    EXPECT_EQ(ws.key_count(), 2u);
    EXPECT_EQ(ws.approx_memory_bytes(), bytes_before);

    // Deleting an absent key is a no-op.
    ws.apply(KvWrite{"zz", "", true}, Version{4, 0});
    EXPECT_EQ(ws.fingerprint(), before);
    EXPECT_EQ(ws.approx_memory_bytes(), bytes_before);
}

TEST(WorldStateTest, ConstReadsLeaveStateUnchanged) {
    // Reads are pure: a burst of get/version_of/range/validate_reads/
    // fingerprint calls changes no observable.
    WorldState ws;
    for (int i = 0; i < 50; ++i) {
        ws.apply(KvWrite{"k" + std::to_string(i), "v", false}, Version{1, 0});
    }
    const std::uint64_t fp = ws.fingerprint();
    const std::uint64_t bytes = ws.approx_memory_bytes();
    const auto scan = ws.range("k1", "k5");
    for (int i = 0; i < 100; ++i) {
        (void)ws.get("k" + std::to_string(i % 60));
        (void)ws.version_of("k" + std::to_string(i % 60));
    }
    ReadWriteSet s;
    s.reads.push_back(KvRead{"k3", Version{1, 0}});
    s.range_reads.push_back(RangeRead{"k1", "k5", scan});
    EXPECT_TRUE(ws.validate_reads(s));
    EXPECT_EQ(ws.fingerprint(), fp);
    EXPECT_EQ(ws.approx_memory_bytes(), bytes);
    EXPECT_EQ(ws.key_count(), 50u);
    EXPECT_EQ(ws.range("k1", "k5"), scan);
}

TEST(WorldStateTest, WritesLeaveOtherKeysUntouched) {
    // Interleaved writes to one key family never disturb another family's
    // values or versions.
    WorldState ws;
    for (int i = 0; i < 100; ++i) {
        ws.apply(KvWrite{"stable" + std::to_string(i), "s", false},
                 Version{1, 0});
    }
    for (int i = 0; i < 2000; ++i) {
        ws.apply(KvWrite{"moving" + std::to_string(i % 50), std::to_string(i),
                         false},
                 Version{2, static_cast<std::uint32_t>(i)});
        const std::string stable = "stable" + std::to_string(i % 100);
        ASSERT_EQ(ws.get(stable), "s") << stable;
        ASSERT_EQ(ws.version_of(stable), (Version{1, 0})) << stable;
    }
    EXPECT_EQ(ws.key_count(), 150u);
    EXPECT_EQ(ws.get("moving49"), "1999");
}

TEST(WorldStateTest, RangeWithEmptyOrInvertedBoundsIsEmpty) {
    WorldState ws;
    for (const char* k : {"a", "b", "c"}) {
        ws.apply(KvWrite{k, "v", false}, Version{1, 0});
    }
    EXPECT_TRUE(ws.range("b", "b").empty());
    EXPECT_TRUE(ws.range("c", "a").empty());
    EXPECT_TRUE(ws.range("d", "z").empty());
    EXPECT_EQ(ws.range("", "\x7f").size(), 3u);
}

TEST(WorldStateTest, ApproxMemoryBytesTracksInsertOverwriteDelete) {
    WorldState ws;
    EXPECT_EQ(ws.approx_memory_bytes(), 0u);

    ws.apply(KvWrite{"alpha", "12345", false}, Version{1, 0});
    ws.apply(KvWrite{"beta", "6", false}, Version{1, 1});
    // Payload bytes: |alpha|+|12345| + |beta|+|6| = 10 + 5.
    EXPECT_EQ(ws.key_count(), 2u);
    EXPECT_EQ(ws.approx_memory_bytes(),
              15u + 2u * WorldState::kPerEntryOverhead);

    // Overwrite adjusts bytes in place; delete releases them.
    ws.apply(KvWrite{"alpha", "1", false}, Version{2, 0});
    EXPECT_EQ(ws.approx_memory_bytes(),
              11u + 2u * WorldState::kPerEntryOverhead);
    ws.apply(KvWrite{"alpha", "", true}, Version{3, 0});
    EXPECT_EQ(ws.approx_memory_bytes(), 5u + WorldState::kPerEntryOverhead);
    ws.apply(KvWrite{"beta", "", true}, Version{3, 1});
    EXPECT_EQ(ws.key_count(), 0u);
    EXPECT_EQ(ws.approx_memory_bytes(), 0u);
}

TEST(WorldStateTest, OnlyOneStripeIsAccepted) {
    EXPECT_THROW(WorldState(0), std::invalid_argument);
    EXPECT_THROW(WorldState(16), std::invalid_argument);

    // WorldState(1) is the default store.
    WorldState one(1);
    WorldState dflt;
    for (int i = 0; i < 40; ++i) {
        const KvWrite w{"key" + std::to_string(i), std::to_string(i), false};
        const Version v{1, static_cast<std::uint32_t>(i)};
        one.apply(w, v);
        dflt.apply(w, v);
    }
    EXPECT_EQ(one.get("key7"), "7");
    EXPECT_EQ(one.fingerprint(), dflt.fingerprint());
    EXPECT_EQ(one.range("key1", "key2"), dflt.range("key1", "key2"));
}

// -- differential against the single-map reference ----------------------------

std::string random_key(std::mt19937_64& rng) {
    // Small enough space to hit overwrite/delete paths; mixed prefixes
    // exercise range scans across key families.
    static const char* const prefixes[] = {"acct/u", "hot", "k", "zz/"};
    return prefixes[rng() % 4] + std::to_string(rng() % 400);
}

/// One random mutation applied identically to every store under test.
template <typename... Stores>
void apply_random(std::mt19937_64& rng, std::uint64_t step,
                  Stores&... stores) {
    const std::string key = random_key(rng);
    const bool is_delete = rng() % 8 == 0;
    const KvWrite write{key, is_delete ? "" : "v" + std::to_string(rng() % 100),
                        is_delete};
    const Version version{step / 16 + 1, static_cast<std::uint32_t>(step % 16)};
    (stores.apply(write, version), ...);
}

TEST(WorldStateTest, RandomizedDifferentialAgainstReference) {
    // Randomized write/delete streams replayed into the store and the
    // reference: every observable — get, version_of, range, validate_reads,
    // key_count, fingerprint — must agree.
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL);
        ReferenceWorldState reference;
        WorldState ws;
        for (std::uint64_t step = 0; step < 600; ++step) {
            apply_random(rng, step, reference, ws);
        }
        SCOPED_TRACE("seed " + std::to_string(seed));
        ASSERT_EQ(reference.key_count(), ws.key_count());
        ASSERT_EQ(reference.fingerprint(), ws.fingerprint());

        // Point lookups across the whole key space (present and absent).
        for (std::uint64_t probe = 0; probe < 400; ++probe) {
            const std::string key = random_key(rng);
            EXPECT_EQ(reference.get(key), ws.get(key)) << key;
            EXPECT_EQ(reference.version_of(key), ws.version_of(key)) << key;
        }

        // Range scans in key order.
        const std::pair<const char*, const char*> ranges[] = {
            {"", "\x7f"}, {"acct/", "acct0"}, {"hot1", "hot4"},
            {"k", "l"},   {"zz/", "zz0"},     {"nope", "nopf"},
        };
        for (const auto& [lo, hi] : ranges) {
            const auto expect = reference.range(lo, hi);
            const auto got = ws.range(lo, hi);
            ASSERT_EQ(expect.size(), got.size()) << lo << ".." << hi;
            for (std::size_t i = 0; i < expect.size(); ++i) {
                EXPECT_EQ(expect[i].key, got[i].key);
                EXPECT_EQ(expect[i].version, got[i].version);
            }
        }

        // validate_reads: matching, stale and phantom cases.
        ReadWriteSet ok;
        ok.range_reads.push_back(
            RangeRead{"acct/", "acct0", reference.range("acct/", "acct0")});
        for (std::uint64_t probe = 0; probe < 50; ++probe) {
            ok.reads.push_back(KvRead{random_key(rng),
                                      reference.version_of(random_key(rng))});
        }
        EXPECT_EQ(reference.validate_reads(ok), ws.validate_reads(ok));
        ReadWriteSet stale = ok;
        stale.reads.push_back(KvRead{"k1", Version{999, 0}});
        EXPECT_FALSE(ws.validate_reads(stale));
    }
}

TEST(WorldStateTest, ConcurrentReadersSeeConsistentState) {
    // TSan-able: many reader threads running MVCC read checks against a
    // committed store.  Checks that the const API hides no mutation.
    WorldState ws;
    ReferenceWorldState reference;
    for (int i = 0; i < 500; ++i) {
        const KvWrite w{"acct/u" + std::to_string(i), std::to_string(i), false};
        ws.apply(w, Version{1, static_cast<std::uint32_t>(i)});
        reference.apply(w, Version{1, static_cast<std::uint32_t>(i)});
    }
    const std::uint64_t want_fp = reference.fingerprint();

    std::atomic<int> failures{0};
    parallel_for_each(4, 64, [&](std::size_t task) {
        std::mt19937_64 rng(task);
        for (int i = 0; i < 200; ++i) {
            const std::string key = "acct/u" + std::to_string(rng() % 600);
            const auto value = ws.get(key);
            const auto version = ws.version_of(key);
            if (value.has_value() != version.has_value()) {
                failures.fetch_add(1);
            }
            ReadWriteSet s;
            s.reads.push_back(KvRead{key, version});
            if (!ws.validate_reads(s)) failures.fetch_add(1);
        }
        if (ws.fingerprint() != want_fp) failures.fetch_add(1);
        if (ws.range("acct/u10", "acct/u12").size() !=
            reference.range("acct/u10", "acct/u12").size()) {
            failures.fetch_add(1);
        }
    });
    EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace fl::ledger
