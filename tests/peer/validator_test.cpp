#include "peer/validator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "peer/endorser.h"

namespace fl::peer {
namespace {

/// Builds properly-endorsed envelopes against a channel with 4 orgs and a
/// 2-of-4 endorsement policy, then validates hand-assembled blocks.
struct Fixture {
    crypto::KeyStore keys;
    policy::ChannelConfig channel;
    std::unique_ptr<policy::ConsolidationPolicy> consolidation;
    ledger::WorldState state;
    std::unordered_set<std::uint64_t> seen;
    std::uint64_t next_tx_id = 1;

    Fixture() {
        channel.priority_levels = 3;
        channel.priority_enabled = true;
        channel.consolidation_spec = "kofn:2";
        channel.endorsement_policy = policy::EndorsementPolicy::k_of_n_orgs(2, 4);
        consolidation = policy::make_consolidation_policy(channel.consolidation_spec);
        for (std::uint64_t org = 0; org < 4; ++org) {
            keys.register_identity(
                {"org" + std::to_string(org) + ".peer0", OrgId{org}});
        }
    }

    /// An envelope reading `reads`, writing `writes`, at `priority`, endorsed
    /// by orgs 0..3 (all voting `priority`).
    ledger::Envelope make_tx(std::vector<std::string> reads,
                             std::vector<std::string> writes,
                             PriorityLevel priority) {
        ledger::Envelope env;
        env.proposal.tx_id = TxId{next_tx_id++};
        env.proposal.chaincode = "test";
        env.proposal.function = "fn";
        for (const std::string& k : reads) {
            env.rwset.reads.push_back(ledger::KvRead{k, state.version_of(k)});
        }
        for (const std::string& k : writes) {
            env.rwset.writes.push_back(ledger::KvWrite{k, "v", false});
        }
        env.consolidated_priority = priority;
        for (std::uint64_t org = 0; org < 4; ++org) {
            endorse_with(env, org, priority);
        }
        return env;
    }

    void endorse_with(ledger::Envelope& env, std::uint64_t org,
                      PriorityLevel priority) {
        ledger::Endorsement e;
        e.endorser_identity = "org" + std::to_string(org) + ".peer0";
        e.org = OrgId{org};
        e.priority = priority;
        const Bytes payload =
            ledger::Envelope::endorsement_payload(env.proposal, env.rwset, priority);
        e.response_hash = crypto::sha256(BytesView(payload.data(), payload.size()));
        e.signature =
            keys.sign(e.endorser_identity, BytesView(payload.data(), payload.size()));
        env.endorsements.push_back(e);
    }

    /// Replaces `env`'s endorsements after its proposal or rwset was edited.
    void reendorse(ledger::Envelope& env, PriorityLevel priority) {
        env.endorsements.clear();
        for (std::uint64_t org = 0; org < 4; ++org) {
            endorse_with(env, org, priority);
        }
    }

    ValidationOutcome validate(const std::vector<ledger::Envelope>& txs,
                               bool prioritized, BlockNumber number = 1) {
        const ledger::Block block = ledger::make_block(number, nullptr, txs);
        ValidatorConfig cfg;
        cfg.prioritized = prioritized;
        cfg.verify_consolidation = true;
        return validate_block(block, state, channel, consolidation.get(), keys, seen,
                              cfg);
    }
};

TEST(ValidatorTest, CleanBlockAllValid) {
    Fixture f;
    const std::vector<ledger::Envelope> txs = {
        f.make_tx({}, {"a"}, 0), f.make_tx({}, {"b"}, 1), f.make_tx({}, {"c"}, 2)};
    const auto out = f.validate(txs, /*prioritized=*/true);
    EXPECT_EQ(out.valid_count, 3u);
    for (const auto code : out.codes) {
        EXPECT_TRUE(is_valid(code));
    }
}

TEST(ValidatorTest, StandardValidatorFirstInBlockWins) {
    Fixture f;
    // Low priority appears first in the block; both write "k".
    const std::vector<ledger::Envelope> txs = {f.make_tx({}, {"k"}, 2),
                                               f.make_tx({}, {"k"}, 0)};
    const auto out = f.validate(txs, /*prioritized=*/false);
    EXPECT_TRUE(is_valid(out.codes[0]));  // earlier tx wins
    EXPECT_EQ(out.codes[1], TxValidationCode::kWriteConflict);
}

TEST(ValidatorTest, PrioritizedValidatorHigherPriorityWins) {
    Fixture f;
    // Same block: with the prioritized validator the level-0 tx survives
    // even though it appears later in block order (paper §3.4).
    const std::vector<ledger::Envelope> txs = {f.make_tx({}, {"k"}, 2),
                                               f.make_tx({}, {"k"}, 0)};
    const auto out = f.validate(txs, /*prioritized=*/true);
    EXPECT_EQ(out.codes[0], TxValidationCode::kWriteConflict);
    EXPECT_TRUE(is_valid(out.codes[1]));
}

TEST(ValidatorTest, PrioritizedReadWriteConflict) {
    Fixture f;
    f.state.apply(ledger::KvWrite{"k", "v0", false}, ledger::Version{0, 0});
    // Reader at low priority first in block, writer at high priority later.
    const std::vector<ledger::Envelope> txs = {f.make_tx({"k"}, {"out"}, 2),
                                               f.make_tx({}, {"k"}, 0)};
    const auto out = f.validate(txs, /*prioritized=*/true);
    EXPECT_EQ(out.codes[0], TxValidationCode::kMvccReadConflict);
    EXPECT_TRUE(is_valid(out.codes[1]));
}

TEST(ValidatorTest, SamePriorityConflictFifoWins) {
    Fixture f;
    // Equal priority: the earlier transaction must win (stable order).
    const std::vector<ledger::Envelope> txs = {f.make_tx({}, {"k"}, 1),
                                               f.make_tx({}, {"k"}, 1)};
    const auto out = f.validate(txs, /*prioritized=*/true);
    EXPECT_TRUE(is_valid(out.codes[0]));
    EXPECT_EQ(out.codes[1], TxValidationCode::kWriteConflict);
}

TEST(ValidatorTest, MvccStaleReadRejected) {
    Fixture f;
    f.state.apply(ledger::KvWrite{"k", "v0", false}, ledger::Version{0, 0});
    ledger::Envelope tx = f.make_tx({"k"}, {"out"}, 0);
    // State moves on after endorsement.
    f.state.apply(ledger::KvWrite{"k", "v1", false}, ledger::Version{1, 0});
    const auto out = f.validate({tx}, true, /*number=*/2);
    EXPECT_EQ(out.codes[0], TxValidationCode::kMvccReadConflict);
    EXPECT_EQ(out.valid_count, 0u);
}

TEST(ValidatorTest, DuplicateTxIdRejected) {
    Fixture f;
    ledger::Envelope tx = f.make_tx({}, {"a"}, 0);
    const auto first = f.validate({tx}, true, 1);
    EXPECT_TRUE(is_valid(first.codes[0]));
    const auto replay = f.validate({tx}, true, 2);
    EXPECT_EQ(replay.codes[0], TxValidationCode::kDuplicateTxId);
}

TEST(ValidatorTest, InsufficientEndorsementsRejected) {
    Fixture f;
    ledger::Envelope tx = f.make_tx({}, {"a"}, 0);
    tx.endorsements.resize(1);  // 1 org < 2-of-4 policy
    const auto out = f.validate({tx}, true);
    EXPECT_EQ(out.codes[0], TxValidationCode::kEndorsementPolicyFailure);
}

TEST(ValidatorTest, ForgedEndorsementsDoNotCount) {
    Fixture f;
    ledger::Envelope tx = f.make_tx({}, {"a"}, 0);
    // Corrupt all but one signature.
    for (std::size_t i = 1; i < tx.endorsements.size(); ++i) {
        tx.endorsements[i].signature.mac[0] ^= 0xFF;
    }
    const auto out = f.validate({tx}, true);
    EXPECT_EQ(out.codes[0], TxValidationCode::kEndorsementPolicyFailure);
}

TEST(ValidatorTest, WrongConsolidatedPriorityRejected) {
    Fixture f;
    ledger::Envelope tx = f.make_tx({}, {"a"}, 2);
    tx.consolidated_priority = 0;  // OSN (or attacker) promoted it
    const auto out = f.validate({tx}, true);
    EXPECT_EQ(out.codes[0], TxValidationCode::kBadPriorityConsolidation);
}

TEST(ValidatorTest, ConsolidationNotCheckedWhenDisabled) {
    Fixture f;
    ledger::Envelope tx = f.make_tx({}, {"a"}, 2);
    tx.consolidated_priority = 0;
    const ledger::Block block = ledger::make_block(1, nullptr, {tx});
    ValidatorConfig cfg;  // both flags off = vanilla Fabric
    const auto out = validate_block(block, f.state, f.channel, nullptr, f.keys,
                                    f.seen, cfg);
    EXPECT_TRUE(is_valid(out.codes[0]));
}

TEST(ValidatorTest, PhantomConflictDetected) {
    Fixture f;
    // Tx A range-reads [r/, r/z); tx B (higher priority) inserts inside.
    ledger::Envelope reader = f.make_tx({}, {"out"}, 2);
    reader.endorsements.clear();
    reader.rwset.range_reads.push_back(ledger::RangeRead{"r/", "r/z", {}});
    for (std::uint64_t org = 0; org < 4; ++org) {
        f.endorse_with(reader, org, 2);
    }
    const ledger::Envelope writer = f.make_tx({}, {"r/new"}, 0);
    const auto out = f.validate({reader, writer}, /*prioritized=*/true);
    EXPECT_EQ(out.codes[0], TxValidationCode::kPhantomReadConflict);
    EXPECT_TRUE(is_valid(out.codes[1]));
}

TEST(ValidatorTest, ApplyBlockWritesValidOnly) {
    Fixture f;
    const std::vector<ledger::Envelope> txs = {f.make_tx({}, {"k"}, 2),
                                               f.make_tx({}, {"k"}, 0),
                                               f.make_tx({}, {"other"}, 1)};
    const ledger::Block block = ledger::make_block(1, nullptr, txs);
    const auto out = f.validate(txs, /*prioritized=*/true);
    apply_block(block, out, f.state);
    // Only the high-priority "k" writer and "other" landed.
    EXPECT_EQ(f.state.version_of("k"), (ledger::Version{1, 1}));  // block index 1
    EXPECT_EQ(f.state.version_of("other"), (ledger::Version{1, 2}));
}

TEST(ValidatorTest, ValidationCodesReportedInBlockOrder) {
    Fixture f;
    const std::vector<ledger::Envelope> txs = {
        f.make_tx({}, {"x"}, 2), f.make_tx({}, {"x"}, 1), f.make_tx({}, {"x"}, 0)};
    const auto out = f.validate(txs, /*prioritized=*/true);
    ASSERT_EQ(out.codes.size(), 3u);
    // Highest priority (block position 2) wins; others conflict.
    EXPECT_EQ(out.codes[0], TxValidationCode::kWriteConflict);
    EXPECT_EQ(out.codes[1], TxValidationCode::kWriteConflict);
    EXPECT_TRUE(is_valid(out.codes[2]));
    EXPECT_EQ(out.valid_count, 1u);
}

TEST(ValidatorTest, PriorityChainResolvesInPriorityOrder) {
    Fixture f;
    // The high tx, later in block order, is processed first and takes both
    // "k" and "m"; each of the other two loses the key it shares with it.
    const std::vector<ledger::Envelope> txs = {
        f.make_tx({}, {"k"}, 2),        // low priority, first in block
        f.make_tx({}, {"k", "m"}, 0),   // high priority
        f.make_tx({}, {"m", "q"}, 1)};  // mid priority, chained via "m"
    const auto out = f.validate(txs, /*prioritized=*/true);
    EXPECT_EQ(out.codes[0], TxValidationCode::kWriteConflict);
    EXPECT_TRUE(is_valid(out.codes[1]));
    EXPECT_EQ(out.codes[2], TxValidationCode::kWriteConflict);
    EXPECT_EQ(out.conflicts_priority_resolved, 2u);
    EXPECT_EQ(out.conflicts_fifo_resolved, 0u);
}

TEST(ValidatorTest, EmptyBlockHasNoVerdicts) {
    Fixture f;
    const auto out = f.validate({}, /*prioritized=*/true);
    EXPECT_TRUE(out.codes.empty());
    EXPECT_EQ(out.valid_count, 0u);
    EXPECT_EQ(out.conflicts_priority_resolved, 0u);
    EXPECT_EQ(out.conflicts_fifo_resolved, 0u);
    EXPECT_TRUE(f.seen.empty());
}

TEST(ValidatorTest, DisjointTransactionsAllValidInBothOrders) {
    for (const bool prioritized : {false, true}) {
        Fixture f;
        f.state.apply(ledger::KvWrite{"x", "v0", false}, ledger::Version{0, 0});
        const std::vector<ledger::Envelope> txs = {
            f.make_tx({}, {"a"}, 2), f.make_tx({}, {"b"}, 0),
            f.make_tx({"x"}, {"c"}, 1)};
        const auto out = f.validate(txs, prioritized);
        EXPECT_EQ(out.valid_count, 3u) << prioritized;
        EXPECT_EQ(out.conflicts_priority_resolved + out.conflicts_fifo_resolved, 0u)
            << prioritized;
    }
}

TEST(ValidatorTest, WriteWriteChainFirstWriterWins) {
    Fixture f;
    const std::vector<ledger::Envelope> txs = {
        f.make_tx({}, {"k"}, 1), f.make_tx({}, {"k"}, 1), f.make_tx({}, {"k"}, 1)};
    const auto out = f.validate(txs, /*prioritized=*/true);
    EXPECT_TRUE(is_valid(out.codes[0]));
    EXPECT_EQ(out.codes[1], TxValidationCode::kWriteConflict);
    EXPECT_EQ(out.codes[2], TxValidationCode::kWriteConflict);
    EXPECT_EQ(out.valid_count, 1u);
    EXPECT_EQ(out.conflicts_fifo_resolved, 2u);
    EXPECT_EQ(out.conflicts_priority_resolved, 0u);
}

TEST(ValidatorTest, ReadAfterIntraBlockWriteRejected) {
    Fixture f;
    f.state.apply(ledger::KvWrite{"k", "v0", false}, ledger::Version{0, 0});
    // The reader's version is still the committed one, but an accepted tx
    // earlier in the block has already overwritten "k".
    const std::vector<ledger::Envelope> txs = {f.make_tx({}, {"k"}, 1),
                                               f.make_tx({"k"}, {"out"}, 1)};
    const auto out = f.validate(txs, /*prioritized=*/true);
    EXPECT_TRUE(is_valid(out.codes[0]));
    EXPECT_EQ(out.codes[1], TxValidationCode::kMvccReadConflict);
    EXPECT_EQ(out.conflicts_fifo_resolved, 1u);
}

TEST(ValidatorTest, WriteAfterReadDoesNotConflict) {
    Fixture f;
    f.state.apply(ledger::KvWrite{"k", "v0", false}, ledger::Version{0, 0});
    // An earlier reader never constrains a later writer: only accepted
    // writes enter the intra-block conflict check.
    const std::vector<ledger::Envelope> txs = {f.make_tx({"k"}, {"out"}, 1),
                                               f.make_tx({}, {"k"}, 1)};
    const auto out = f.validate(txs, /*prioritized=*/true);
    EXPECT_EQ(out.valid_count, 2u);
    EXPECT_EQ(out.conflicts_fifo_resolved, 0u);
}

TEST(ValidatorTest, LosingWriterLeavesNoAcceptedWrites) {
    Fixture f;
    // Tx 1 loses "k" to tx 0, so its write of "b" is never accepted and
    // cannot invalidate tx 2, which reads "b".
    const std::vector<ledger::Envelope> txs = {f.make_tx({}, {"k", "a"}, 0),
                                               f.make_tx({}, {"k", "b"}, 0),
                                               f.make_tx({"b"}, {"c"}, 0)};
    const auto out = f.validate(txs, /*prioritized=*/true);
    EXPECT_TRUE(is_valid(out.codes[0]));
    EXPECT_EQ(out.codes[1], TxValidationCode::kWriteConflict);
    EXPECT_TRUE(is_valid(out.codes[2]));
}

TEST(ValidatorTest, ReadChainStopsAtFirstLoser) {
    Fixture f;
    // a -> b -> c: tx 1 reads what tx 0 wrote and loses; tx 2 reads what the
    // loser would have written, so it survives.
    const std::vector<ledger::Envelope> txs = {f.make_tx({}, {"a"}, 1),
                                               f.make_tx({"a"}, {"b"}, 1),
                                               f.make_tx({"b"}, {"c"}, 1)};
    const auto out = f.validate(txs, /*prioritized=*/false);
    EXPECT_TRUE(is_valid(out.codes[0]));
    EXPECT_EQ(out.codes[1], TxValidationCode::kMvccReadConflict);
    EXPECT_TRUE(is_valid(out.codes[2]));
}

TEST(ValidatorTest, RangeReadBoundsAreHalfOpen) {
    // A higher-priority write at the exclusive end key is no phantom; one at
    // the inclusive start key is.
    for (const char* written : {"r/z", "r/"}) {
        Fixture f;
        ledger::Envelope reader = f.make_tx({}, {"out"}, 2);
        reader.rwset.range_reads.push_back(ledger::RangeRead{"r/", "r/z", {}});
        f.reendorse(reader, 2);
        const ledger::Envelope writer = f.make_tx({}, {written, "q"}, 0);
        const auto out = f.validate({reader, writer}, /*prioritized=*/true);
        EXPECT_TRUE(is_valid(out.codes[1])) << written;
        if (std::string(written) == "r/z") {
            EXPECT_TRUE(is_valid(out.codes[0]));
        } else {
            EXPECT_EQ(out.codes[0], TxValidationCode::kPhantomReadConflict);
        }
    }
}

TEST(ValidatorTest, DisjointConflictChainsResolveIndependently) {
    Fixture f;
    const std::vector<ledger::Envelope> txs = {
        f.make_tx({}, {"a"}, 1), f.make_tx({}, {"b"}, 1), f.make_tx({}, {"a"}, 1),
        f.make_tx({}, {"b"}, 1), f.make_tx({}, {"c"}, 1)};
    const auto out = f.validate(txs, /*prioritized=*/true);
    EXPECT_EQ(out.codes,
              (std::vector<TxValidationCode>{
                  TxValidationCode::kValid, TxValidationCode::kValid,
                  TxValidationCode::kWriteConflict, TxValidationCode::kWriteConflict,
                  TxValidationCode::kValid}));
    EXPECT_EQ(out.valid_count, 3u);
    EXPECT_EQ(out.conflicts_fifo_resolved, 2u);
}

TEST(ValidatorTest, InvalidTransactionsWritesDoNotConflict) {
    Fixture f;
    // Txs 0 and 1 fail order-independent checks; their writes of "k" must
    // not displace tx 2, even though both come first in processing order.
    ledger::Envelope forged = f.make_tx({}, {"k"}, 0);
    for (std::size_t i = 1; i < forged.endorsements.size(); ++i) {
        forged.endorsements[i].signature.mac[0] ^= 0xFF;
    }
    ledger::Envelope promoted = f.make_tx({}, {"k"}, 2);
    promoted.consolidated_priority = 0;
    const ledger::Envelope honest = f.make_tx({}, {"k"}, 1);
    const auto out = f.validate({forged, promoted, honest}, /*prioritized=*/true);
    EXPECT_EQ(out.codes[0], TxValidationCode::kEndorsementPolicyFailure);
    EXPECT_EQ(out.codes[1], TxValidationCode::kBadPriorityConsolidation);
    EXPECT_TRUE(is_valid(out.codes[2]));
    EXPECT_EQ(out.conflicts_priority_resolved + out.conflicts_fifo_resolved, 0u);
}

TEST(ValidatorTest, RepeatedWriteOfOneKeyIsNotSelfConflicting) {
    Fixture f;
    ledger::Envelope twice = f.make_tx({}, {}, 1);
    twice.rwset.writes.push_back(ledger::KvWrite{"k", "v1", false});
    twice.rwset.writes.push_back(ledger::KvWrite{"k", "v2", false});
    f.reendorse(twice, 1);
    const ledger::Envelope reader = f.make_tx({"k"}, {"out"}, 1);
    const std::vector<ledger::Envelope> txs = {twice, reader};
    const auto out = f.validate(txs, /*prioritized=*/true);
    EXPECT_TRUE(is_valid(out.codes[0]));
    EXPECT_EQ(out.codes[1], TxValidationCode::kMvccReadConflict);
    EXPECT_EQ(out.conflicts_fifo_resolved, 1u);
    apply_block(ledger::make_block(1, nullptr, txs), out, f.state);
    EXPECT_EQ(f.state.get("k"), std::optional<std::string>("v2"));  // last write
}

TEST(ValidatorTest, InBlockReplayKeepsFirstInProcessingOrder) {
    // Two envelopes share a tx id: the copy processed first is the one
    // committed, so priority order decides which copy is the replay.
    for (const bool prioritized : {false, true}) {
        Fixture f;
        const ledger::Envelope low = f.make_tx({}, {"a"}, 2);
        ledger::Envelope high = f.make_tx({}, {"b"}, 0);
        high.proposal.tx_id = low.proposal.tx_id;
        f.reendorse(high, 0);
        const auto out = f.validate({low, high}, prioritized);
        EXPECT_EQ(out.valid_count, 1u) << prioritized;
        EXPECT_EQ(out.codes[prioritized ? 0 : 1], TxValidationCode::kDuplicateTxId)
            << prioritized;
    }
}

TEST(ValidatorTest, RejectedTxIdStaysInReplayFilter) {
    Fixture f;
    const ledger::Envelope winner = f.make_tx({}, {"k"}, 1);
    const ledger::Envelope loser = f.make_tx({}, {"k"}, 1);
    const auto first = f.validate({winner, loser}, /*prioritized=*/true, 1);
    EXPECT_EQ(first.codes[1], TxValidationCode::kWriteConflict);
    // Resubmitting the identical envelope is a replay, not a second chance.
    const auto again = f.validate({loser}, /*prioritized=*/true, 2);
    EXPECT_EQ(again.codes[0], TxValidationCode::kDuplicateTxId);
}

TEST(ValidatorTest, BlockOrderCountsEveryConflictAsFifo) {
    for (const bool prioritized : {false, true}) {
        Fixture f;
        const std::vector<ledger::Envelope> txs = {f.make_tx({}, {"k"}, 2),
                                                   f.make_tx({}, {"k"}, 0)};
        const auto out = f.validate(txs, prioritized);
        EXPECT_EQ(out.conflicts_priority_resolved, prioritized ? 1u : 0u);
        EXPECT_EQ(out.conflicts_fifo_resolved, prioritized ? 0u : 1u);
    }
}

TEST(ValidatorTest, ValidationDoesNotModifyState) {
    Fixture f;
    f.state.apply(ledger::KvWrite{"k", "v0", false}, ledger::Version{0, 0});
    const std::uint64_t before = f.state.fingerprint();
    const std::vector<ledger::Envelope> txs = {f.make_tx({"k"}, {"k"}, 1),
                                               f.make_tx({}, {"n"}, 0)};
    const auto out = f.validate(txs, /*prioritized=*/true);
    EXPECT_EQ(out.valid_count, 2u);
    EXPECT_EQ(f.state.fingerprint(), before);
    EXPECT_EQ(f.state.get("n"), std::nullopt);
    // Only the replay filter records the block.
    EXPECT_EQ(f.seen.size(), 2u);
}

TEST(ValidatorTest, DeleteConflictsLikeWrite) {
    Fixture f;
    f.state.apply(ledger::KvWrite{"k", "v0", false}, ledger::Version{0, 0});
    ledger::Envelope remover = f.make_tx({}, {}, 1);
    remover.rwset.writes.push_back(ledger::KvWrite{"k", "", true});
    f.reendorse(remover, 1);
    const std::vector<ledger::Envelope> txs = {remover, f.make_tx({}, {"k"}, 1)};
    const auto out = f.validate(txs, /*prioritized=*/true);
    EXPECT_TRUE(is_valid(out.codes[0]));
    EXPECT_EQ(out.codes[1], TxValidationCode::kWriteConflict);
    apply_block(ledger::make_block(1, nullptr, txs), out, f.state);
    EXPECT_EQ(f.state.get("k"), std::nullopt);
}

/// Adversarial random block: hot-key contention, priority ties, replayed tx
/// ids, forged endorsements, stale reads, bad consolidations, range reads.
ledger::Block random_block(Fixture& f, std::mt19937_64& rng, BlockNumber number,
                           std::size_t n) {
    const auto hot = [&rng] { return "hot" + std::to_string(rng() % 12); };
    std::vector<ledger::Envelope> txs;
    txs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        ledger::Envelope env;
        // ~1/12 replays: reuse an id from this or an earlier block.
        const bool duplicate = f.next_tx_id > 1 && rng() % 12 == 0;
        env.proposal.tx_id =
            TxId{duplicate ? 1 + rng() % (f.next_tx_id - 1) : f.next_tx_id++};
        env.proposal.chaincode = "test";
        env.proposal.function = "fn";
        const auto priority = static_cast<PriorityLevel>(rng() % 3);
        env.consolidated_priority = priority;
        for (std::uint64_t r = rng() % 3; r > 0; --r) {
            const std::string key = hot();
            auto version = f.state.version_of(key);
            if (rng() % 10 == 0) {
                version = ledger::Version{number + 77, 0};  // stale vs committed
            }
            env.rwset.reads.push_back(ledger::KvRead{key, version});
        }
        for (std::uint64_t w = 1 + rng() % 2; w > 0; --w) {
            env.rwset.writes.push_back(ledger::KvWrite{hot(), "v", false});
        }
        if (rng() % 8 == 0) {
            // Covers hot2..hot6 ("hot10"/"hot11" sort before "hot2").
            env.rwset.range_reads.push_back(ledger::RangeRead{"hot2", "hot7", {}});
        }
        for (std::uint64_t org = 0; org < 4; ++org) {
            f.endorse_with(env, org, priority);
        }
        if (rng() % 12 == 0) {
            // Forge 3 of 4 signatures -> the 2-of-4 policy must fail.
            for (std::size_t e = 1; e < env.endorsements.size(); ++e) {
                env.endorsements[e].signature.mac[0] ^= 0xFF;
            }
        } else if (rng() % 12 == 0) {
            env.consolidated_priority = (priority + 1) % 3;  // bad consolidation
        }
        txs.push_back(std::move(env));
    }
    return ledger::make_block(number, nullptr, std::move(txs));
}

// Collision predicates, (later, earlier): `later` reads, range-reads over, or
// writes a key that `earlier` writes — the three ways an accepted
// transaction invalidates one processed after it.
bool writes_key(const ledger::ReadWriteSet& rwset, const std::string& key) {
    return std::any_of(rwset.writes.begin(), rwset.writes.end(),
                       [&key](const ledger::KvWrite& w) { return w.key == key; });
}

bool writes_in_range(const ledger::ReadWriteSet& rwset, const ledger::RangeRead& rr) {
    return std::any_of(rwset.writes.begin(), rwset.writes.end(),
                       [&rr](const ledger::KvWrite& w) {
                           return rr.start_key <= w.key && w.key < rr.end_key;
                       });
}

bool reads_written(const ledger::ReadWriteSet& reader, const ledger::ReadWriteSet& writer) {
    return std::any_of(reader.reads.begin(), reader.reads.end(),
                       [&writer](const ledger::KvRead& r) { return writes_key(writer, r.key); });
}

bool range_reads_written(const ledger::ReadWriteSet& reader,
                         const ledger::ReadWriteSet& writer) {
    return std::any_of(reader.range_reads.begin(), reader.range_reads.end(),
                       [&writer](const ledger::RangeRead& rr) {
                           return writes_in_range(writer, rr);
                       });
}

bool writes_written(const ledger::ReadWriteSet& a, const ledger::ReadWriteSet& b) {
    return std::any_of(a.writes.begin(), a.writes.end(),
                       [&b](const ledger::KvWrite& w) { return writes_key(b, w.key); });
}

/// Parameter: prioritized processing order (true) or vanilla block order.
class RandomizedInvariants : public ::testing::TestWithParam<bool> {};

TEST_P(RandomizedInvariants, HoldOnAdversarialChains) {
    // Spec-level checks on adversarial multi-block chains, rather than a
    // comparison against a second implementation.
    const bool prioritized = GetParam();
    std::size_t write_losers = 0;
    std::size_t phantom_losers = 0;
    std::size_t intra_read_losers = 0;
    std::size_t duplicates = 0;
    std::size_t policy_failures = 0;
    std::size_t bad_consolidations = 0;
    std::uint64_t priority_wins = 0;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        Fixture f;
        std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL);
        for (BlockNumber b = 1; b <= 3; ++b) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " block " + std::to_string(b));
            const ledger::Block block = random_block(f, rng, b, 48);
            const auto& txs = block.transactions;

            ValidatorConfig cfg;
            cfg.prioritized = prioritized;
            cfg.verify_consolidation = true;
            const auto validate = [&](std::unordered_set<std::uint64_t>& seen) {
                return validate_block(block, f.state, f.channel, f.consolidation.get(),
                                      f.keys, seen, cfg);
            };
            const std::unordered_set<std::uint64_t> seen_before = f.seen;
            std::unordered_set<std::uint64_t> seen_again = f.seen;
            const ValidationOutcome out = validate(f.seen);
            const ValidationOutcome again = validate(seen_again);
            // Same block, same state, same replay filter: same verdicts.
            EXPECT_EQ(out.codes, again.codes);
            EXPECT_EQ(out.valid_count, again.valid_count);
            EXPECT_EQ(out.conflicts_priority_resolved,
                      again.conflicts_priority_resolved);
            EXPECT_EQ(out.conflicts_fifo_resolved, again.conflicts_fifo_resolved);
            EXPECT_EQ(f.seen, seen_again);

            ASSERT_EQ(out.codes.size(), txs.size());
            EXPECT_EQ(out.valid_count,
                      static_cast<std::size_t>(std::count(
                          out.codes.begin(), out.codes.end(), TxValidationCode::kValid)));

            // Processing order (§3.4): stable by consolidated priority,
            // or block order for the vanilla validator.
            std::vector<std::size_t> order(txs.size());
            std::iota(order.begin(), order.end(), std::size_t{0});
            if (prioritized) {
                std::stable_sort(order.begin(), order.end(),
                                 [&txs](std::size_t a, std::size_t c) {
                                     return txs[a].consolidated_priority <
                                            txs[c].consolidated_priority;
                                 });
            }

            std::vector<std::size_t> valid_so_far;  // block indices, in order
            std::unordered_set<std::uint64_t> ids_so_far = seen_before;
            std::uint64_t intra_losers = 0;
            for (const std::size_t idx : order) {
                const ledger::Envelope& tx = txs[idx];
                const TxValidationCode code = out.codes[idx];
                const bool replay = !ids_so_far.insert(tx.tx_id().value()).second;
                EXPECT_EQ(replay, code == TxValidationCode::kDuplicateTxId) << idx;
                if (replay) {
                    ++duplicates;
                    continue;
                }
                policy_failures += code == TxValidationCode::kEndorsementPolicyFailure;
                bad_consolidations += code == TxValidationCode::kBadPriorityConsolidation;

                // Valid txs accepted earlier in the processing order that
                // `tx` collides with through `hit`.
                const auto earlier_winners = [&](auto hit) {
                    std::vector<std::size_t> winners;
                    for (const std::size_t w : valid_so_far) {
                        if (hit(tx.rwset, txs[w].rwset)) winners.push_back(w);
                    }
                    return winners;
                };
                const auto beats_or_ties = [&](const std::vector<std::size_t>& winners) {
                    return std::any_of(winners.begin(), winners.end(),
                                       [&](std::size_t w) {
                                           return !prioritized ||
                                                  txs[w].consolidated_priority <=
                                                      tx.consolidated_priority;
                                       });
                };
                switch (code) {
                case TxValidationCode::kValid:
                    // No two valid txs conflict: nothing accepted
                    // earlier writes what this one reads or writes.
                    EXPECT_TRUE(earlier_winners(reads_written).empty()) << idx;
                    EXPECT_TRUE(earlier_winners(range_reads_written).empty()) << idx;
                    EXPECT_TRUE(earlier_winners(writes_written).empty()) << idx;
                    valid_so_far.push_back(idx);
                    break;
                case TxValidationCode::kWriteConflict:
                    ++write_losers;
                    ++intra_losers;
                    EXPECT_TRUE(beats_or_ties(earlier_winners(writes_written))) << idx;
                    break;
                case TxValidationCode::kPhantomReadConflict:
                    ++phantom_losers;
                    ++intra_losers;
                    EXPECT_TRUE(beats_or_ties(earlier_winners(range_reads_written)))
                        << idx;
                    break;
                case TxValidationCode::kMvccReadConflict:
                    // Stale against committed state, or an intra-block
                    // loser to an earlier writer of a key it read.
                    if (f.state.validate_reads(tx.rwset)) {
                        ++intra_read_losers;
                        ++intra_losers;
                        EXPECT_TRUE(beats_or_ties(earlier_winners(reads_written)))
                            << idx;
                    }
                    break;
                default:
                    break;
                }
            }
            EXPECT_EQ(out.conflicts_priority_resolved + out.conflicts_fifo_resolved,
                      intra_losers);
            if (!prioritized) {
                EXPECT_EQ(out.conflicts_priority_resolved, 0u);
            }
            priority_wins += out.conflicts_priority_resolved;

            apply_block(block, out, f.state);
        }
    }
    // The generator must keep reaching every verdict the invariants cover.
    EXPECT_GT(write_losers, 0u);
    EXPECT_GT(phantom_losers, 0u);
    EXPECT_GT(intra_read_losers, 0u);
    EXPECT_GT(duplicates, 0u);
    EXPECT_GT(policy_failures, 0u);
    EXPECT_GT(bad_consolidations, 0u);
    EXPECT_EQ(priority_wins > 0, prioritized);
}

INSTANTIATE_TEST_SUITE_P(ValidatorTest, RandomizedInvariants,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                             return info.param ? "Prioritized" : "BlockOrder";
                         });

class ConflictMatrixSweep
    : public ::testing::TestWithParam<std::tuple<PriorityLevel, PriorityLevel>> {};

TEST_P(ConflictMatrixSweep, HigherPriorityAlwaysSurvives) {
    const auto [pa, pb] = GetParam();
    Fixture f;
    const std::vector<ledger::Envelope> txs = {f.make_tx({}, {"hot"}, pa),
                                               f.make_tx({}, {"hot"}, pb)};
    const auto out = f.validate(txs, /*prioritized=*/true);
    const std::size_t winner = pa <= pb ? 0u : 1u;  // tie -> earlier in block
    EXPECT_TRUE(is_valid(out.codes[winner]));
    EXPECT_FALSE(is_valid(out.codes[1 - winner]));
}

INSTANTIATE_TEST_SUITE_P(AllPairs, ConflictMatrixSweep,
                         ::testing::Combine(::testing::Values(0u, 1u, 2u),
                                            ::testing::Values(0u, 1u, 2u)));

}  // namespace
}  // namespace fl::peer
