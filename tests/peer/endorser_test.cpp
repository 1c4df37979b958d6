#include "peer/endorser.h"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <stdexcept>
#include <string>

namespace fl::peer {
namespace {

struct Fixture {
    chaincode::Registry registry = chaincode::Registry::with_standard_contracts(3);
    ledger::WorldState state;
    crypto::KeyStore keys;
    crypto::Identity endorser_id{"org0.peer0", OrgId{0}};
    StaticChaincodeCalculator calculator;

    Fixture() {
        keys.register_identity(endorser_id);
        keys.register_identity({"org1.peer0", OrgId{1}});
    }

    CalculatorContext ctx() {
        CalculatorContext c;
        c.registry = &registry;
        c.priority_levels = 3;
        return c;
    }

    ledger::Proposal proposal(const std::string& cc, const std::string& fn,
                              std::vector<std::string> args) {
        ledger::Proposal p;
        p.tx_id = TxId{1};
        p.chaincode = cc;
        p.function = fn;
        p.args = std::move(args);
        return p;
    }
};

TEST(EndorserTest, SuccessfulEndorsement) {
    Fixture f;
    const auto result = endorse(f.proposal("record_keeper", "log", {"r1", "x"}),
                                f.state, f.registry, f.calculator, f.ctx(), f.keys,
                                f.endorser_id);
    ASSERT_TRUE(result.ok);
    EXPECT_EQ(result.endorsement.endorser_identity, "org0.peer0");
    EXPECT_EQ(result.endorsement.org, OrgId{0});
    EXPECT_EQ(result.endorsement.priority, 2u);  // record_keeper static priority
    EXPECT_EQ(result.rwset.writes.size(), 1u);
}

TEST(EndorserTest, SignatureVerifies) {
    Fixture f;
    const auto p = f.proposal("asset_transfer", "create", {"alice", "100"});
    const auto result =
        endorse(p, f.state, f.registry, f.calculator, f.ctx(), f.keys, f.endorser_id);
    ASSERT_TRUE(result.ok);
    EXPECT_TRUE(verify_endorsement(p, result.rwset, result.endorsement, f.keys));
}

TEST(EndorserTest, UnknownChaincodeFails) {
    Fixture f;
    const auto result = endorse(f.proposal("ghost", "fn", {}), f.state, f.registry,
                                f.calculator, f.ctx(), f.keys, f.endorser_id);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("unknown chaincode"), std::string::npos);
}

TEST(EndorserTest, ChaincodeFailurePropagates) {
    Fixture f;
    const auto result =
        endorse(f.proposal("asset_transfer", "transfer", {"ghost", "x", "1"}),
                f.state, f.registry, f.calculator, f.ctx(), f.keys, f.endorser_id);
    EXPECT_FALSE(result.ok);
    EXPECT_FALSE(result.error.empty());
}

/// A contract that throws from invoke, like one tripping over corrupt state.
class ThrowingChaincode : public chaincode::Chaincode {
public:
    [[nodiscard]] std::string name() const override { return "thrower"; }
    chaincode::Response invoke(chaincode::TxContext& ctx, const std::string&,
                               std::span<const std::string>) override {
        ctx.put("half-written", "x");
        throw std::out_of_range("corrupt record");
    }
};

TEST(EndorserTest, ThrowingChaincodeFailsTheEndorsement) {
    Fixture f;
    f.registry.deploy(std::make_unique<ThrowingChaincode>(), 0);
    const auto result = endorse(f.proposal("thrower", "fn", {}), f.state, f.registry,
                                f.calculator, f.ctx(), f.keys, f.endorser_id);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("corrupt record"), std::string::npos);
    EXPECT_TRUE(result.rwset.writes.empty());  // the partial write is dropped
}

TEST(EndorserTest, TamperedRwsetFailsVerification) {
    Fixture f;
    const auto p = f.proposal("record_keeper", "log", {"r1", "x"});
    const auto result =
        endorse(p, f.state, f.registry, f.calculator, f.ctx(), f.keys, f.endorser_id);
    ASSERT_TRUE(result.ok);
    ledger::ReadWriteSet tampered = result.rwset;
    tampered.writes[0].value = "evil";
    EXPECT_FALSE(verify_endorsement(p, tampered, result.endorsement, f.keys));
}

TEST(EndorserTest, TamperedPriorityFailsVerification) {
    // A client cannot promote a transaction by editing the signed vote.
    Fixture f;
    const auto p = f.proposal("record_keeper", "log", {"r1", "x"});
    auto result =
        endorse(p, f.state, f.registry, f.calculator, f.ctx(), f.keys, f.endorser_id);
    ASSERT_TRUE(result.ok);
    ASSERT_EQ(result.endorsement.priority, 2u);
    result.endorsement.priority = 0;  // forged promotion
    EXPECT_FALSE(verify_endorsement(p, result.rwset, result.endorsement, f.keys));
}

TEST(EndorserTest, TamperedProposalFailsVerification) {
    Fixture f;
    const auto p = f.proposal("record_keeper", "log", {"r1", "x"});
    const auto result =
        endorse(p, f.state, f.registry, f.calculator, f.ctx(), f.keys, f.endorser_id);
    ASSERT_TRUE(result.ok);
    auto p2 = p;
    p2.args = {"r1", "forged"};
    EXPECT_FALSE(verify_endorsement(p2, result.rwset, result.endorsement, f.keys));
}

/// Signs `priority` over (proposal, rwset) as `identity`, the way endorse()
/// does, without running a chaincode.
ledger::Endorsement signed_vote(const ledger::Proposal& p, const ledger::ReadWriteSet& rw,
                                const crypto::KeyStore& keys, const std::string& identity,
                                std::uint64_t org, PriorityLevel priority) {
    ledger::Endorsement e;
    e.endorser_identity = identity;
    e.org = OrgId{org};
    e.priority = priority;
    const Bytes payload = ledger::Envelope::endorsement_payload(p, rw, priority);
    e.response_hash = crypto::sha256(BytesView(payload));
    e.signature = keys.sign(identity, BytesView(payload));
    return e;
}

TEST(EndorserTest, EnvelopeVerifierMatchesOneByOneVerification) {
    Fixture f;
    f.keys.register_identity({"org2.peer0", OrgId{2}});
    const auto p = f.proposal("record_keeper", "log", {"r1", "x"});
    const auto endorsed =
        endorse(p, f.state, f.registry, f.calculator, f.ctx(), f.keys, f.endorser_id);
    ASSERT_TRUE(endorsed.ok);
    const ledger::ReadWriteSet& rw = endorsed.rwset;

    std::vector<ledger::Endorsement> es;
    std::vector<bool> expected;
    auto add = [&](ledger::Endorsement e, bool valid) {
        es.push_back(std::move(e));
        expected.push_back(valid);
    };
    // Votes 2, 0, 1 in a row: a suffix left over from the previous vote
    // fails the next one.
    add(signed_vote(p, rw, f.keys, "org0.peer0", 0, 2), true);
    add(signed_vote(p, rw, f.keys, "org1.peer0", 1, 0), true);
    add(signed_vote(p, rw, f.keys, "org2.peer0", 2, 1), true);
    // Forged MAC, then a valid vote right after it.
    ledger::Endorsement forged = signed_vote(p, rw, f.keys, "org1.peer0", 1, 0);
    forged.signature.mac[7] ^= 0x01;
    add(forged, false);
    add(signed_vote(p, rw, f.keys, "org1.peer0", 1, 2), true);
    // Tampered response hash (rejected before the MAC), then a valid vote.
    ledger::Endorsement bad_hash = signed_vote(p, rw, f.keys, "org2.peer0", 2, 1);
    bad_hash.response_hash[0] ^= 0x80;
    add(bad_hash, false);
    add(signed_vote(p, rw, f.keys, "org0.peer0", 0, 0), true);
    // Promoted vote: signed for 2, claims 0.
    ledger::Endorsement promoted = signed_vote(p, rw, f.keys, "org0.peer0", 0, 2);
    promoted.priority = 0;
    add(promoted, false);
    add(endorsed.endorsement, true);

    EndorsementVerifier verifier(p, rw, f.keys);
    for (std::size_t i = 0; i < es.size(); ++i) {
        const bool one_by_one = verify_endorsement(p, rw, es[i], f.keys);
        EXPECT_EQ(verifier.verify(es[i]), one_by_one) << "endorsement " << i;
        EXPECT_EQ(one_by_one, expected[i]) << "endorsement " << i;
    }
}

TEST(EndorserTest, StateReadsReflectEndorserState) {
    Fixture f;
    f.state.apply(ledger::KvWrite{"acct/alice", "500", false}, ledger::Version{3, 7});
    const auto result =
        endorse(f.proposal("asset_transfer", "query", {"alice"}), f.state, f.registry,
                f.calculator, f.ctx(), f.keys, f.endorser_id);
    ASSERT_TRUE(result.ok);
    ASSERT_EQ(result.rwset.reads.size(), 1u);
    EXPECT_EQ(result.rwset.reads[0].version, (ledger::Version{3, 7}));
}

}  // namespace
}  // namespace fl::peer
