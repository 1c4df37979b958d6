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
