#include "chaincode/chaincode.h"

#include <gtest/gtest.h>

#include "chaincode/analytics.h"
#include "chaincode/asset_transfer.h"
#include "chaincode/record_keeper.h"
#include "chaincode/registry.h"
#include "chaincode/supply_chain.h"

namespace fl::chaincode {
namespace {

using ledger::KvWrite;
using ledger::Version;
using ledger::WorldState;

// ---------------------------------------------------------------- TxContext

TEST(TxContextTest, GetRecordsReadVersion) {
    WorldState ws;
    ws.apply(KvWrite{"k", "v", false}, Version{3, 1});
    TxContext ctx(ws);
    EXPECT_EQ(ctx.get("k"), "v");
    ASSERT_EQ(ctx.rwset().reads.size(), 1u);
    EXPECT_EQ(ctx.rwset().reads[0].key, "k");
    EXPECT_EQ(ctx.rwset().reads[0].version, (Version{3, 1}));
}

TEST(TxContextTest, GetAbsentRecordsNullVersion) {
    WorldState ws;
    TxContext ctx(ws);
    EXPECT_FALSE(ctx.get("missing").has_value());
    ASSERT_EQ(ctx.rwset().reads.size(), 1u);
    EXPECT_FALSE(ctx.rwset().reads[0].version.has_value());
}

TEST(TxContextTest, RepeatedReadRecordedOnce) {
    WorldState ws;
    ws.apply(KvWrite{"k", "v", false}, Version{1, 0});
    TxContext ctx(ws);
    (void)ctx.get("k");
    (void)ctx.get("k");
    EXPECT_EQ(ctx.rwset().reads.size(), 1u);
}

TEST(TxContextTest, ReadYourOwnWrites) {
    WorldState ws;
    ws.apply(KvWrite{"k", "old", false}, Version{1, 0});
    TxContext ctx(ws);
    ctx.put("k", "new");
    EXPECT_EQ(ctx.get("k"), "new");
    // The read was served from the pending write: no read recorded.
    EXPECT_TRUE(ctx.rwset().reads.empty());
}

TEST(TxContextTest, ReadYourOwnDelete) {
    WorldState ws;
    ws.apply(KvWrite{"k", "v", false}, Version{1, 0});
    TxContext ctx(ws);
    ctx.del("k");
    EXPECT_FALSE(ctx.get("k").has_value());
}

TEST(TxContextTest, LastWriteWins) {
    WorldState ws;
    TxContext ctx(ws);
    ctx.put("k", "first");
    ctx.put("k", "second");
    EXPECT_EQ(ctx.get("k"), "second");
}

TEST(TxContextTest, RangeRecordsObservedVersions) {
    WorldState ws;
    ws.apply(KvWrite{"p/a", "1", false}, Version{1, 0});
    ws.apply(KvWrite{"p/b", "2", false}, Version{1, 1});
    ws.apply(KvWrite{"q/x", "3", false}, Version{1, 2});
    TxContext ctx(ws);
    const auto rows = ctx.range("p/", "p/\x7f");
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].first, "p/a");
    EXPECT_EQ(rows[1].second, "2");
    ASSERT_EQ(ctx.rwset().range_reads.size(), 1u);
    EXPECT_EQ(ctx.rwset().range_reads[0].observed.size(), 2u);
}

TEST(TxContextTest, TakeRwsetMovesEverything) {
    WorldState ws;
    TxContext ctx(ws);
    ctx.put("a", "1");
    (void)ctx.get("b");
    ledger::ReadWriteSet s = std::move(ctx).take_rwset();
    EXPECT_EQ(s.writes.size(), 1u);
    EXPECT_EQ(s.reads.size(), 1u);
}

// ------------------------------------------------------------ AssetTransfer

class AssetTransferTest : public ::testing::Test {
protected:
    WorldState ws_;
    AssetTransferChaincode cc_;

    Response invoke(const std::string& fn, std::vector<std::string> args,
                    bool commit = true) {
        TxContext ctx(ws_);
        const Response r = cc_.invoke(ctx, fn, args);
        if (commit && r.ok) {
            ws_.apply_all(ctx.rwset(), Version{1, 0});
        }
        return r;
    }
};

TEST_F(AssetTransferTest, CreateAndQuery) {
    EXPECT_TRUE(invoke("create", {"alice", "100"}).ok);
    const Response q = invoke("query", {"alice"});
    EXPECT_TRUE(q.ok);
    EXPECT_EQ(q.message, "100");
}

TEST_F(AssetTransferTest, TransferMovesBalance) {
    ASSERT_TRUE(invoke("create", {"alice", "100"}).ok);
    ASSERT_TRUE(invoke("create", {"bob", "10"}).ok);
    EXPECT_TRUE(invoke("transfer", {"alice", "bob", "30"}).ok);
    EXPECT_EQ(invoke("query", {"alice"}).message, "70");
    EXPECT_EQ(invoke("query", {"bob"}).message, "40");
}

TEST_F(AssetTransferTest, TransferInsufficientFunds) {
    ASSERT_TRUE(invoke("create", {"alice", "10"}).ok);
    ASSERT_TRUE(invoke("create", {"bob", "0"}).ok);
    EXPECT_FALSE(invoke("transfer", {"alice", "bob", "30"}).ok);
}

TEST_F(AssetTransferTest, TransferUnknownAccount) {
    ASSERT_TRUE(invoke("create", {"alice", "10"}).ok);
    EXPECT_FALSE(invoke("transfer", {"alice", "ghost", "5"}).ok);
    EXPECT_FALSE(invoke("transfer", {"ghost", "alice", "5"}).ok);
}

TEST_F(AssetTransferTest, BadArguments) {
    EXPECT_FALSE(invoke("create", {"alice"}).ok);
    EXPECT_FALSE(invoke("create", {"alice", "not-a-number"}).ok);
    EXPECT_FALSE(invoke("transfer", {"a", "b", "-5"}).ok);
    EXPECT_FALSE(invoke("nosuch", {}).ok);
    EXPECT_FALSE(invoke("query", {"ghost"}).ok);
}

TEST_F(AssetTransferTest, MintCreatesThenTopsUp) {
    EXPECT_TRUE(invoke("mint", {"alice", "40"}).ok);  // create path
    EXPECT_EQ(invoke("query", {"alice"}).message, "40");
    EXPECT_TRUE(invoke("mint", {"alice", "5"}).ok);  // top-up path
    EXPECT_EQ(invoke("query", {"alice"}).message, "45");
}

TEST_F(AssetTransferTest, MintBadArguments) {
    EXPECT_FALSE(invoke("mint", {"alice"}).ok);
    EXPECT_FALSE(invoke("mint", {"alice", "-1"}).ok);
    EXPECT_FALSE(invoke("mint", {"alice", "ten"}).ok);
}

TEST_F(AssetTransferTest, MintRwsetShape) {
    // One read (existence probe) + one write — the single-key traffic the
    // Zipfian scale workload relies on.
    TxContext ctx(ws_);
    ASSERT_TRUE(cc_.invoke(ctx, "mint", std::vector<std::string>{"a", "7"}).ok);
    EXPECT_EQ(ctx.rwset().reads.size(), 1u);
    EXPECT_EQ(ctx.rwset().writes.size(), 1u);
}

TEST_F(AssetTransferTest, TransferRwsetShape) {
    ASSERT_TRUE(invoke("create", {"a", "50"}).ok);
    ASSERT_TRUE(invoke("create", {"b", "50"}).ok);
    TxContext ctx(ws_);
    ASSERT_TRUE(cc_.invoke(ctx, "transfer", std::vector<std::string>{"a", "b", "1"}).ok);
    EXPECT_EQ(ctx.rwset().reads.size(), 2u);
    EXPECT_EQ(ctx.rwset().writes.size(), 2u);
}

// ------------------------------------------------------------ RecordKeeper

TEST(RecordKeeperTest, LogIsBlindWrite) {
    WorldState ws;
    RecordKeeperChaincode cc;
    TxContext ctx(ws);
    ASSERT_TRUE(cc.invoke(ctx, "log", std::vector<std::string>{"r1", "data"}).ok);
    EXPECT_TRUE(ctx.rwset().reads.empty());  // never conflicts
    EXPECT_EQ(ctx.rwset().writes.size(), 1u);
}

TEST(RecordKeeperTest, GetReadsBack) {
    WorldState ws;
    RecordKeeperChaincode cc;
    {
        TxContext ctx(ws);
        ASSERT_TRUE(cc.invoke(ctx, "log", std::vector<std::string>{"r1", "data"}).ok);
        ws.apply_all(ctx.rwset(), Version{1, 0});
    }
    TxContext ctx(ws);
    const Response r = cc.invoke(ctx, "get", std::vector<std::string>{"r1"});
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.message, "data");
    EXPECT_FALSE(cc.invoke(ctx, "get", std::vector<std::string>{"nope"}).ok);
}

// ------------------------------------------------------------- SupplyChain

class SupplyChainTest : public ::testing::Test {
protected:
    WorldState ws_;
    SupplyChainChaincode cc_;
    std::uint32_t seq_ = 0;

    Response invoke(const std::string& fn, std::vector<std::string> args) {
        TxContext ctx(ws_);
        const Response r = cc_.invoke(ctx, fn, args);
        if (r.ok) {
            ws_.apply_all(ctx.rwset(), Version{1, seq_++});
        }
        return r;
    }
};

TEST_F(SupplyChainTest, LifecycleAndTrack) {
    ASSERT_TRUE(invoke("create_shipment", {"sh1", "delhi", "paris"}).ok);
    ASSERT_TRUE(invoke("update_status", {"sh1", "in-transit"}).ok);
    ASSERT_TRUE(invoke("handoff", {"sh1", "air-carrier"}).ok);
    ASSERT_TRUE(invoke("update_status", {"sh1", "delivered"}).ok);
    const Response r = invoke("track", {"sh1"});
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.message,
              "created,status=in-transit,custodian=air-carrier,status=delivered");
}

TEST_F(SupplyChainTest, DuplicateCreateRejected) {
    ASSERT_TRUE(invoke("create_shipment", {"sh1", "a", "b"}).ok);
    EXPECT_FALSE(invoke("create_shipment", {"sh1", "a", "b"}).ok);
}

TEST_F(SupplyChainTest, UpdateUnknownShipment) {
    EXPECT_FALSE(invoke("update_status", {"ghost", "x"}).ok);
    EXPECT_FALSE(invoke("handoff", {"ghost", "x"}).ok);
}

TEST_F(SupplyChainTest, UpdateIsReadModifyWrite) {
    ASSERT_TRUE(invoke("create_shipment", {"sh1", "a", "b"}).ok);
    TxContext ctx(ws_);
    ASSERT_TRUE(
        cc_.invoke(ctx, "update_status", std::vector<std::string>{"sh1", "x"}).ok);
    EXPECT_FALSE(ctx.rwset().reads.empty());  // conflicts with other updates
    EXPECT_FALSE(ctx.rwset().writes.empty());
}

TEST_F(SupplyChainTest, CorruptSequenceFailsInsteadOfThrowing) {
    ASSERT_TRUE(invoke("create_shipment", {"sh1", "a", "b"}).ok);
    for (const char* bad : {"", "x", "-1", "7abc", "99999999999999999999999"}) {
        SCOPED_TRACE(bad);
        ws_.apply(KvWrite{"ship/sh1/seq", bad, false}, Version{1, seq_++});
        const Response r = invoke("update_status", {"sh1", "x"});
        EXPECT_FALSE(r.ok);
        EXPECT_NE(r.message.find("corrupt event sequence"), std::string::npos);
    }
}

// --------------------------------------------------------------- Analytics

TEST(AnalyticsTest, IngestAndReport) {
    WorldState ws;
    AnalyticsChaincode cc;
    std::uint32_t seq = 0;
    for (const char* v : {"1.0", "2.0", "3.0"}) {
        TxContext ctx(ws);
        ASSERT_TRUE(cc.invoke(ctx, "ingest",
                              std::vector<std::string>{"cpu", std::string("p") +
                                                                  v,
                                                       v})
                        .ok);
        ws.apply_all(ctx.rwset(), Version{1, seq++});
    }
    TxContext ctx(ws);
    const Response r =
        cc.invoke(ctx, "report", std::vector<std::string>{"cpu", "weekly"});
    ASSERT_TRUE(r.ok);
    ASSERT_EQ(ctx.rwset().range_reads.size(), 1u);  // wide scan
    ws.apply_all(ctx.rwset(), Version{2, 0});
    EXPECT_TRUE(ws.get("an/cpu/report/weekly").has_value());
    EXPECT_NE(ws.get("an/cpu/report/weekly")->find("n=3"), std::string::npos);
}

TEST(AnalyticsTest, ReportOnEmptySeries) {
    WorldState ws;
    AnalyticsChaincode cc;
    TxContext ctx(ws);
    EXPECT_TRUE(cc.invoke(ctx, "report", std::vector<std::string>{"none", "r"}).ok);
}

// ---------------------------------------------------------------- Registry

TEST(RegistryTest, StandardContractsAndPriorities) {
    const Registry r = Registry::with_standard_contracts(3);
    EXPECT_EQ(r.size(), 4u);
    EXPECT_EQ(r.static_priority("asset_transfer"), 0u);
    EXPECT_EQ(r.static_priority("supply_chain"), 1u);
    EXPECT_EQ(r.static_priority("analytics"), 1u);
    EXPECT_EQ(r.static_priority("record_keeper"), 2u);
}

TEST(RegistryTest, LevelClamping) {
    const Registry r = Registry::with_standard_contracts(2);
    EXPECT_EQ(r.static_priority("record_keeper"), 1u);
}

TEST(RegistryTest, UnknownChaincodeThrows) {
    const Registry r = Registry::with_standard_contracts();
    EXPECT_FALSE(r.has("ghost"));
    EXPECT_THROW((void)r.get("ghost"), std::invalid_argument);
    EXPECT_THROW((void)r.static_priority("ghost"), std::invalid_argument);
}

TEST(RegistryTest, DuplicateDeployThrows) {
    Registry r;
    r.deploy(std::make_unique<RecordKeeperChaincode>(), 0);
    EXPECT_THROW(r.deploy(std::make_unique<RecordKeeperChaincode>(), 1),
                 std::invalid_argument);
}

TEST(RegistryTest, NullDeployThrows) {
    Registry r;
    EXPECT_THROW(r.deploy(nullptr, 0), std::invalid_argument);
}

TEST(RegistryTest, ZeroLevelsRejected) {
    EXPECT_THROW(Registry::with_standard_contracts(0), std::invalid_argument);
}

}  // namespace
}  // namespace fl::chaincode
