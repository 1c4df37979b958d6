// Peer block delivery follows Fabric's deliver rule, keyed on the next
// expected block number: a block the peer already has (queued or
// committed) is dropped, and a block that arrives ahead of a gap waits
// until the gap is filled.  Without the rule a re-sent block reaches
// BlockStore::append, which throws on any non-sequential number.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/fabric_network.h"
#include "ledger/block.h"

namespace fl::peer {
namespace {

/// Empty blocks 0..n-1, hash-chained.
std::vector<std::shared_ptr<const ledger::Block>> chain_of(std::size_t n) {
    std::vector<std::shared_ptr<const ledger::Block>> blocks;
    crypto::Digest prev{};
    for (std::size_t i = 0; i < n; ++i) {
        blocks.push_back(std::make_shared<const ledger::Block>(
            ledger::make_block(i, i == 0 ? nullptr : &prev, {})));
        prev = blocks.back()->header.hash();
    }
    return blocks;
}

core::NetworkConfig quiet_config() {
    core::NetworkConfig cfg;
    cfg.orgs = 1;
    cfg.peers_per_org = 1;
    cfg.osns = 1;
    cfg.clients = 1;
    return cfg;
}

TEST(PeerDeliverTest, DuplicateBlocksAreDropped) {
    core::FabricNetwork net(quiet_config());
    Peer& peer = *net.peers().front();
    const auto blocks = chain_of(3);
    peer.deliver_block(blocks[0]);
    peer.deliver_block(blocks[0]);  // still queued behind validation
    peer.deliver_block(blocks[1]);
    net.run();
    peer.deliver_block(blocks[1]);  // already committed
    peer.deliver_block(blocks[2]);
    net.run();

    EXPECT_EQ(peer.chain().height(), 3u);
    EXPECT_EQ(peer.blocks_committed(), 3u);
    EXPECT_EQ(peer.duplicate_blocks(), 2u);
    EXPECT_TRUE(peer.chain().verify_chain());
}

TEST(PeerDeliverTest, EarlyBlocksWaitForTheGap) {
    core::FabricNetwork net(quiet_config());
    Peer& peer = *net.peers().front();
    const auto blocks = chain_of(4);
    peer.deliver_block(blocks[2]);
    peer.deliver_block(blocks[1]);
    peer.deliver_block(blocks[2]);  // a duplicate of a held block
    net.run();
    EXPECT_EQ(peer.chain().height(), 0u);
    EXPECT_EQ(peer.held_blocks(), 2u);

    peer.deliver_block(blocks[0]);  // fills the gap: 0, 1 and 2 commit
    net.run();
    EXPECT_EQ(peer.chain().height(), 3u);
    EXPECT_EQ(peer.held_blocks(), 0u);

    peer.deliver_block(blocks[3]);
    net.run();
    EXPECT_EQ(peer.chain().height(), 4u);
    EXPECT_EQ(peer.duplicate_blocks(), 1u);
    EXPECT_TRUE(peer.chain().verify_chain());
}

}  // namespace
}  // namespace fl::peer
