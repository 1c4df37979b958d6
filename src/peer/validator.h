// Block validation — including the paper's Prioritized Validator (§3.4).
//
// For every transaction in a block the committer checks, in order:
//   1. duplicate transaction id (replay);
//   2. endorsement signatures + endorsement policy;
//   3. (priority mode) that the consolidated priority the OSN stamped is
//      what the consolidation policy yields from the endorsers' signed
//      votes — a byzantine/buggy OSN cannot silently promote a transaction;
//   4. MVCC read-set validity against committed state;
//   5. intra-block conflicts against already-accepted transactions.
//
// Conflict resolution order is the one novel bit: the standard Fabric
// validator accepts the transaction that appears *earlier in the block*;
// the prioritized validator processes transactions in consolidated-priority
// order (stable within a level, preserving the generator's per-level FIFO),
// so on a rw/ww conflict the higher-priority transaction survives.
// Validation codes are reported in block order either way, and writes are
// applied with block-order version stamps, so all committers converge.
//
// One serial pass over the processing order computes that result; DESIGN.md
// §12 records why there is no parallel variant.
#pragma once

#include <unordered_set>
#include <vector>

#include "crypto/signature.h"
#include "ledger/block.h"
#include "ledger/world_state.h"
#include "policy/channel_config.h"
#include "policy/consolidation_policy.h"

namespace fl::peer {

struct ValidationOutcome {
    /// One code per transaction, in block order.
    std::vector<TxValidationCode> codes;
    std::size_t valid_count = 0;
    /// Intra-block conflicts where the surviving transaction had a strictly
    /// higher (numerically lower) priority than the loser — i.e. where the
    /// prioritized processing order changed who wins vs vanilla Fabric.
    std::uint64_t conflicts_priority_resolved = 0;
    /// Intra-block conflicts resolved purely by arrival order (equal
    /// priorities, or the validator is running in vanilla block-order mode).
    std::uint64_t conflicts_fifo_resolved = 0;
};

struct ValidatorConfig {
    /// Resolve intra-block conflicts by priority (the paper's validator)
    /// instead of block order (vanilla Fabric).
    bool prioritized = false;
    /// Re-check the OSN's consolidated priority against endorser votes.
    bool verify_consolidation = false;
};

/// Validates `block` against `state`.  `seen_tx_ids` is the committer's
/// replay filter; validated ids are inserted into it.  Does not modify
/// `state` — call apply_block() afterwards.
[[nodiscard]] ValidationOutcome validate_block(
    const ledger::Block& block, const ledger::WorldState& state,
    const policy::ChannelConfig& channel, const policy::ConsolidationPolicy* consolidation,
    const crypto::KeyStore& keys, std::unordered_set<std::uint64_t>& seen_tx_ids,
    const ValidatorConfig& cfg);

/// Applies the writes of all valid transactions, stamping versions with the
/// block number and the *block-order* transaction index.
void apply_block(const ledger::Block& block, const ValidationOutcome& outcome,
                 ledger::WorldState& state);

}  // namespace fl::peer
