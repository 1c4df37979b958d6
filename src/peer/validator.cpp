#include "peer/validator.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <string>

#include "common/log.h"
#include "peer/endorser.h"

namespace fl::peer {

namespace {

/// Accumulated effects of transactions already accepted in this block.  Each
/// written key remembers which transaction won it, so a later conflict can
/// report (and count) who displaced whom.
///
/// Ordered map on purpose: range reads are checked with lower_bound over
/// [start_key, end_key), and the phantom scan reports the first overlapping
/// key in lexicographic order.
struct AcceptedWrites {
    struct Winner {
        PriorityLevel priority = kUnassignedPriority;
        std::uint64_t tx = 0;
    };
    std::map<std::string, Winner, std::less<>> keys;

    void add(const ledger::ReadWriteSet& rwset, PriorityLevel priority, std::uint64_t tx) {
        for (const ledger::KvWrite& w : rwset.writes) {
            keys.emplace(w.key, Winner{priority, tx});
        }
    }
};

struct IntraBlockConflict {
    TxValidationCode code = TxValidationCode::kValid;
    AcceptedWrites::Winner winner;  ///< accepted tx that caused the failure
};

/// First failing intra-block conflict of `rwset` against accepted writes.
IntraBlockConflict intra_block_conflict(const ledger::ReadWriteSet& rwset,
                                        const AcceptedWrites& accepted) {
    for (const ledger::KvRead& r : rwset.reads) {
        if (const auto it = accepted.keys.find(r.key); it != accepted.keys.end()) {
            return {TxValidationCode::kMvccReadConflict, it->second};
        }
    }
    for (const ledger::RangeRead& rr : rwset.range_reads) {
        if (const auto it = accepted.keys.lower_bound(rr.start_key);
            it != accepted.keys.end() && it->first < rr.end_key) {
            return {TxValidationCode::kPhantomReadConflict, it->second};
        }
    }
    for (const ledger::KvWrite& w : rwset.writes) {
        if (const auto it = accepted.keys.find(w.key); it != accepted.keys.end()) {
            return {TxValidationCode::kWriteConflict, it->second};
        }
    }
    return {};
}

TxValidationCode check_endorsements(const ledger::Envelope& tx,
                                    const policy::ChannelConfig& channel,
                                    const policy::ConsolidationPolicy* consolidation,
                                    const crypto::KeyStore& keys,
                                    const ValidatorConfig& cfg) {
    std::set<OrgId> valid_orgs;
    std::vector<PriorityLevel> votes;
    votes.reserve(tx.endorsements.size());
    EndorsementVerifier verifier(tx.proposal, tx.rwset, keys);
    for (const ledger::Endorsement& e : tx.endorsements) {
        if (!verifier.verify(e)) {
            continue;  // forged / stale endorsement simply doesn't count
        }
        valid_orgs.insert(e.org);
        votes.push_back(e.priority);
    }
    if (!channel.endorsement_policy.satisfied_by(valid_orgs)) {
        return TxValidationCode::kEndorsementPolicyFailure;
    }
    if (cfg.verify_consolidation) {
        if (consolidation == nullptr) {
            return TxValidationCode::kBadPriorityConsolidation;
        }
        const auto expect =
            consolidation->consolidate(votes, channel.effective_levels());
        if (!expect || *expect != tx.consolidated_priority) {
            return TxValidationCode::kBadPriorityConsolidation;
        }
    }
    return TxValidationCode::kValid;
}

/// Processing order: block order, or stable priority order for the
/// prioritized validator.  Stability preserves per-level FIFO, so equal-
/// priority conflicts still resolve to the earlier transaction (§3.4).
std::vector<std::size_t> processing_order(const ledger::Block& block,
                                          const ValidatorConfig& cfg) {
    std::vector<std::size_t> order(block.transactions.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    if (cfg.prioritized) {
        std::stable_sort(order.begin(), order.end(),
                         [&block](std::size_t a, std::size_t b) {
                             return block.transactions[a].consolidated_priority <
                                    block.transactions[b].consolidated_priority;
                         });
    }
    return order;
}

}  // namespace

ValidationOutcome validate_block(const ledger::Block& block,
                                 const ledger::WorldState& state,
                                 const policy::ChannelConfig& channel,
                                 const policy::ConsolidationPolicy* consolidation,
                                 const crypto::KeyStore& keys,
                                 std::unordered_set<std::uint64_t>& seen_tx_ids,
                                 const ValidatorConfig& cfg) {
    ValidationOutcome out;
    out.codes.assign(block.transactions.size(), TxValidationCode::kValid);

    AcceptedWrites accepted;
    for (const std::size_t idx : processing_order(block, cfg)) {
        const ledger::Envelope& tx = block.transactions[idx];

        if (!seen_tx_ids.insert(tx.tx_id().value()).second) {
            out.codes[idx] = TxValidationCode::kDuplicateTxId;
            continue;
        }
        const TxValidationCode endorse_code =
            check_endorsements(tx, channel, consolidation, keys, cfg);
        if (!is_valid(endorse_code)) {
            out.codes[idx] = endorse_code;
            continue;
        }
        if (!state.validate_reads(tx.rwset)) {
            out.codes[idx] = TxValidationCode::kMvccReadConflict;
            FL_DEBUG("validator: tx " << tx.tx_id().value()
                                      << " stale read vs committed state (block "
                                      << block.header.number << ")");
            continue;
        }
        const IntraBlockConflict conflict = intra_block_conflict(tx.rwset, accepted);
        if (!is_valid(conflict.code)) {
            out.codes[idx] = conflict.code;
            // Lower numeric level = higher priority.  A strict win means the
            // prioritized order decided the outcome; a tie (or vanilla mode)
            // is plain first-come-first-served.
            if (cfg.prioritized && conflict.winner.priority < tx.consolidated_priority) {
                ++out.conflicts_priority_resolved;
            } else {
                ++out.conflicts_fifo_resolved;
            }
            FL_DEBUG("validator: tx " << tx.tx_id().value() << " (level "
                                      << tx.consolidated_priority << ") loses "
                                      << to_string(conflict.code) << " to tx "
                                      << conflict.winner.tx << " (level "
                                      << conflict.winner.priority << ") in block "
                                      << block.header.number);
            continue;
        }
        accepted.add(tx.rwset, tx.consolidated_priority, tx.tx_id().value());
        ++out.valid_count;
    }
    return out;
}

void apply_block(const ledger::Block& block, const ValidationOutcome& outcome,
                 ledger::WorldState& state) {
    for (std::size_t i = 0; i < block.transactions.size(); ++i) {
        if (!is_valid(outcome.codes[i])) continue;
        state.apply_all(block.transactions[i].rwset,
                        ledger::Version{block.header.number,
                                        static_cast<std::uint32_t>(i)});
    }
}

}  // namespace fl::peer
