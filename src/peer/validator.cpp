#include "peer/validator.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <string>

#include "common/log.h"
#include "common/thread_pool.h"
#include "peer/conflict_graph.h"
#include "peer/endorser.h"

namespace fl::peer {

namespace {

/// Accumulated effects of transactions already accepted in this block.  Each
/// written key remembers which transaction won it, so a later conflict can
/// report (and count) who displaced whom.
///
/// Ordered map on purpose: the phantom scan below reports the first
/// overlapping key in LEXICOGRAPHIC order, which is a pure function of the
/// map's contents — unlike unordered iteration, it cannot depend on
/// insertion history, so the serial and wave-parallel paths attribute
/// conflicts to the same winner.
struct AcceptedWrites {
    struct Winner {
        PriorityLevel priority = kUnassignedPriority;
        std::uint64_t tx = 0;
        /// Position of the winning transaction in the processing order.
        /// The wave-parallel path decides transactions out of processing
        /// order, so its map can briefly hold writes of transactions that
        /// come LATER in processing order than the one being checked; the
        /// conflict scan filters those out to match the serial validator,
        /// where they simply would not have been inserted yet.
        std::uint32_t order_pos = 0;
    };
    std::map<std::string, Winner, std::less<>> keys;

    void add(const ledger::ReadWriteSet& rwset, PriorityLevel priority,
             std::uint64_t tx, std::uint32_t order_pos) {
        for (const ledger::KvWrite& w : rwset.writes) {
            keys.emplace(w.key, Winner{priority, tx, order_pos});
        }
    }
};

struct IntraBlockConflict {
    TxValidationCode code = TxValidationCode::kValid;
    AcceptedWrites::Winner winner;  ///< accepted tx that caused the failure
};

/// First failing intra-block conflict of `rwset` against accepted writes of
/// transactions earlier than `order_pos` in the processing order.
IntraBlockConflict intra_block_conflict(const ledger::ReadWriteSet& rwset,
                                        const AcceptedWrites& accepted,
                                        std::uint32_t order_pos) {
    const auto earlier = [order_pos](const AcceptedWrites::Winner& w) {
        return w.order_pos < order_pos;
    };
    for (const ledger::KvRead& r : rwset.reads) {
        if (const auto it = accepted.keys.find(r.key);
            it != accepted.keys.end() && earlier(it->second)) {
            return {TxValidationCode::kMvccReadConflict, it->second};
        }
    }
    for (const ledger::RangeRead& rr : rwset.range_reads) {
        for (auto it = accepted.keys.lower_bound(rr.start_key);
             it != accepted.keys.end() && it->first < rr.end_key; ++it) {
            if (earlier(it->second)) {
                return {TxValidationCode::kPhantomReadConflict, it->second};
            }
        }
    }
    for (const ledger::KvWrite& w : rwset.writes) {
        if (const auto it = accepted.keys.find(w.key);
            it != accepted.keys.end() && earlier(it->second)) {
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

/// Records one intra-block loss: code, counters, debug log.  Shared by both
/// paths so the accounting cannot drift between them.
void record_conflict(const ledger::Block& block, std::size_t idx,
                     const IntraBlockConflict& conflict, const ValidatorConfig& cfg,
                     ValidationOutcome& out) {
    const ledger::Envelope& tx = block.transactions[idx];
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
}

/// The reference oracle: one pass over the processing order.
ValidationOutcome validate_serial(const ledger::Block& block,
                                  const ledger::WorldState& state,
                                  const policy::ChannelConfig& channel,
                                  const policy::ConsolidationPolicy* consolidation,
                                  const crypto::KeyStore& keys,
                                  std::unordered_set<std::uint64_t>& seen_tx_ids,
                                  const ValidatorConfig& cfg,
                                  const std::vector<std::size_t>& order) {
    ValidationOutcome out;
    out.codes.assign(block.transactions.size(), TxValidationCode::kValid);

    AcceptedWrites accepted;
    std::uint32_t rank = 0;
    for (const std::size_t idx : order) {
        const ledger::Envelope& tx = block.transactions[idx];
        const std::uint32_t my_rank = rank++;

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
        const IntraBlockConflict conflict =
            intra_block_conflict(tx.rwset, accepted, my_rank);
        if (!is_valid(conflict.code)) {
            record_conflict(block, idx, conflict, cfg, out);
            continue;
        }
        accepted.add(tx.rwset, tx.consolidated_priority, tx.tx_id().value(), my_rank);
        ++out.valid_count;
    }
    return out;
}

/// The parallel path.  Equivalence to validate_serial (DESIGN.md §12):
///   * the replay filter depends only on the processing order, so it runs
///     serially up front — same insertions, same kDuplicateTxId codes;
///   * endorsement/consolidation checks and the MVCC scan against COMMITTED
///     state are pure per-transaction functions of read-only inputs — they
///     fan out over the pool and land in per-transaction slots;
///   * intra-block resolution processes the conflict-graph waves in order:
///     every transaction a wave member could possibly collide with sits in
///     an earlier wave (conflict_graph.h), so checking against the map
///     frozen at the wave boundary sees exactly the accepted writes the
///     serial scan would have seen (the order_pos filter hides writes of
///     later-in-order transactions that were decided early).
ValidationOutcome validate_parallel(const ledger::Block& block,
                                    const ledger::WorldState& state,
                                    const policy::ChannelConfig& channel,
                                    const policy::ConsolidationPolicy* consolidation,
                                    const crypto::KeyStore& keys,
                                    std::unordered_set<std::uint64_t>& seen_tx_ids,
                                    const ValidatorConfig& cfg,
                                    const std::vector<std::size_t>& order) {
    const std::size_t n = block.transactions.size();
    ValidationOutcome out;
    out.codes.assign(n, TxValidationCode::kValid);

    // Phase 1 (serial, cheap): the replay filter.  Insertion order is the
    // processing order, exactly like the serial path — note the serial path
    // also inserts ids of transactions that later fail other checks.
    for (const std::size_t idx : order) {
        if (!seen_tx_ids.insert(block.transactions[idx].tx_id().value()).second) {
            out.codes[idx] = TxValidationCode::kDuplicateTxId;
        }
    }

    // Phase 2 (parallel): signature + digest + consolidation + committed-
    // state MVCC for every non-duplicate transaction.  Each body reads only
    // const state and writes its own slot.
    std::vector<std::size_t> checkable;
    checkable.reserve(n);
    for (const std::size_t idx : order) {
        if (is_valid(out.codes[idx])) checkable.push_back(idx);
    }
    std::vector<TxValidationCode> precheck(n, TxValidationCode::kValid);
    parallel_for_each(*cfg.pool, checkable.size(), [&](std::size_t k) {
        const ledger::Envelope& tx = block.transactions[checkable[k]];
        TxValidationCode code =
            check_endorsements(tx, channel, consolidation, keys, cfg);
        if (is_valid(code) && !state.validate_reads(tx.rwset)) {
            code = TxValidationCode::kMvccReadConflict;
        }
        precheck[checkable[k]] = code;
    });
    out.parallel_checked = checkable.size();
    for (const std::size_t idx : checkable) {
        if (!is_valid(precheck[idx])) {
            out.codes[idx] = precheck[idx];
            if (precheck[idx] == TxValidationCode::kMvccReadConflict) {
                FL_DEBUG("validator: tx " << block.transactions[idx].tx_id().value()
                                          << " stale read vs committed state (block "
                                          << block.header.number << ")");
            }
        }
    }

    // Phase 3: wave schedule over the surviving candidates, compacted in
    // processing order (position k below = k-th candidate in that order).
    std::vector<const ledger::ReadWriteSet*> rwsets;
    std::vector<std::size_t> cand_idx;  // candidate position -> block index
    rwsets.reserve(n);
    cand_idx.reserve(n);
    for (const std::size_t idx : order) {
        if (!is_valid(out.codes[idx])) continue;
        rwsets.push_back(&block.transactions[idx].rwset);
        cand_idx.push_back(idx);
    }
    const WaveSchedule schedule = build_wave_schedule(rwsets);
    out.parallel_waves = schedule.wave_count;
    out.conflict_components = schedule.component_count;
    out.conflict_edges = schedule.edge_count;
    out.largest_component = schedule.max_component_size;
    out.wave_sizes.reserve(schedule.waves.size());

    // Phase 4: resolve wave by wave.  The conflict scans of one wave are
    // independent (read the frozen map, write their own slot) and fan out;
    // the merge applies decisions serially in processing order, so the map
    // contents — and therefore every later wave's scans — are deterministic.
    AcceptedWrites accepted;
    std::vector<IntraBlockConflict> conflicts;
    for (const std::vector<std::uint32_t>& wave : schedule.waves) {
        out.wave_sizes.push_back(static_cast<std::uint32_t>(wave.size()));
        conflicts.assign(wave.size(), IntraBlockConflict{});
        const auto scan = [&](std::size_t k) {
            const std::uint32_t pos = wave[k];
            conflicts[k] = intra_block_conflict(*rwsets[pos], accepted, pos);
        };
        if (wave.size() > 1) {
            parallel_for_each(*cfg.pool, wave.size(), scan);
        } else {
            for (std::size_t k = 0; k < wave.size(); ++k) scan(k);
        }
        for (std::size_t k = 0; k < wave.size(); ++k) {
            const std::uint32_t pos = wave[k];
            const std::size_t idx = cand_idx[pos];
            if (!is_valid(conflicts[k].code)) {
                record_conflict(block, idx, conflicts[k], cfg, out);
                continue;
            }
            const ledger::Envelope& tx = block.transactions[idx];
            accepted.add(tx.rwset, tx.consolidated_priority, tx.tx_id().value(),
                         pos);
            ++out.valid_count;
        }
    }
    return out;
}

}  // namespace

ValidationOutcome validate_block(const ledger::Block& block,
                                 const ledger::WorldState& state,
                                 const policy::ChannelConfig& channel,
                                 const policy::ConsolidationPolicy* consolidation,
                                 const crypto::KeyStore& keys,
                                 std::unordered_set<std::uint64_t>& seen_tx_ids,
                                 const ValidatorConfig& cfg) {
    const std::vector<std::size_t> order = processing_order(block, cfg);
    if (cfg.mode == ValidationMode::kParallel && cfg.pool != nullptr &&
        block.transactions.size() >= cfg.parallel_min_txs) {
        return validate_parallel(block, state, channel, consolidation, keys,
                                 seen_tx_ids, cfg, order);
    }
    return validate_serial(block, state, channel, consolidation, keys, seen_tx_ids,
                           cfg, order);
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
