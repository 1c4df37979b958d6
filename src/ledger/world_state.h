// Versioned key-value world state with MVCC semantics (Fabric's state DB).
//
// Every committed write stamps its key with the (block, tx_num) Version of
// the writing transaction.  Endorsers read through a StateReader that
// records key versions into a read set; committers validate those versions
// against the current state before applying writes.
//
// Storage is one ordered map, so range() and fingerprint() are plain
// in-order walks.  tests/ledger/reference_state.h keeps an independent
// single-map implementation as the differential oracle.
//
// Threading contract: each Peer owns its store on one host thread.  The
// const API has no hidden mutation, so concurrent const reads are safe;
// writes belong to the owner and must not overlap any other access.
// (A striped, lock-per-shard version was tried and removed: DESIGN.md §13.)
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "ledger/rwset.h"

namespace fl::ledger {

struct VersionedValue {
    std::string value;
    Version version;
};

class WorldState {
public:
    /// Per-entry bookkeeping constant for approx_memory_bytes(): two
    /// std::string headers + Version + red-black tree node overhead.
    static constexpr std::uint64_t kPerEntryOverhead = 112;

    /// The stripe argument is compatibility for perfbench/src/replay.cpp,
    /// its one caller; a later benchmark change removes it.  Throws
    /// std::invalid_argument unless `stripes` is 1.
    explicit WorldState(std::size_t stripes = 1);

    WorldState(const WorldState&) = delete;
    WorldState& operator=(const WorldState&) = delete;

    /// Committed value of `key`, if present.
    [[nodiscard]] std::optional<std::string> get(const std::string& key) const;

    /// Committed version of `key`, nullopt if the key is absent.
    [[nodiscard]] std::optional<Version> version_of(const std::string& key) const;

    /// Applies one write at `version` (insert/overwrite or delete).
    void apply(const KvWrite& write, Version version);

    /// Applies all writes of a validated transaction.
    void apply_all(const ReadWriteSet& rwset, Version version);

    /// All present keys in [start_key, end_key) with their versions, in key
    /// order.
    [[nodiscard]] std::vector<KvRead> range(const std::string& start_key,
                                            const std::string& end_key) const;

    /// True iff every read (and range read) in `rwset` still observes the
    /// same versions — Fabric's MVCC check.
    [[nodiscard]] bool validate_reads(const ReadWriteSet& rwset) const;

    [[nodiscard]] std::size_t key_count() const { return entries_.size(); }

    /// FNV-1a over the (key, value, version) stream in key order; equal
    /// states on two peers hash equal whatever order the writes came in.
    /// Used by consistency checks.
    [[nodiscard]] std::uint64_t fingerprint() const;

    /// Deterministic estimate of the store's resident footprint: payload
    /// bytes plus kPerEntryOverhead per entry (host RSS is reported
    /// separately by bench/scale_state).
    [[nodiscard]] std::uint64_t approx_memory_bytes() const {
        return bytes_ + entries_.size() * kPerEntryOverhead;
    }

private:
    std::map<std::string, VersionedValue, std::less<>> entries_;
    std::uint64_t bytes_ = 0;  ///< payload bytes (keys + values)
};

}  // namespace fl::ledger
