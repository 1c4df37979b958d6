// Versioned key-value world state with MVCC semantics (Fabric's state DB) —
// striped over N concurrent shards.
//
// Every committed write stamps its key with the (block, tx_num) Version of
// the writing transaction.  Endorsers read through a StateReader that
// records key versions into a read set; committers validate those versions
// against the current state before applying writes.
//
// Sharding (DESIGN.md §13).  Keys are distributed over `shard_count` shards
// by a stable FNV-1a hash; each shard is an ordered map guarded by its own
// std::shared_mutex, so readers of different keys proceed concurrently and
// writers serialize per shard only.  The block validator is serial, so no
// production path reads one WorldState from two host threads today; the
// striping is kept for concurrent readers (tests/ledger/sharded_state_test)
// and its fate is an open ROADMAP item.
//
// Determinism contract: sharding is an *implementation* of the same
// key→(value, version) map — every observable (get, version_of, range,
// validate_reads, key_count, fingerprint) is a pure function of the map
// contents.  range() and fingerprint() merge the per-shard ordered maps
// back into global key order, so their results are byte-identical to the
// single-map reference implementation (tests/ledger/reference_state.h) at any
// shard count — the randomized differential in
// tests/ledger/sharded_state_test.cpp pins this.
//
// Instrumentation: each shard counts lock acquisitions (deterministic: a
// pure function of the access sequence the simulation generates) separately
// from try-lock failures ("contended" — host-scheduling dependent, never
// serialized into deterministic JSON; see DESIGN.md §13).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
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
    /// Default stripe width: a power of two comfortably above a typical
    /// reader pool (8), keeping expected same-shard collisions of
    /// concurrent readers low while the cross-shard merge stays cheap
    /// (DESIGN.md §13 has the selection argument and measured sweep).
    static constexpr std::size_t kDefaultShards = 16;

    /// Per-entry bookkeeping constant for approx_memory_bytes(): two
    /// std::string headers + Version + red-black tree node overhead.
    static constexpr std::uint64_t kPerEntryOverhead = 112;

    explicit WorldState(std::size_t shard_count = kDefaultShards);

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

    /// All present keys in [start_key, end_key) with their versions, in
    /// global key order (deterministic cross-shard merge).
    [[nodiscard]] std::vector<KvRead> range(const std::string& start_key,
                                            const std::string& end_key) const;

    /// True iff every read (and range read) in `rwset` still observes the
    /// same versions — Fabric's MVCC check.
    [[nodiscard]] bool validate_reads(const ReadWriteSet& rwset) const;

    [[nodiscard]] std::size_t key_count() const;

    /// Order-insensitive fingerprint of the full state; equal states on two
    /// peers hash equal, independent of shard count.  Used by consistency
    /// checks; streams the shards in merged key order.
    [[nodiscard]] std::uint64_t fingerprint() const;

    // -- sharding introspection (scale harness & gauges) --------------------

    /// Deterministic per-shard statistics.  keys/bytes and the lock
    /// *acquisition* counters are pure functions of the access sequence;
    /// the *contended* counters depend on host thread scheduling and must
    /// never enter thread-count-compared output.
    struct ShardStats {
        std::uint64_t keys = 0;
        std::uint64_t bytes = 0;  ///< payload bytes (keys + values)
        std::uint64_t read_locks = 0;
        std::uint64_t write_locks = 0;
        std::uint64_t read_contended = 0;   ///< host-dependent
        std::uint64_t write_contended = 0;  ///< host-dependent
    };

    [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
    [[nodiscard]] ShardStats shard_stats(std::size_t shard) const;
    /// Sums of shard_stats over all shards.
    [[nodiscard]] ShardStats total_stats() const;
    /// Largest per-shard key count (stripe balance indicator).
    [[nodiscard]] std::uint64_t max_shard_keys() const;

    /// Deterministic estimate of the store's resident footprint: payload
    /// bytes plus kPerEntryOverhead per entry (documented in DESIGN.md §13;
    /// host RSS is reported separately by bench/scale_state).
    [[nodiscard]] std::uint64_t approx_memory_bytes() const;

private:
    struct Shard {
        mutable std::shared_mutex mutex;
        std::map<std::string, VersionedValue, std::less<>> entries;
        std::uint64_t bytes = 0;  ///< guarded by mutex
        // Relaxed counters: totals are deterministic (see header comment);
        // sampling only ever happens between simulator events.
        mutable std::atomic<std::uint64_t> read_locks{0};
        mutable std::atomic<std::uint64_t> write_locks{0};
        mutable std::atomic<std::uint64_t> read_contended{0};
        mutable std::atomic<std::uint64_t> write_contended{0};
    };

    [[nodiscard]] Shard& shard_for(std::string_view key);
    [[nodiscard]] const Shard& shard_for(std::string_view key) const;
    [[nodiscard]] static std::shared_lock<std::shared_mutex> read_lock(
        const Shard& shard);
    [[nodiscard]] static std::unique_lock<std::shared_mutex> write_lock(
        const Shard& shard);
    void apply_locked(Shard& shard, const KvWrite& write, Version version);

    /// Shards are immovable (mutex, atomics), hence unique_ptr storage.
    std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace fl::ledger
