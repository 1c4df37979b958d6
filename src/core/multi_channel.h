// Multi-channel simulation.
//
// Fabric channels are independent ledgers by construction (Androulaki et
// al., PAPERS.md): a channel has its own ordering log, its own chain, its
// own world state.  We model an N-channel network as N fully independent
// FabricNetworks — each with its own Simulator, broker/Raft cluster, peers,
// OSNs and clients — built from one shared base NetworkConfig plus a
// per-channel ChannelSpec override (block policy, priority levels,
// consolidation, block cutting, ordering backend).
//
// No event crosses a channel, so the engine is N independent drains: run()
// hands the channels to one parallel_for_each and each call drains its
// channel with FabricNetwork::run().  The cross-channel meter (shared
// client principals, per-org endorse CPU) is read once afterwards, in
// channel order, on the caller.
//
// Determinism argument (DESIGN.md §16): channels share no mutable state, so
// each channel's event order is exactly what a one-thread run produces.
// Hence every per-channel observable (metrics JSON, trace bytes, ledger
// fingerprints) and the meter totals are bit-identical at any thread count,
// and a 1-channel run is bit-identical to a plain FabricNetwork::run()
// drain.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/fabric_network.h"

namespace fl::core {

/// Per-channel overrides applied on top of MultiChannelConfig::base.  Unset
/// fields default to the base NetworkConfig's channel settings — the
/// "per-channel policy defaulting" contract tested in
/// tests/core/multi_channel_test.cpp.
struct ChannelSpec {
    /// 0 = auto-assign base.channel.id + index (so a single default-spec
    /// channel keeps the base id and legacy byte-identity).
    ChannelId id{0};
    std::optional<bool> priority_enabled;
    std::optional<std::uint32_t> priority_levels;
    std::optional<policy::BlockFormationPolicy> block_policy;
    std::optional<std::string> consolidation_spec;
    std::optional<std::uint32_t> block_size;
    std::optional<Duration> block_timeout;
    std::optional<orderer::OrderingBackendKind> ordering_backend;
};

struct MultiChannelConfig {
    /// Template for every channel: node counts, cost model, seed, faults.
    NetworkConfig base;
    /// One entry per channel; must be non-empty with distinct resolved ids.
    std::vector<ChannelSpec> channels{ChannelSpec{}};

    [[nodiscard]] std::size_t channel_count() const { return channels.size(); }

    /// The id channel `index` actually runs with (explicit or auto).
    [[nodiscard]] ChannelId resolved_id(std::size_t index) const;

    /// The full single-channel NetworkConfig for channel `index`: the base
    /// with the spec's overrides applied.  The seed is left untouched —
    /// callers derive per-channel seeds via channel_seed().
    [[nodiscard]] NetworkConfig channel_config(std::size_t index) const;

    /// Throws std::invalid_argument on an ill-formed config: no channels or
    /// duplicate resolved channel ids.
    void validate() const;

    /// N channels, all default specs (auto ids base.channel.id + i).
    [[nodiscard]] static MultiChannelConfig uniform(NetworkConfig base,
                                                    std::size_t n);
};

/// Seed for channel `index` of a run seeded `run_seed`.  Channel 0 keeps
/// `run_seed` unchanged — a 1-channel run reproduces the single-network
/// engine byte for byte — and later channels draw independent SplitMix64
/// streams.
[[nodiscard]] std::uint64_t channel_seed(std::uint64_t run_seed,
                                         std::size_t index);

/// Cross-channel totals over the drained channels.  Everything here is
/// read-only over deterministic per-channel counters, so the totals are
/// byte-stable across thread counts.
struct CrossChannelMeter {
    /// Transactions committed (valid, peer 0) per channel.
    std::vector<std::uint64_t> committed_per_channel;
    /// Endorse-station busy seconds per org, summed across channels.  Each
    /// channel simulates its own peers; the sum is only an accounting view
    /// of what one org spends on all its channels.
    std::vector<double> endorse_cpu_per_org;
    /// Completions per client principal summed across channels — client
    /// index c on every channel is one principal.
    std::vector<std::uint64_t> completed_per_client;

    /// Jain over the per-channel committed counts.
    [[nodiscard]] double channel_jain_overall() const;
    /// Jain over the per-principal completion counts.
    [[nodiscard]] double client_jain_overall() const;
    /// Jain over the per-org endorse CPU totals.
    [[nodiscard]] double org_cpu_jain_overall() const;
};

/// N independent per-channel FabricNetworks.
class MultiChannelNetwork {
public:
    /// Validates `config` (see MultiChannelConfig::validate) and builds
    /// every channel's network with seed channel_seed(config.base.seed, i).
    explicit MultiChannelNetwork(MultiChannelConfig config);

    MultiChannelNetwork(const MultiChannelNetwork&) = delete;
    MultiChannelNetwork& operator=(const MultiChannelNetwork&) = delete;

    [[nodiscard]] std::size_t channel_count() const { return nets_.size(); }
    [[nodiscard]] FabricNetwork& channel(std::size_t index) {
        return *nets_[index];
    }
    [[nodiscard]] const FabricNetwork& channel(std::size_t index) const {
        return *nets_[index];
    }
    [[nodiscard]] ChannelId channel_id(std::size_t index) const {
        return config_.resolved_id(index);
    }
    [[nodiscard]] const MultiChannelConfig& config() const { return config_; }

    /// Registers every channel's standard gauge set under a "ch<id>_"
    /// prefix, so N channels coexist in one registry without name clashes.
    void register_metrics(obs::MetricRegistry& registry);

    /// Drains every channel with FabricNetwork::run(), one
    /// parallel_for_each over the channels on up to `threads` threads (0 =
    /// hardware concurrency; 1 drains them in index order on the caller).
    /// Per-channel results are identical at any thread count.  Returns the
    /// number of events executed by this call.
    std::uint64_t run(unsigned threads = 1);

    /// Reads the channels' counters in channel order into the cross-channel
    /// totals; call it after run().
    [[nodiscard]] CrossChannelMeter meter();

private:
    MultiChannelConfig config_;
    std::vector<std::unique_ptr<FabricNetwork>> nets_;
};

}  // namespace fl::core
