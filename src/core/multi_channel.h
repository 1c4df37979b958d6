// Multi-channel simulation and the channel-sharded engine.
//
// Fabric channels are independent ledgers by construction (Androulaki et
// al., PAPERS.md): a channel has its own ordering log, its own chain, its
// own world state.  We model an N-channel network as N fully independent
// FabricNetworks — each with its own Simulator, broker/Raft cluster, peers,
// OSNs and clients — built from one shared base NetworkConfig plus a
// per-channel ChannelSpec override (block policy, priority levels,
// consolidation, block cutting, ordering backend).
//
// The engine advances all channels through conservative time windows on a
// fixed grid (multiples of sync_window anchored at the origin):
//
//   while any channel has pending events:
//     window := the grid cell containing the earliest pending event
//     every channel runs run_until(window end)     <- one parallel_for_each
//                                                     over the channels
//     barrier
//     cross-channel meters sample at the boundary  <- serial, channel order
//
// Determinism argument (DESIGN.md §16): channels share no mutable state —
// no event scheduled on channel A can read or write channel B — so within a
// window the per-channel executions are embarrassingly parallel and each
// channel's event order is exactly what a one-thread run produces.  The
// only cross-channel touch points are the boundary meters (shared client
// principals and shared per-org endorser CPU), which read — never write —
// after the barrier, in channel order, on one thread.  Hence every
// per-channel observable (metrics JSON, trace bytes, ledger fingerprints)
// and the cross-channel meter series are bit-identical at any thread count
// and any sync_window, and a 1-channel run is bit-identical to a plain
// FabricNetwork::run() drain.
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
    /// Conservative synchronization window of the sharded engine.  Pure
    /// engine knob: per-channel results are identical for any positive
    /// value; only the cross-channel meter's sampling cadence changes.
    Duration sync_window = Duration::millis(250);

    [[nodiscard]] std::size_t channel_count() const { return channels.size(); }

    /// The id channel `index` actually runs with (explicit or auto).
    [[nodiscard]] ChannelId resolved_id(std::size_t index) const;

    /// The full single-channel NetworkConfig for channel `index`: the base
    /// with the spec's overrides applied.  The seed is left untouched —
    /// callers derive per-channel seeds via channel_seed().
    [[nodiscard]] NetworkConfig channel_config(std::size_t index) const;

    /// Throws std::invalid_argument on an ill-formed config: no channels,
    /// duplicate resolved channel ids, or a non-positive sync_window.
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

/// Cross-channel observations sampled at the engine's window boundaries —
/// the conservative-window "touch points".  Everything here is read-only
/// over deterministic per-channel counters, so the series is byte-stable
/// across thread counts.
struct CrossChannelMeter {
    struct Window {
        TimePoint end;
        /// Transactions committed (valid, peer 0) per channel this window.
        std::vector<std::uint64_t> committed_per_channel;
        /// Endorse-station busy seconds per org, summed across channels
        /// this window — the shared endorser CPU meter (orgs exist on every
        /// channel; their compute budget is one pool in a real deployment).
        std::vector<double> endorse_cpu_per_org;
        /// Completions per client principal summed across channels this
        /// window — client index c on every channel is one shared
        /// principal.
        std::vector<std::uint64_t> completed_per_client;
        /// Jain's index over committed_per_channel / completed_per_client.
        double channel_jain = 1.0;
        double client_jain = 1.0;
    };

    std::vector<Window> windows;
    std::vector<std::uint64_t> committed_per_channel;  ///< cumulative
    std::vector<double> endorse_cpu_per_org;           ///< cumulative seconds
    std::vector<std::uint64_t> completed_per_client;   ///< cumulative
    /// Minimum per-window Jain across windows with any activity.
    double channel_jain_min = 1.0;
    double client_jain_min = 1.0;

    /// Jain over the cumulative per-channel committed counts.
    [[nodiscard]] double channel_jain_overall() const;
    /// Jain over the cumulative per-principal completion counts.
    [[nodiscard]] double client_jain_overall() const;
    /// Jain over the cumulative per-org endorse CPU totals.
    [[nodiscard]] double org_cpu_jain_overall() const;
};

/// N independent per-channel FabricNetworks plus the sharded engine.
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

    /// Drains every channel through the conservative-window engine.  Each
    /// window advances the channels with parallel_for_each on up to
    /// `threads` threads (0 = hardware concurrency; 1 runs them in index
    /// order on the caller).  Per-channel and meter results are identical
    /// at any thread count.  Returns the number of events executed by this
    /// call; meter().windows holds one entry per window.
    std::uint64_t run(unsigned threads = 1);

    [[nodiscard]] const CrossChannelMeter& meter() const { return meter_; }

private:
    void boundary_sample(TimePoint window_end);

    MultiChannelConfig config_;
    std::vector<std::unique_ptr<FabricNetwork>> nets_;
    CrossChannelMeter meter_;

    // Previous-boundary snapshots for window deltas.
    std::vector<std::uint64_t> prev_committed_;         // per channel
    std::vector<double> prev_org_cpu_;                  // per org (aggregate)
    std::vector<std::uint64_t> prev_client_completed_;  // per principal
};

}  // namespace fl::core
