// Multi-channel experiment runner: drives N channels of a
// core::MultiChannelNetwork to completion on any number of threads and
// captures every per-channel artifact the byte-determinism contract covers:
// the metrics JSON, the trace JSONL and the ledger fingerprints.
//
// Parity contract (tested in tests/core/multi_channel_test.cpp and gated in
// bench/scale_channels): every thread count produces bit-identical
// artifacts for every channel, and a fault-free 1-channel run is
// bit-identical to harness::run_once on the same config+seed — same metrics
// JSON, same (untagged) trace bytes, same chain/state fingerprints.
// Parity holds by construction: every channel runs through the same
// harness::NetworkRun lifecycle as run_once, and channel 0 keeps the run
// seed.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/multi_channel.h"
#include "harness/experiment.h"
#include "harness/workload.h"
#include "obs/audit/audit.h"

namespace fl::harness {

struct MultiChannelSpec {
    core::MultiChannelConfig config;
    /// Builds the workload for channel `index` (fresh generator state per
    /// channel).  Required.
    std::function<Workload(std::size_t)> make_workload;
    /// Run seed; channel i runs with core::channel_seed(seed, i).
    std::uint64_t seed = 42;

    /// Captures the per-channel trace JSONL.  Sinks are channel-tagged only
    /// when the run has more than one channel, so a 1-channel capture stays
    /// byte-identical to the single-network harness.
    bool capture_trace = false;
    /// Attaches a per-channel fairness audit (level weights default from
    /// each channel's block policy, as in harness::run_once).
    std::optional<obs::audit::AuditConfig> audit;
    /// Observability hook per channel, invoked after that channel's workload
    /// is scheduled but before the simulation drains.
    std::function<void(core::FabricNetwork&, std::size_t)> instrument;
};

/// Everything observable about one channel of a multi-channel run: the
/// channel's RunResult plus what a single run leaves to its caller.
struct ChannelRunResult : RunResult {
    ChannelId id;
    std::string metrics_json;  ///< harness::metrics_json of this result
    std::string trace_jsonl;   ///< when capture_trace
};

struct MultiChannelResult {
    std::vector<ChannelRunResult> channels;
    core::CrossChannelMeter meter;
    std::uint64_t events_executed = 0;
};

/// Runs every channel to completion, draining the channels on up to
/// `threads` threads (0 = hardware concurrency).  The returned artifacts
/// are byte-identical at any thread count (DESIGN.md §16).
[[nodiscard]] MultiChannelResult run_multi_channel(const MultiChannelSpec& spec,
                                                   unsigned threads = 1);

}  // namespace fl::harness
