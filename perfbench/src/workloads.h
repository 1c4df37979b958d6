// The benchmark's workloads.  Every input is generated here from the
// workload name and the seed; nothing is read from outside.
//
// Why these (perfbench/README.md has the long form):
//   paper_knee     — the paper's §5.1 headline point past the ~470 tps knee:
//                    WFQ levels are backlogged, quota transfers and TTC run.
//   wide_endorse   — 8 orgs below the knee: signature checks and the
//                    validator dominate, the ordering queues stay empty.
//   zipf_contended — Raft ordering, per-client classes, 100k seeded
//                    accounts and Zipf-hot keys: seeding-dominated set-up
//                    and the prioritized validator's conflict path.
//   paper_sweep    — a fig5-style grid through harness::run_sweep, the only
//                    user of the sweep thread pool; timed per run in
//                    paper_knee's traced run, not a workload of its own.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/fabric_network.h"
#include "harness/sweep.h"
#include "harness/workload.h"

namespace perfbench {

enum class WorkloadId : std::uint8_t {
    kPaperKnee = 0,
    kWideEndorse,
    kZipfContended,
    kPaperSweep,
};

[[nodiscard]] std::optional<WorkloadId> parse_workload(std::string_view name);
[[nodiscard]] std::string_view workload_name(WorkloadId id);

/// Inputs of one network run.
struct RunSpec {
    fl::core::NetworkConfig config;
    double total_tps = 0.0;
    std::uint64_t total_txs = 0;
    /// Zipf transfers over `accounts` seeded accounts; 0 = the paper's
    /// 1:2:1 unique-key class mix.
    std::uint64_t accounts = 0;
    double zipf_theta = 0.0;
    double mint_fraction = 0.0;
    std::uint64_t workload_seed = 0;
};

/// The run a workload measures.  For paper_sweep this is the grid's
/// 625 tps priority point; its run size is the grid's.
[[nodiscard]] RunSpec run_spec(WorkloadId id, std::uint64_t seed);

[[nodiscard]] fl::harness::Workload make_workload(const RunSpec& spec);

/// Seeds the world state the workload reads (no-op for the class mix).
void seed_state(const RunSpec& spec, fl::core::FabricNetwork& net);

/// The paper_sweep grid.  Each point seeds its runs from `seed` through
/// the harness's own derivation.
[[nodiscard]] fl::harness::SweepSpec sweep_spec(std::uint64_t seed, unsigned threads);

/// Canonical text of every input a workload's runs depend on except the
/// seed; its SHA-256 is the config hash recorded with each result.
[[nodiscard]] std::string describe(WorkloadId id);

}  // namespace perfbench
