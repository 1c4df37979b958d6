// Shared setup for the figure-reproduction benches.
//
// Defaults mirror the paper's §5.1: 4 organizations (one peer each), 3 OSNs,
// 3 clients, 3 priority levels, arrival ratio high:med:low = 1:2:1, block
// size 500, block timeout 1 s, default block formation policy 2:3:1,
// consolidation k-of-n (k=2), send rate 500 tps, 15 000 transactions per
// run, averaged over several runs (paper: 10; default here: 3, override via
// FAIRLEDGER_RUNS / FAIRLEDGER_TOTAL_TXS or the --runs/--txs flags).
//
// Every bench drives its grid through harness::run_sweep: points execute in
// parallel (--threads) with per-point seeds derived from --seed, and the
// tables/JSON below are identical at any thread count (see
// src/harness/sweep.h for the determinism contract).
//
// The orderer consume loop is calibrated to ~2 ms/record so system capacity
// sits at the paper's 500 tps knee (DESIGN.md §6).
#pragma once

#include <chrono>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "core/fabric_network.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "harness/workload.h"

namespace fl::bench {

inline core::NetworkConfig paper_config(bool priority_enabled,
                                        const std::string& block_policy = "2:3:1") {
    core::NetworkConfig cfg;
    cfg.orgs = 4;
    cfg.peers_per_org = 1;
    cfg.osns = 3;
    cfg.clients = 3;
    cfg.channel.priority_enabled = priority_enabled;
    cfg.channel.priority_levels = 3;
    cfg.channel.block_policy = policy::BlockFormationPolicy::parse(block_policy);
    cfg.channel.consolidation_spec = "kofn:2";
    cfg.channel.block_size = 500;
    cfg.channel.block_timeout = Duration::seconds(1);
    return cfg;
}

/// The paper's workload: total rate split evenly over the clients, each
/// submitting the 1:2:1 high:med:low chaincode mix.
inline harness::Workload paper_workload(std::size_t clients, double total_tps,
                                        std::uint64_t total_txs,
                                        std::vector<double> arrival_ratio = {1, 2, 1}) {
    harness::Workload w;
    for (std::size_t c = 0; c < clients; ++c) {
        harness::LoadSpec load;
        load.client_index = c;
        load.tps = total_tps / static_cast<double>(clients);
        load.generate = harness::priority_class_mix(arrival_ratio);
        w.loads.push_back(std::move(load));
    }
    w.distribute_total(total_txs);
    return w;
}

/// One sweep point running the paper workload against `cfg`.  Points with
/// equal `seed_group` get identical derived seeds — pair each treatment
/// point with the baseline it is normalized against.
inline harness::ExperimentPoint paper_point(
    std::string label, std::vector<std::pair<std::string, double>> params,
    core::NetworkConfig cfg, double total_tps, std::uint64_t total_txs,
    unsigned runs, std::uint64_t seed_group) {
    harness::ExperimentPoint point;
    point.label = std::move(label);
    point.params = std::move(params);
    point.spec.config = std::move(cfg);
    const std::size_t clients = point.spec.config.clients;
    point.spec.make_workload = [clients, total_tps, total_txs] {
        return paper_workload(clients, total_tps, total_txs);
    };
    point.spec.runs = runs;
    point.seed_group = seed_group;
    return point;
}

/// Runs the sweep with wall-clock timing and a stdout footer; the timing
/// never enters the JSON (it would break byte-identity across --threads).
/// When --trace/--timeseries were given, instruments the selected point and
/// writes the capture files after the sweep drains.  --audit/--audit-window
/// attach the fairness-audit accountant to every point (reports land in the
/// per-point JSON as "audit_runs").
inline std::vector<harness::PointResult> run_timed_sweep(
    harness::SweepSpec& sweep, const harness::SweepCli& cli) {
    harness::TraceCapture capture;
    harness::apply_audit_cli(sweep, cli);
    harness::arm_trace_capture(sweep, cli, capture, std::cout);
    const auto started = std::chrono::steady_clock::now();
    auto results = harness::run_sweep(sweep);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
            .count();
    harness::print_sweep_footer(std::cout, results.size(),
                                resolve_threads(sweep.threads), wall);
    harness::emit_trace_files(cli, capture, std::cout);
    return results;
}

inline void print_consistency(const harness::AggregateResult& r) {
    if (!r.all_consistent) {
        std::cout << "WARNING: consistency check failed (peer chains / OSN "
                     "blocks diverged)\n";
    }
}

}  // namespace fl::bench
