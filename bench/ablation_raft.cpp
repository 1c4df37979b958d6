// Ablation A9 — Raft ordering backend: leader-failover safety gate.
//
// Replays three chaos mixes against the Raft backend over the seed grid
// {1, 7, 42, 1234}:
//   leader_crash    two leader kills mid-block-stream, cluster restarted
//   partition       minority partitions around the leader, then healed
//   rolling_restart every Raft node crashed and revived in sequence, with
//                   an OSN crash/replay overlapping the churn
// and asserts the safety properties on every run:
//   1. prefix-consistent block sequences across OSNs (identical once every
//      crashed OSN has replayed) with zero replay hash mismatches;
//   2. every committed ledger's hash chain verifies;
//   3. no transaction commits twice;
//   4. every client submission reaches exactly one terminal state;
//   5. Raft log matching over the committed prefix across cluster nodes,
//      with no submission stuck in flight (TTC markers applied exactly once
//      under leader change — otherwise block cuts diverge and (1) fails).
// On top of the chaos grid it checks the backend-equivalence contract
// (fault-free Raft byte-identical to mq: metrics JSON + ledger fingerprint)
// and rerun determinism (every chaos cell run twice must match byte for
// byte).  Exits non-zero on any violation, so this is the CI chaos gate for
// the ordering backend; the JSON is byte-identical at any --threads value.
//
// CLI: the shared bench flags (harness/sweep.h).  The grid is fixed, so
// only --threads, --json/--no-json and --log-level change anything.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/fabric_network.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "harness/workload.h"

namespace {

using namespace fl;

constexpr std::uint64_t kSeeds[] = {1, 7, 42, 1234};
constexpr std::uint64_t kTotalTxs = 600;
constexpr double kTpsPerClient = 50.0;

core::NetworkConfig base_config(std::uint64_t seed,
                                orderer::OrderingBackendKind backend) {
    core::NetworkConfig cfg;
    cfg.orgs = 4;
    cfg.osns = 3;
    cfg.clients = 3;
    cfg.seed = seed;
    cfg.endorsement_k = 2;
    cfg.ordering_backend = backend;
    cfg.channel.priority_enabled = true;
    cfg.channel.priority_levels = 3;
    cfg.channel.block_policy = policy::BlockFormationPolicy::parse("2:3:1");
    cfg.channel.block_size = 50;
    cfg.channel.block_timeout = Duration::millis(200);
    client::RetryParams& retry = cfg.client_params.retry;
    retry.enabled = true;
    retry.endorsement_timeout = Duration::millis(300);
    retry.max_endorse_retries = 3;
    retry.commit_timeout = Duration::seconds(3);
    retry.max_resubmissions = 3;
    retry.backoff_base = Duration::millis(50);
    return cfg;
}

std::vector<fault::ScheduledFault> mix_schedule(const std::string& mix) {
    using fault::FaultKind;
    std::vector<fault::ScheduledFault> s;
    if (mix == "leader_crash") {
        s = {{Duration::millis(900), FaultKind::kRaftLeaderKill, 0},
             {Duration::millis(1700), FaultKind::kRaftNodeRestart, raft::kAllNodes},
             {Duration::millis(2600), FaultKind::kRaftLeaderKill, 0},
             {Duration::millis(3400), FaultKind::kRaftNodeRestart, raft::kAllNodes}};
    } else if (mix == "partition") {
        s = {{Duration::millis(600), FaultKind::kRaftPartition, 0},
             {Duration::millis(1400), FaultKind::kRaftHeal, 0},
             {Duration::millis(2200), FaultKind::kRaftPartition, 1},
             {Duration::millis(3000), FaultKind::kRaftHeal, 0}};
    } else {  // rolling_restart
        s = {{Duration::millis(600), FaultKind::kRaftNodeCrash, 0},
             {Duration::millis(1200), FaultKind::kRaftNodeRestart, 0},
             {Duration::millis(1400), FaultKind::kOsnCrash, 1},
             {Duration::millis(1600), FaultKind::kRaftNodeCrash, 1},
             {Duration::millis(2200), FaultKind::kRaftNodeRestart, 1},
             {Duration::millis(2600), FaultKind::kRaftNodeCrash, 2},
             {Duration::millis(3000), FaultKind::kOsnRestart, 1},
             {Duration::millis(3200), FaultKind::kRaftNodeRestart, 2}};
    }
    return s;
}

struct RunResult {
    std::string metrics_json;
    std::uint64_t chain_fingerprint = 0;
    std::uint64_t committed = 0;
    std::uint64_t failed = 0;
    std::uint64_t leader_changes = 0;
    std::uint64_t elections = 0;
    std::uint64_t term = 0;
    std::uint64_t resubmissions = 0;
    std::uint64_t dup_commits_skipped = 0;
    std::vector<std::string> violations;
};

RunResult run_once(const core::NetworkConfig& cfg, bool chaos_checks) {
    core::FabricNetwork net(cfg);
    core::MetricsCollector metrics;
    std::uint64_t records = 0;
    net.set_tx_sink([&](const client::TxRecord& r) {
        metrics.record(r);
        ++records;
    });
    harness::Workload workload;
    for (std::size_t c = 0; c < net.clients().size(); ++c) {
        harness::LoadSpec load;
        load.client_index = c;
        load.tps = kTpsPerClient;
        load.generate = harness::priority_class_mix({1, 2, 1});
        workload.loads.push_back(std::move(load));
    }
    workload.distribute_total(kTotalTxs);
    harness::WorkloadDriver driver(net, std::move(workload), Rng(cfg.seed));
    driver.start();
    net.run();

    RunResult out;
    std::ostringstream os;
    core::write_metrics_json(os, metrics);
    out.metrics_json = os.str();
    out.chain_fingerprint = net.peers().front()->chain().chain_fingerprint();
    out.committed = metrics.committed_valid() + metrics.committed_invalid();
    out.failed = metrics.client_failures();

    auto fail = [&out](const std::string& what) { out.violations.push_back(what); };

    // (1) ordering-service agreement + replay integrity.
    if (!net.osn_blocks_prefix_consistent()) fail("osn_block_divergence");
    bool all_alive = true;
    for (const auto& osn : net.osns()) {
        if (osn->replay_hash_mismatches() != 0) fail("replay_hash_mismatch");
        all_alive = all_alive && osn->alive();
    }
    if (!all_alive) fail("osn_left_dead");
    if (all_alive && !net.osn_blocks_identical()) fail("osn_block_divergence_final");

    // (2) verified chains.
    for (const auto& peer : net.peers()) {
        if (!peer->chain().verify_chain()) fail("broken_hash_chain");
        if (peer->chain().height() == 0) fail("empty_chain");
    }

    // (3) no double commit.
    const ledger::BlockStore& chain = net.peers().front()->chain();
    std::set<TxId> committed_ids;
    for (std::size_t b = 0; b < chain.height(); ++b) {
        const ledger::Block& block = chain.at(b);
        for (std::size_t i = 0; i < block.transactions.size(); ++i) {
            if (block.validation_codes[i] == TxValidationCode::kValid &&
                !committed_ids.insert(block.transactions[i].tx_id()).second) {
                fail("double_commit");
            }
        }
    }

    // (4) exactly one terminal state per submission.
    std::uint64_t submitted = 0;
    for (const auto& client : net.clients()) {
        if (client->pending() != 0) fail("client_left_pending");
        if (client->submitted() !=
            client->completed() + client->client_side_failures()) {
            fail("terminal_state_accounting");
        }
        submitted += client->submitted();
    }
    if (metrics.total() != submitted || records != submitted) {
        fail("sink_accounting");
    }

    // (5) Raft safety.
    if (raft::RaftOrderingBackend* rb = net.raft_backend()) {
        out.leader_changes = rb->leader_changes();
        out.elections = rb->elections_started();
        out.term = rb->current_term();
        out.resubmissions = rb->leader_resubmissions();
        out.dup_commits_skipped = rb->duplicate_commits_skipped();
        if (!rb->committed_prefixes_consistent()) fail("raft_log_matching");
        if (rb->pending_submissions() != 0) fail("raft_submission_stuck");
        if (chaos_checks && rb->leader_changes() == 0) fail("no_failover_exercised");
    }
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace fl;

    const harness::SweepCli cli =
        harness::parse_sweep_cli(argc, argv, /*default_seed=*/0, "ablation_raft");
    if (cli.runs || cli.total_txs || !cli.trace_path.empty() ||
        !cli.timeseries_path.empty() || cli.audit) {
        std::cerr << "ablation_raft: fixed grid; --runs/--txs/--trace/--timeseries/"
                     "--audit are ignored\n";
    }

    harness::print_banner(
        std::cout, "Ablation A9: Raft leader-failover safety gate",
        "3 chaos mixes x seeds {1,7,42,1234}, each run twice; plus mq "
        "equivalence");

    const std::vector<std::string> mixes = {"leader_crash", "partition",
                                            "rolling_restart"};

    // The grid: every (mix, seed) chaos cell twice (rerun determinism), plus
    // per seed one fault-free run on each backend (equivalence).  Results go
    // into pre-sized slots indexed by cell, so output bytes are independent
    // of --threads.
    struct ChaosCell {
        std::string mix;
        std::uint64_t seed = 0;
        RunResult first, second;
    };
    std::vector<ChaosCell> cells;
    for (const std::string& mix : mixes) {
        for (std::uint64_t seed : kSeeds) cells.push_back({mix, seed, {}, {}});
    }
    struct EquivCell {
        std::uint64_t seed = 0;
        RunResult mq, rf;
    };
    std::vector<EquivCell> equiv;
    for (std::uint64_t seed : kSeeds) equiv.push_back({seed, {}, {}});

    const std::size_t jobs = cells.size() + equiv.size();
    ThreadPool pool(cli.threads);
    parallel_for_each(pool, jobs, [&](std::size_t j) {
        if (j < cells.size()) {
            ChaosCell& cell = cells[j];
            auto cfg = base_config(cell.seed, orderer::OrderingBackendKind::kRaft);
            cfg.faults.schedule = mix_schedule(cell.mix);
            cell.first = run_once(cfg, /*chaos_checks=*/true);
            cell.second = run_once(cfg, /*chaos_checks=*/true);
        } else {
            EquivCell& cell = equiv[j - cells.size()];
            cell.mq = run_once(
                base_config(cell.seed, orderer::OrderingBackendKind::kMq), false);
            cell.rf = run_once(
                base_config(cell.seed, orderer::OrderingBackendKind::kRaft), false);
        }
    });

    bool all_ok = true;
    harness::Table table({"mix", "seed", "committed", "failed", "elections",
                          "leader changes", "term", "resubmits", "dup skips",
                          "verdict"});
    for (ChaosCell& cell : cells) {
        if (cell.first.metrics_json != cell.second.metrics_json ||
            cell.first.chain_fingerprint != cell.second.chain_fingerprint) {
            cell.first.violations.push_back("rerun_divergence");
        }
        const bool ok = cell.first.violations.empty() &&
                        cell.second.violations.empty();
        all_ok = all_ok && ok;
        std::string verdict = "OK";
        if (!ok) {
            verdict = "VIOLATED:";
            for (const std::string& v : cell.first.violations) verdict += " " + v;
        }
        table.add_row({cell.mix, std::to_string(cell.seed),
                       std::to_string(cell.first.committed),
                       std::to_string(cell.first.failed),
                       std::to_string(cell.first.elections),
                       std::to_string(cell.first.leader_changes),
                       std::to_string(cell.first.term),
                       std::to_string(cell.first.resubmissions),
                       std::to_string(cell.first.dup_commits_skipped), verdict});
    }
    table.print(std::cout);

    harness::Table eq_table({"seed", "mq committed", "raft committed", "identical"});
    for (const EquivCell& cell : equiv) {
        const bool identical =
            cell.mq.metrics_json == cell.rf.metrics_json &&
            cell.mq.chain_fingerprint == cell.rf.chain_fingerprint &&
            cell.mq.violations.empty() && cell.rf.violations.empty() &&
            cell.rf.elections == 0;
        all_ok = all_ok && identical;
        eq_table.add_row({std::to_string(cell.seed),
                          std::to_string(cell.mq.committed),
                          std::to_string(cell.rf.committed),
                          identical ? "yes" : "NO"});
    }
    std::cout << "\nBackend equivalence (fault-free, byte-level):\n";
    eq_table.print(std::cout);

    // Deterministic JSON for the CI 1-vs-4-thread byte comparison.
    std::ostringstream json;
    json << "{\"bench\":\"ablation_raft\",\"total_txs\":" << kTotalTxs
         << ",\"cells\":[";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const ChaosCell& cell = cells[i];
        json << (i ? "," : "") << "{\"mix\":\"" << cell.mix
             << "\",\"seed\":" << cell.seed
             << ",\"committed\":" << cell.first.committed
             << ",\"failed\":" << cell.first.failed
             << ",\"elections\":" << cell.first.elections
             << ",\"leader_changes\":" << cell.first.leader_changes
             << ",\"term\":" << cell.first.term
             << ",\"resubmissions\":" << cell.first.resubmissions
             << ",\"dup_commits_skipped\":" << cell.first.dup_commits_skipped
             << ",\"chain_fingerprint\":" << cell.first.chain_fingerprint
             << ",\"violations\":" << cell.first.violations.size() << "}";
    }
    json << "],\"equivalence\":[";
    for (std::size_t i = 0; i < equiv.size(); ++i) {
        const bool identical = equiv[i].mq.metrics_json == equiv[i].rf.metrics_json;
        json << (i ? "," : "") << "{\"seed\":" << equiv[i].seed
             << ",\"identical\":" << (identical ? "true" : "false") << "}";
    }
    json << "]}\n";
    std::cout << "\n" << json.str();
    if (cli.json_enabled) {
        std::ofstream f(cli.json_path);
        f << json.str();
        std::cout << "JSON written to " << cli.json_path << "\n";
    }

    if (!all_ok) {
        std::cout << "\nRAFT SAFETY VIOLATION (see tables above)\n";
        return 1;
    }
    std::cout << "\nAll safety gates passed.\n";
    return 0;
}
