// Scale harness — million-account Zipfian traffic against the world state
// (EXPERIMENTS.md A7).
//
// Seeds an `--accounts`-wide account space on every peer, then drives
// Zipf(--zipf/100)-skewed asset transfers (plus a mint slice) at an
// open-loop rate past the paper's 500 tps knee.  The bench exits non-zero
// unless every run is consistent: every peer's hash chain and world state
// agree.
//
// Reported:
//   * commit throughput / latency (standard sweep metrics),
//   * deterministic store statistics — key count and approximate resident
//     bytes — plus the world-state and chain fingerprints, which enter the
//     JSON (pure functions of the committed ledger),
//   * process RSS, printed to stdout ONLY (never serialized: the JSON must
//     be byte-identical at any --threads value).
//
// --threads spreads --runs over the sweep pool; each run validates
// serially against its own stores.
#include <fstream>
#include <sstream>

#include "fig_common.h"

namespace {

using namespace fl;

/// Folds a 64-bit fingerprint into two exactly-representable doubles (the
/// extra map aggregates doubles; 32-bit halves summed over a handful of runs
/// stay far below 2^53, so equal sums <=> equal per-run fingerprints in
/// practice).
void fold_hash(std::map<std::string, double>& extra, const std::string& name,
               std::uint64_t h) {
    extra[name + "_lo"] += static_cast<double>(h & 0xffffffffULL);
    extra[name + "_hi"] += static_cast<double>(h >> 32);
}

/// Current process resident set in MiB (/proc/self/status VmRSS), or -1.
long host_rss_mib() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmRSS:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            long kib = 0;
            fields >> kib;
            return kib / 1024;
        }
    }
    return -1;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace fl;
    using namespace fl::bench;

    harness::BenchFlag accounts_flag{
        "--accounts", "world-state account count seeded on every peer",
        1'000'000, /*positive=*/true};
    harness::BenchFlag zipf_flag{
        "--zipf", "Zipf skew theta in hundredths (99 = 0.99; 0 = uniform)",
        99, /*positive=*/false, /*max=*/99};
    const auto cli = harness::parse_sweep_cli(argc, argv, 13000, "scale_state",
                                              {&accounts_flag, &zipf_flag});

    const unsigned runs = cli.runs_or(1);
    const std::uint64_t total_txs = cli.txs_or(10'000);
    const std::uint64_t accounts = accounts_flag.value;
    const double theta = static_cast<double>(zipf_flag.value) / 100.0;
    const double total_tps = 2'000.0;  // well past the 500 tps knee
    const double mint_fraction = 0.1;

    harness::print_banner(
        std::cout, "Scale: world state under Zipfian load",
        "every peer's chain and state must agree byte for byte");
    std::cout << "accounts=" << accounts << " zipf_theta=" << theta
              << " txs=" << total_txs << " rate=" << total_tps << " tps\n\n";

    harness::SweepSpec sweep;
    sweep.name = "scale_state";
    sweep.base_seed = cli.base_seed;
    sweep.threads = cli.threads;

    // Small network — the store, not the protocol, is under test.
    core::NetworkConfig cfg;
    cfg.orgs = 2;
    cfg.peers_per_org = 1;
    cfg.osns = 1;
    cfg.clients = 2;
    cfg.channel.priority_enabled = true;
    cfg.channel.priority_levels = 3;
    cfg.channel.consolidation_spec = "kofn:2";
    cfg.channel.block_size = 500;
    cfg.channel.block_timeout = Duration::millis(250);

    harness::ExperimentPoint point;
    point.label = "accounts=" + std::to_string(accounts);
    point.params = {
        {"accounts", static_cast<double>(accounts)},
        {"zipf_hundredths", static_cast<double>(zipf_flag.value)},
    };
    point.spec.config = std::move(cfg);
    point.spec.runs = runs;
    const std::size_t clients = point.spec.config.clients;
    point.spec.make_workload = [clients, total_tps, total_txs, accounts, theta,
                                mint_fraction] {
        harness::Workload w;
        for (std::size_t c = 0; c < clients; ++c) {
            harness::LoadSpec load;
            load.client_index = c;
            load.tps = total_tps / static_cast<double>(clients);
            load.generate =
                harness::zipfian_transfers(accounts, theta, mint_fraction);
            w.loads.push_back(std::move(load));
        }
        w.distribute_total(total_txs);
        return w;
    };
    point.spec.instrument = [accounts](core::FabricNetwork& net, unsigned) {
        // Pre-drain: the full account space is committed (version {0,0})
        // on every peer before the first proposal executes.
        harness::seed_scale_accounts(net, accounts);
    };
    point.spec.run_probe = [](core::FabricNetwork& net,
                              std::map<std::string, double>& extra) {
        const peer::Peer& p = *net.peers().front();
        const ledger::WorldState& state = p.state();
        fold_hash(extra, "state_fp", state.fingerprint());
        fold_hash(extra, "chain_fp", p.chain().chain_fingerprint());
        extra["state_keys"] += static_cast<double>(state.key_count());
        extra["state_bytes_approx"] +=
            static_cast<double>(state.approx_memory_bytes());
        extra["valid"] += static_cast<double>(p.txs_valid());
        extra["invalid"] += static_cast<double>(p.txs_invalid());
    };
    sweep.points.push_back(std::move(point));

    const auto results = run_timed_sweep(sweep, cli);
    const auto& r = results.front().result;
    const double runs_d = static_cast<double>(runs);

    harness::Table table(
        {"point", "committed", "tps", "keys", "approx MiB", "consistent"});
    table.add_row({results.front().label, std::to_string(r.total_committed),
                   harness::fmt(r.throughput_tps.mean(), 1),
                   harness::fmt(r.extra_total("state_keys") / runs_d, 0),
                   harness::fmt(r.extra_total("state_bytes_approx") / runs_d /
                                    (1024.0 * 1024.0),
                                1),
                   r.all_consistent ? "OK" : "MISMATCH"});
    table.print(std::cout);
    std::cout << "\nProcess RSS now: " << host_rss_mib()
              << " MiB (host-dependent, stdout only).\n";
    harness::emit_sweep_json(cli, sweep, results, std::cout);
    if (!r.all_consistent) {
        std::cout << "LEDGER CONSISTENCY VIOLATION: peers disagree on chain "
                     "or state\n";
        return 1;
    }
    return 0;
}
