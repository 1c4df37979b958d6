#include "workloads.h"

#include <memory>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "peer/priority_calculator.h"

namespace perfbench {

namespace {

using namespace fl;

// Run sizes.  Fixed per workload (never derived from the time budget) so
// the simulated metrics of a seed are the same on every host.
constexpr std::uint64_t kKneeTxs = 6'000;
constexpr std::uint64_t kWideTxs = 3'000;
constexpr std::uint64_t kZipfTxs = 6'000;
constexpr std::uint64_t kZipfAccounts = 100'000;
constexpr std::uint64_t kSweepTxs = 1'500;
constexpr unsigned kSweepRuns = 2;
const std::vector<double> kSweepRates = {400.0, 625.0, 1000.0};

/// The paper's §5.1 network: 4 orgs × 1 peer, 3 OSNs, 3 clients, mq
/// ordering, block 500 / 1 s, policy 2:3:1, consolidation kofn:2.
core::NetworkConfig paper_config(bool priority_enabled) {
    core::NetworkConfig cfg;
    cfg.orgs = 4;
    cfg.peers_per_org = 1;
    cfg.osns = 3;
    cfg.clients = 3;
    cfg.channel.priority_enabled = priority_enabled;
    cfg.channel.priority_levels = 3;
    cfg.channel.block_policy = policy::BlockFormationPolicy::parse("2:3:1");
    cfg.channel.consolidation_spec = "kofn:2";
    cfg.channel.block_size = 500;
    cfg.channel.block_timeout = Duration::seconds(1);
    return cfg;
}

RunSpec class_mix(core::NetworkConfig cfg, double tps, std::uint64_t txs) {
    RunSpec spec;
    spec.config = std::move(cfg);
    spec.total_tps = tps;
    spec.total_txs = txs;
    return spec;
}

/// Same seed derivation as harness::run_once, so a RunSpec replays exactly
/// what an ExperimentSpec with that seed would run.
void set_seed(RunSpec& spec, std::uint64_t seed) {
    spec.config.seed = seed;
    spec.workload_seed = seed ^ 0x574B4C44ull;
}

}  // namespace

std::optional<WorkloadId> parse_workload(std::string_view name) {
    for (const WorkloadId id : {WorkloadId::kPaperKnee, WorkloadId::kWideEndorse,
                                WorkloadId::kZipfContended, WorkloadId::kPaperSweep}) {
        if (workload_name(id) == name) return id;
    }
    return std::nullopt;
}

std::string_view workload_name(WorkloadId id) {
    switch (id) {
        case WorkloadId::kPaperKnee: return "paper_knee";
        case WorkloadId::kWideEndorse: return "wide_endorse";
        case WorkloadId::kZipfContended: return "zipf_contended";
        case WorkloadId::kPaperSweep: return "paper_sweep";
    }
    return "unknown";
}

RunSpec run_spec(WorkloadId id, std::uint64_t seed) {
    RunSpec spec;
    switch (id) {
        case WorkloadId::kPaperKnee:
            spec = class_mix(paper_config(true), 625.0, kKneeTxs);
            break;
        case WorkloadId::kWideEndorse: {
            core::NetworkConfig cfg = paper_config(true);
            cfg.orgs = 8;
            spec = class_mix(std::move(cfg), 400.0, kWideTxs);
            break;
        }
        case WorkloadId::kZipfContended: {
            core::NetworkConfig cfg = paper_config(true);
            cfg.orgs = 2;
            cfg.ordering_backend = orderer::OrderingBackendKind::kRaft;
            cfg.calculator_factory = [] {
                return std::make_unique<peer::ClientClassCalculator>(
                    std::unordered_map<ClientId, PriorityLevel>{
                        {ClientId{0}, 0}, {ClientId{1}, 1}, {ClientId{2}, 2}},
                    0);
            };
            spec = class_mix(std::move(cfg), 750.0, kZipfTxs);
            spec.accounts = kZipfAccounts;
            spec.zipf_theta = 0.99;
            spec.mint_fraction = 0.1;
            break;
        }
        case WorkloadId::kPaperSweep:
            spec = class_mix(paper_config(true), 625.0, kSweepTxs);
            break;
    }
    set_seed(spec, derive_seed(seed, static_cast<std::uint64_t>(id)));
    return spec;
}

harness::Workload make_workload(const RunSpec& spec) {
    harness::Workload w;
    const std::size_t clients = spec.config.clients;
    for (std::size_t c = 0; c < clients; ++c) {
        harness::LoadSpec load;
        load.client_index = c;
        load.tps = spec.total_tps / static_cast<double>(clients);
        load.generate = spec.accounts > 0
                            ? harness::zipfian_transfers(spec.accounts, spec.zipf_theta,
                                                         spec.mint_fraction)
                            : harness::priority_class_mix({1, 2, 1});
        w.loads.push_back(std::move(load));
    }
    w.distribute_total(spec.total_txs);
    return w;
}

void seed_state(const RunSpec& spec, core::FabricNetwork& net) {
    if (spec.accounts > 0) harness::seed_scale_accounts(net, spec.accounts);
}

harness::SweepSpec sweep_spec(std::uint64_t seed, unsigned threads) {
    harness::SweepSpec sweep;
    sweep.name = "perfbench_paper_sweep";
    sweep.base_seed = derive_seed(seed, static_cast<std::uint64_t>(WorkloadId::kPaperSweep));
    sweep.threads = threads;
    for (std::size_t r = 0; r < kSweepRates.size(); ++r) {
        for (const bool priority : {false, true}) {
            const RunSpec spec = class_mix(paper_config(priority), kSweepRates[r], kSweepTxs);
            harness::ExperimentPoint point;
            point.label = "rate=" + std::to_string(static_cast<int>(kSweepRates[r])) +
                          (priority ? "/priority" : "/baseline");
            point.params = {{"send_rate", kSweepRates[r]},
                            {"priority_enabled", priority ? 1.0 : 0.0}};
            point.spec.config = spec.config;
            point.spec.runs = kSweepRuns;
            point.spec.make_workload = [spec] { return make_workload(spec); };
            point.seed_group = r;  // baseline and priority see the same arrivals
            sweep.points.push_back(std::move(point));
        }
    }
    return sweep;
}

std::string describe(WorkloadId id) {
    std::ostringstream os;
    const auto one = [&os](const RunSpec& s) {
        const core::NetworkConfig& c = s.config;
        os << "orgs=" << c.orgs << " peers_per_org=" << c.peers_per_org
           << " osns=" << c.osns << " clients=" << c.clients
           << " backend=" << (c.ordering_backend == orderer::OrderingBackendKind::kRaft
                                  ? "raft"
                                  : "mq")
           << " priority=" << c.channel.priority_enabled
           << " levels=" << c.channel.priority_levels
           << " policy=" << c.channel.block_policy.to_string()
           << " consolidation=" << c.channel.consolidation_spec
           << " block_size=" << c.channel.block_size
           << " block_timeout_s=" << c.channel.block_timeout.as_seconds()
           << " endorsement_k=" << c.endorsement_k
           << " classes=" << (c.calculator_factory ? "per-client" : "per-chaincode")
           << " tps=" << s.total_tps << " txs=" << s.total_txs
           << " arrivals=poisson";
        if (s.accounts > 0) {
            os << " accounts=" << s.accounts << " zipf_theta=" << s.zipf_theta
               << " mint_fraction=" << s.mint_fraction;
        } else {
            os << " mix=1:2:1";
        }
        os << '\n';
    };
    os << "workload=" << workload_name(id) << '\n';
    if (id == WorkloadId::kPaperSweep) {
        const harness::SweepSpec sweep = sweep_spec(0, 1);
        os << "runs_per_point=" << kSweepRuns << '\n';
        for (const auto& point : sweep.points) {
            os << point.label << ": ";
            RunSpec s;
            s.config = point.spec.config;
            s.total_tps = point.params[0].second;
            s.total_txs = kSweepTxs;
            one(s);
        }
    } else {
        one(run_spec(id, 0));
    }
    return os.str();
}

}  // namespace perfbench
