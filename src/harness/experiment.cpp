#include "harness/experiment.h"

#include <concepts>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/parse.h"

namespace fl::harness {

std::string metrics_json(const RunResult& result) {
    std::ostringstream os;
    core::write_metrics_json(os, result.metrics,
                             result.audit ? &*result.audit : nullptr);
    return os.str();
}

NetworkRun::NetworkRun(core::FabricNetwork& net, RunResult& result,
                       Workload workload,
                       const std::optional<obs::audit::AuditConfig>& audit,
                       const ExperimentSpec::TxProbe& tx_probe,
                       const std::function<void(core::FabricNetwork&)>& instrument)
    : net_(net),
      result_(result),
      driver_(net, std::move(workload), Rng(workload_seed(net.config().seed))) {
    net.set_tx_sink([&result, &net, tx_probe](const client::TxRecord& r) {
        result.metrics.record(r);
        if (tx_probe) tx_probe(r, net, result.extra);
    });
    if (audit) {
        obs::audit::AuditConfig cfg = *audit;
        if (cfg.level_weights.empty()) {
            const policy::ChannelConfig& channel = net.config().channel;
            cfg.level_weights = channel.priority_enabled
                                    ? channel.block_policy.fractions()
                                    : std::vector<double>{1.0};
        }
        audit_ = std::make_unique<obs::audit::AuditAccountant>(std::move(cfg));
        net.set_audit(audit_.get());
    }
    driver_.start();
    if (instrument) instrument(net);
}

void NetworkRun::collect(const ExperimentSpec::RunProbe& run_probe) {
    if (audit_) {
        audit_->finalize(net_.last_event_at());
        result_.audit = audit_->report();
    }
    const peer::Peer& peer0 = *net_.peers().front();
    result_.chains_identical = net_.chains_identical();
    result_.states_identical = net_.states_identical();
    result_.osn_blocks_identical = net_.osn_blocks_identical();
    result_.blocks = peer0.chain().height();
    result_.txs_invalid = peer0.txs_invalid();
    for (const auto& osn : net_.osns()) {
        result_.consolidation_failures += osn->consolidation_failures();
    }
    if (run_probe) run_probe(net_, result_.extra);
    result_.chain_fingerprint = peer0.chain().chain_fingerprint();
    result_.state_fingerprint = peer0.state().fingerprint();
}

RunResult run_once(const ExperimentSpec& spec, std::uint64_t seed,
                   unsigned run_index) {
    core::NetworkConfig config = spec.config;
    config.seed = seed;
    core::FabricNetwork net(std::move(config));

    RunResult result;
    NetworkRun run(net, result, spec.make_workload(), spec.audit, spec.tx_probe,
                   [&spec, run_index](core::FabricNetwork& n) {
                       if (spec.instrument) spec.instrument(n, run_index);
                   });
    net.run();
    run.collect(spec.run_probe);
    return result;
}

AggregateResult run_experiment(const ExperimentSpec& spec) {
    if (!spec.make_workload) {
        throw std::invalid_argument("run_experiment: no workload factory");
    }
    if (spec.runs == 0) {
        throw std::invalid_argument("run_experiment: runs must be >= 1");
    }
    AggregateResult agg;
    for (unsigned run = 0; run < spec.runs; ++run) {
        const RunResult r = run_once(spec, spec.base_seed + run, run);

        agg.overall_latency.add_run(r.metrics.avg_latency());
        agg.throughput_tps.add_run(r.metrics.throughput_tps());
        agg.blocks_per_run.add_run(static_cast<double>(r.blocks));
        for (const auto& [level, hist] : r.metrics.by_priority()) {
            agg.latency_by_priority[level].add_run(hist.mean());
        }
        for (const auto& [cid, hist] : r.metrics.by_client()) {
            agg.latency_by_client[cid.value()].add_run(hist.mean());
        }
        for (const auto& [level, phases] : r.metrics.phases_by_priority()) {
            PhaseAggregate& pa = agg.phases_by_priority[level];
            pa.endorsement.add_run(phases.endorsement.mean());
            pa.ordering.add_run(phases.ordering.mean());
            pa.validation.add_run(phases.validation.mean());
            pa.notification.add_run(phases.notification.mean());
        }
        for (const auto& [key, value] : r.extra) {
            agg.extra[key].add_run(value);
        }
        agg.total_committed += r.metrics.committed_valid();
        agg.total_invalid += r.metrics.committed_invalid();
        agg.total_client_failures += r.metrics.client_failures();
        agg.total_consolidation_failures += r.consolidation_failures;
        agg.all_consistent = agg.all_consistent && r.consistent();
        if (r.audit) agg.audit_reports.push_back(*r.audit);
        if (spec.keep_run_metrics) agg.run_metrics_json.push_back(metrics_json(r));
    }
    return agg;
}

double AggregateResult::extra_mean(const std::string& key) const {
    const auto it = extra.find(key);
    return it == extra.end() ? 0.0 : it->second.mean();
}

double AggregateResult::extra_total(const std::string& key) const {
    const auto it = extra.find(key);
    if (it == extra.end()) return 0.0;
    return it->second.mean() * static_cast<double>(it->second.runs());
}

namespace {
/// Environment variable `name` as a positive T; `fallback` when unset/empty.
template <std::unsigned_integral T>
T env_count(const char* name, T fallback) {
    const char* raw = std::getenv(name);
    if (raw == nullptr || *raw == '\0') return fallback;
    const std::optional<T> v = parse_unsigned<T>(raw);
    if (!v || *v == 0) {
        throw std::invalid_argument(std::string(name) +
                                    ": not a positive integer in range: " + raw);
    }
    return *v;
}
}  // namespace

unsigned runs_from_env(unsigned default_runs) {
    return env_count("FAIRLEDGER_RUNS", default_runs);
}

std::uint64_t total_txs_from_env(std::uint64_t default_total) {
    return env_count("FAIRLEDGER_TOTAL_TXS", default_total);
}

}  // namespace fl::harness
