#include "harness/experiment.h"

#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace fl::harness {

RunResult run_once(const ExperimentSpec& spec, std::uint64_t seed,
                   unsigned run_index) {
    core::NetworkConfig config = spec.config;
    config.seed = seed;
    core::FabricNetwork net(config);

    RunResult result;
    net.set_tx_sink([&result, &spec, &net](const client::TxRecord& r) {
        result.metrics.record(r);
        if (spec.tx_probe) spec.tx_probe(r, net, result.extra);
    });

    // Attach the audit before any traffic: it is purely observational (no
    // events scheduled, no rng draws), so results are identical either way.
    std::unique_ptr<obs::audit::AuditAccountant> audit;
    if (spec.audit) {
        obs::audit::AuditConfig audit_cfg = *spec.audit;
        if (audit_cfg.level_weights.empty()) {
            audit_cfg.level_weights = config.channel.priority_enabled
                                          ? config.channel.block_policy.fractions()
                                          : std::vector<double>{1.0};
        }
        audit = std::make_unique<obs::audit::AuditAccountant>(std::move(audit_cfg));
        net.set_audit(audit.get());
    }

    Workload workload = spec.make_workload();
    WorkloadDriver driver(net, std::move(workload), Rng(seed ^ 0x574B4C44ull));
    driver.start();
    // Instrument after the workload is scheduled: a sampling recorder armed
    // against an empty event queue would never fire (it only re-arms while
    // other events are pending, so the sim can drain).
    if (spec.instrument) spec.instrument(net, run_index);
    net.run();

    if (audit) {
        audit->finalize(net.simulator().now());
        result.audit = audit->report();
    }

    result.chains_identical = net.chains_identical();
    result.states_identical = net.states_identical();
    result.osn_blocks_identical = net.osn_blocks_identical();
    result.blocks = net.peers().front()->chain().height();
    result.txs_invalid = net.peers().front()->txs_invalid();
    for (const auto& osn : net.osns()) {
        result.consolidation_failures += osn->consolidation_failures();
    }
    result.level_totals = net.osns().front()->level_totals();
    if (spec.run_probe) spec.run_probe(net, result.extra);
    return result;
}

RunResult run_once(core::NetworkConfig config,
                   const std::function<Workload()>& make_workload,
                   std::uint64_t seed) {
    ExperimentSpec spec;
    spec.config = std::move(config);
    spec.make_workload = make_workload;
    return run_once(spec, seed);
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
        agg.all_consistent = agg.all_consistent && r.chains_identical &&
                             r.states_identical && r.osn_blocks_identical;
        if (r.audit) agg.audit_reports.push_back(*r.audit);
        if (spec.keep_run_metrics) {
            std::ostringstream os;
            core::write_metrics_json(os, r.metrics,
                                     r.audit ? &*r.audit : nullptr);
            agg.run_metrics_json.push_back(os.str());
        }
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
std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
    const char* raw = std::getenv(name);
    if (raw == nullptr || *raw == '\0') return fallback;
    return std::strtoull(raw, nullptr, 10);
}
}  // namespace

unsigned runs_from_env(unsigned default_runs) {
    return static_cast<unsigned>(env_u64("FAIRLEDGER_RUNS", default_runs));
}

std::uint64_t total_txs_from_env(std::uint64_t default_total) {
    return env_u64("FAIRLEDGER_TOTAL_TXS", default_total);
}

}  // namespace fl::harness
