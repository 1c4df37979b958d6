// Experiment runner: builds a fresh network per run (new seed), drives a
// workload to completion, collects metrics, and aggregates across runs —
// the paper's "each experiment 10 times, 15000 transactions per run, report
// the average".
//
// Each run owns its Simulator, FabricNetwork and MetricsCollector and shares
// no state with other runs, which is what lets `harness::run_sweep`
// (harness/sweep.h) execute independent experiment points on parallel
// threads without changing any result.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/fabric_network.h"
#include "core/metrics.h"
#include "harness/workload.h"
#include "obs/audit/audit.h"

namespace fl::harness {

struct ExperimentSpec {
    core::NetworkConfig config;
    /// Builds the workload for one run (fresh generator state per run).
    std::function<Workload()> make_workload;
    unsigned runs = 5;
    std::uint64_t base_seed = 1000;

    /// Optional per-completed-transaction probe, called from the tx sink with
    /// the drained network available; accumulate custom counters into `extra`
    /// (they aggregate across runs into AggregateResult::extra).
    using TxProbe = std::function<void(const client::TxRecord&, core::FabricNetwork&,
                                       std::map<std::string, double>&)>;
    TxProbe tx_probe;
    /// Optional post-run probe over the drained network (chain shape, OSN
    /// counters, ...); accumulates into the same `extra` map.
    using RunProbe =
        std::function<void(core::FabricNetwork&, std::map<std::string, double>&)>;
    RunProbe run_probe;
    /// When true, run_experiment keeps a per-run JSON metrics dump (see
    /// core::write_metrics_json) in AggregateResult::run_metrics_json.
    bool keep_run_metrics = false;

    /// Observability hook, invoked once per run after the workload is
    /// scheduled but before the simulation drains — the point where a trace
    /// sink or a TimeSeriesRecorder can attach to the live network (the
    /// recorder needs pending events to arm its sampling timer against).
    /// The second argument is the run index (0-based).
    std::function<void(core::FabricNetwork&, unsigned)> instrument;

    /// When set, each run attaches a fresh AuditAccountant (obs/audit) with
    /// this configuration.  The level_weights field is derived automatically
    /// from the run's block formation policy when left empty.  The audit is
    /// purely observational — results with and without it are identical —
    /// and its report lands in RunResult::audit plus, with keep_run_metrics,
    /// as an "audit" block inside the per-run metrics JSON.
    std::optional<obs::audit::AuditConfig> audit;
};

/// Results of a single run.
struct RunResult {
    core::MetricsCollector metrics;
    bool chains_identical = false;
    bool states_identical = false;
    bool osn_blocks_identical = false;
    std::uint64_t chain_fingerprint = 0;  ///< peer 0 block chain
    std::uint64_t state_fingerprint = 0;  ///< peer 0 world state
    std::uint64_t blocks = 0;
    std::uint64_t txs_invalid = 0;
    std::uint64_t consolidation_failures = 0;
    std::map<std::string, double> extra;  ///< probe-filled counters
    /// Finalized fairness-audit report (only when ExperimentSpec::audit).
    std::optional<obs::audit::AuditReport> audit;

    /// Chains, world states and OSN block logs all agree.
    [[nodiscard]] bool consistent() const {
        return chains_identical && states_identical && osn_blocks_identical;
    }
};

/// The run's metrics dump (core::write_metrics_json), with the audit block
/// when the run was audited.
[[nodiscard]] std::string metrics_json(const RunResult& result);

/// Seed of the workload driver's rng on a network built with `network_seed`.
[[nodiscard]] constexpr std::uint64_t workload_seed(std::uint64_t network_seed) {
    return network_seed ^ 0x574B4C44ull;
}

/// The lifecycle of one run on a built network, shared by run_once and
/// run_multi_channel so both attach and collect in one order.  The
/// constructor attaches the tx sink (result.metrics, then `tx_probe`) and the
/// fairness audit (when set; empty level weights default from the channel's
/// block policy), starts a workload driver seeded
/// workload_seed(net.config().seed), then calls `instrument` — after the
/// start, since a sampling recorder armed against an empty event queue never
/// fires.  Attaching schedules no events and draws no rng.  After the drain,
/// collect() finalizes the audit at the last event time, fills `result` and
/// calls `run_probe`.  `net` and `result` must outlive this object.
class NetworkRun {
public:
    NetworkRun(core::FabricNetwork& net, RunResult& result, Workload workload,
               const std::optional<obs::audit::AuditConfig>& audit,
               const ExperimentSpec::TxProbe& tx_probe,
               const std::function<void(core::FabricNetwork&)>& instrument);
    NetworkRun(const NetworkRun&) = delete;  // the driver's events point here

    void collect(const ExperimentSpec::RunProbe& run_probe = {});

private:
    core::FabricNetwork& net_;
    RunResult& result_;
    std::unique_ptr<obs::audit::AuditAccountant> audit_;
    WorkloadDriver driver_;
};

/// Per-run means of the pipeline-phase latencies, aggregated across runs.
struct PhaseAggregate {
    RunAggregator endorsement;
    RunAggregator ordering;
    RunAggregator validation;
    RunAggregator notification;
};

/// Aggregates across runs.
struct AggregateResult {
    RunAggregator overall_latency;                           ///< seconds
    std::map<PriorityLevel, RunAggregator> latency_by_priority;
    std::map<std::uint64_t, RunAggregator> latency_by_client;  ///< key: client id
    std::map<PriorityLevel, PhaseAggregate> phases_by_priority;
    RunAggregator throughput_tps;
    RunAggregator blocks_per_run;
    std::uint64_t total_committed = 0;
    std::uint64_t total_invalid = 0;
    std::uint64_t total_client_failures = 0;
    std::uint64_t total_consolidation_failures = 0;
    bool all_consistent = true;
    /// Per-run means of the probe counters in RunResult::extra.
    std::map<std::string, RunAggregator> extra;
    /// Per-run metrics dumps (only when ExperimentSpec::keep_run_metrics).
    std::vector<std::string> run_metrics_json;
    /// Per-run audit reports (only when ExperimentSpec::audit).
    std::vector<obs::audit::AuditReport> audit_reports;

    [[nodiscard]] double priority_latency(PriorityLevel level) const {
        const auto it = latency_by_priority.find(level);
        return it == latency_by_priority.end() ? 0.0 : it->second.mean();
    }
    [[nodiscard]] double client_latency(std::uint64_t client) const {
        const auto it = latency_by_client.find(client);
        return it == latency_by_client.end() ? 0.0 : it->second.mean();
    }
    /// Mean of a probe counter across runs (0 when the key never appeared).
    [[nodiscard]] double extra_mean(const std::string& key) const;
    /// Sum of a probe counter across runs.
    [[nodiscard]] double extra_total(const std::string& key) const;
};

/// Executes one run with the given seed.  `run_index` is forwarded to
/// ExperimentSpec::instrument.
[[nodiscard]] RunResult run_once(const ExperimentSpec& spec, std::uint64_t seed,
                                 unsigned run_index = 0);

/// Executes spec.runs runs (seeds base_seed, base_seed+1, ...) and aggregates.
[[nodiscard]] AggregateResult run_experiment(const ExperimentSpec& spec);

/// Number of repetitions: the FAIRLEDGER_RUNS environment variable when set,
/// otherwise `default_runs` (the paper uses 10; benches default lower to
/// keep CI fast — see EXPERIMENTS.md).  Empty counts as unset; a malformed
/// (fl::parse_unsigned), zero or out-of-range value throws
/// std::invalid_argument naming the variable.
[[nodiscard]] unsigned runs_from_env(unsigned default_runs);

/// Total transactions per run: FAIRLEDGER_TOTAL_TXS or `default_total`,
/// parsed as strictly as runs_from_env.
[[nodiscard]] std::uint64_t total_txs_from_env(std::uint64_t default_total);

}  // namespace fl::harness
