// FabricNetwork — builds and owns a complete simulated network: the
// discrete-event simulator, the network fabric, the ordering backend (the
// Kafka-style mq broker or the Raft cluster),
// the key store (PKI), the chaincode registry, and all peers, OSNs and
// clients, fully wired per a NetworkConfig.
//
// This is the library's main entry point:
//
//   fl::core::NetworkConfig cfg;                 // paper defaults
//   fl::core::FabricNetwork net(cfg);
//   fl::core::MetricsCollector metrics;
//   net.set_tx_sink([&](const auto& r) { metrics.record(r); });
//   net.clients()[0]->submit("asset_transfer", "create", {"alice", "100"});
//   net.run();                                   // drain the simulation
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "chaincode/registry.h"
#include "client/client.h"
#include "core/config.h"
#include "core/metrics.h"
#include "crypto/signature.h"
#include "fault/fault_spec.h"
#include "orderer/ordering_backend.h"
#include "orderer/osn.h"
#include "raft/raft.h"
#include "peer/peer.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace fl::obs {
class MetricRegistry;
class TraceSink;
}  // namespace fl::obs
namespace fl::obs::audit {
class AuditAccountant;
}

namespace fl::core {

class FabricNetwork {
public:
    explicit FabricNetwork(NetworkConfig config);
    ~FabricNetwork();

    FabricNetwork(const FabricNetwork&) = delete;
    FabricNetwork& operator=(const FabricNetwork&) = delete;

    [[nodiscard]] sim::Simulator& simulator() { return sim_; }
    [[nodiscard]] const NetworkConfig& config() const { return config_; }

    [[nodiscard]] std::vector<std::unique_ptr<peer::Peer>>& peers() { return peers_; }
    [[nodiscard]] std::vector<std::unique_ptr<orderer::Osn>>& osns() { return osns_; }
    [[nodiscard]] std::vector<std::unique_ptr<client::Client>>& clients() {
        return clients_;
    }
    [[nodiscard]] const chaincode::Registry& registry() const { return registry_; }
    [[nodiscard]] const crypto::KeyStore& keys() const { return keys_; }
    /// The ordering substrate, whichever backend is configured.
    [[nodiscard]] orderer::OrderingBackend& ordering() { return *ordering_; }
    /// The Raft cluster, or null when the mq backend is configured.
    [[nodiscard]] raft::RaftOrderingBackend* raft_backend() { return raft_backend_; }
    [[nodiscard]] sim::Network& network() { return *net_; }

    /// Registers a completion callback wired to every client.
    void set_tx_sink(std::function<void(const client::TxRecord&)> sink);

    /// Attaches a trace sink to every component (clients, peers, OSNs and
    /// the broker); null detaches everywhere.  The sink only records —
    /// attaching it schedules no simulator events, so results are
    /// byte-identical with and without a trace.
    void set_trace_sink(obs::TraceSink* sink);

    /// Attaches the fairness-audit accountant to every component: all
    /// clients (submit/terminal service events), all peers (endorse and
    /// validation CPU, state I/O, commit order), the broker append hook
    /// (ordering bandwidth + arrival order) and OSN 0's block generator
    /// (dequeue order — all OSNs cut identical blocks, so one observer
    /// suffices and crash replay cannot double-count).  Null detaches.
    /// Like set_trace_sink, attaching schedules no simulator events.
    void set_audit(obs::audit::AuditAccountant* audit);

    /// Registers the standard gauge set (per-priority queue depth and block
    /// fill, generator/validator/consolidation counters) on `registry`.
    /// Gauges read live component state; sample them via a
    /// TimeSeriesRecorder on this network's simulator.
    void register_metrics(obs::MetricRegistry& registry) {
        register_metrics(registry, std::string{});
    }
    /// Same, with every gauge name prefixed (identifier characters only,
    /// e.g. "ch7_") so multiple networks — one per channel in a
    /// MultiChannelNetwork — share one registry without name collisions.
    void register_metrics(obs::MetricRegistry& registry, const std::string& prefix);

    /// Runs the simulation until all scheduled work drains.
    void run() { sim_.run(); }

    /// Runs events up to and including `end` (the clock finishes at `end`);
    /// returns the number of events executed.  Its remaining caller is
    /// perfbench's chunked run, which times a drain in fixed simulated-time
    /// chunks.
    std::uint64_t advance_until(TimePoint end) { return sim_.run_until(end); }

    /// Earliest live pending event; TimePoint::max() if idle.  Used with
    /// advance_until by perfbench's chunked run.
    [[nodiscard]] TimePoint next_event_time() { return sim_.next_event_time(); }

    /// Latest dequeued-event timestamp (see Simulator::last_event_at for the
    /// exact semantics).
    [[nodiscard]] TimePoint last_event_at() const { return sim_.last_event_at(); }

    [[nodiscard]] std::uint64_t events_executed() const { return sim_.events_executed(); }

    /// Seeds a committed key on every peer (bootstrap for contended
    /// workloads); must be called before any traffic.
    void seed_state(const std::string& key, const std::string& value);

    /// Submits a channel-configuration transaction that changes the block
    /// formation policy at run time; all OSNs switch at the same block
    /// boundary (the paper's §3.3 online-reconfiguration scenarios).
    void update_block_policy(const policy::BlockFormationPolicy& new_policy);

    // -- consistency checks (used by tests & examples) -----------------------
    /// True iff every peer holds the identical chain.
    [[nodiscard]] bool chains_identical() const;
    /// True iff every peer holds the identical world state.
    [[nodiscard]] bool states_identical() const;
    /// True iff every OSN produced the identical block-hash sequence.
    [[nodiscard]] bool osn_blocks_identical() const;
    /// Weaker form for runs where an OSN is down at drain time: every OSN's
    /// block-hash sequence must be a prefix of the longest one (surviving
    /// OSNs emit byte-identical sequences; a crashed one just stopped early).
    [[nodiscard]] bool osn_blocks_prefix_consistent() const;

    /// Faults applied so far (scheduled component faults, not per-message).
    [[nodiscard]] std::uint64_t faults_applied() const {
        return faults_applied_.load(std::memory_order_relaxed);
    }
    /// The resolved fault schedule (explicit + profile-generated, sorted).
    [[nodiscard]] const std::vector<fault::ScheduledFault>& fault_schedule() const {
        return fault_schedule_;
    }

private:
    void build();
    /// Scheduling domain a fault event runs under (its target component).
    [[nodiscard]] std::uint64_t fault_domain(const fault::ScheduledFault& f) const;
    void apply_fault(const fault::ScheduledFault& f);
    /// (Re)installs the broker append hook composing the current trace sink
    /// and audit accountant (the broker holds a single hook slot).
    void install_broker_hook();

    NetworkConfig config_;
    Rng rng_;
    sim::Simulator sim_;
    std::unique_ptr<sim::Network> net_;
    std::unique_ptr<orderer::OrderingBackend> ordering_;  ///< the active backend
    raft::RaftOrderingBackend* raft_backend_ = nullptr;   ///< ordering_ under kRaft
    crypto::KeyStore keys_;
    chaincode::Registry registry_;

    std::vector<std::unique_ptr<peer::Peer>> peers_;
    std::vector<std::unique_ptr<orderer::Osn>> osns_;
    std::vector<std::unique_ptr<client::Client>> clients_;

    std::vector<fault::ScheduledFault> fault_schedule_;
    std::atomic<std::uint64_t> faults_applied_{0};
    obs::TraceSink* trace_ = nullptr;  ///< also receives kFault events
    obs::audit::AuditAccountant* audit_ = nullptr;
};

}  // namespace fl::core
