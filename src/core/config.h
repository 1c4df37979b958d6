// Top-level network configuration — everything an experiment varies.
//
// Defaults reproduce the paper's setup (§5.1): 4 organizations with one
// peer each, 3 OSNs, 3 clients, 3 priority levels, block size 500, block
// timeout 1 s, block formation policy 2:3:1, consolidation k-of-n with k=2.
#pragma once

#include <cstdint>

#include "client/client.h"
#include "common/time.h"
#include "fault/fault_spec.h"
#include "orderer/ordering_backend.h"
#include "orderer/osn.h"
#include "peer/peer.h"
#include "peer/priority_calculator.h"
#include "policy/channel_config.h"
#include "raft/params.h"
#include "sim/network.h"

namespace fl::core {

// Node address bases: peers, OSNs, clients and the ordering endpoint all
// share one NodeId space.  Node ids double as scheduling-domain ids, which
// fix the tie order of equal-time events, so they are part of every
// recorded artifact.
inline constexpr std::uint64_t kPeerNodeBase = 100;
inline constexpr std::uint64_t kOsnNodeBase = 200;
inline constexpr std::uint64_t kClientNodeBase = 300;
inline constexpr std::uint64_t kBrokerNode = orderer::kOrderingServiceNode;

struct NetworkConfig {
    std::uint32_t orgs = 4;
    std::uint32_t peers_per_org = 1;
    std::uint32_t osns = 3;
    std::uint32_t clients = 3;

    policy::ChannelConfig channel;

    /// Endorsements required: 0 = every org must endorse (the paper's peers
    /// all endorse every transaction), otherwise k-of-n over orgs.
    std::uint32_t endorsement_k = 0;

    /// Master seed; every component derives an independent stream from it.
    std::uint64_t seed = 42;

    /// OSN local timers drift apart by up to this much (uniform per OSN) —
    /// the divergence hazard the TTC protocol exists to fix.
    Duration max_osn_clock_skew = Duration::millis(120);

    /// Per-endorser priority calculator; defaults to the static per-
    /// chaincode assignment when unset.
    peer::CalculatorFactory calculator_factory;

    // Cost/latency model (see DESIGN.md §6).
    peer::PeerParams peer_params;
    orderer::OsnParams osn_params;
    client::ClientParams client_params;
    sim::LinkParams link_params;

    /// Fault injection (DESIGN.md §11).  Inert by default: enabled() false
    /// means no fault streams are split, no fault events are scheduled, and
    /// the run is byte-identical to a pre-fault-subsystem build.
    fault::FaultSpec faults;

    /// Ordering substrate (DESIGN.md §15): the Kafka-style broker (default)
    /// or the deterministic simulated-time Raft cluster.  Fault-free runs
    /// are byte-identical across the two.
    orderer::OrderingBackendKind ordering_backend = orderer::OrderingBackendKind::kMq;
    /// Raft cluster tunables; only read when ordering_backend == kRaft.
    raft::RaftParams raft;

    /// Total number of peers in the network.
    [[nodiscard]] std::uint32_t total_peers() const { return orgs * peers_per_org; }
};

}  // namespace fl::core
