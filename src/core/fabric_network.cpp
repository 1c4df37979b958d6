#include "core/fabric_network.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "fault/injector.h"
#include "mq/broker.h"
#include "obs/audit/audit.h"
#include "obs/metric_registry.h"
#include "obs/trace.h"

namespace fl::core {

FabricNetwork::FabricNetwork(NetworkConfig config)
    : config_(std::move(config)),
      rng_(config_.seed),
      registry_(chaincode::Registry::with_standard_contracts(
          config_.channel.effective_levels())) {
    if (config_.orgs == 0 || config_.peers_per_org == 0 || config_.osns == 0 ||
        config_.clients == 0) {
        throw std::invalid_argument("NetworkConfig: all component counts must be >= 1");
    }
    build();
}

FabricNetwork::~FabricNetwork() = default;

void FabricNetwork::build() {
    net_ = std::make_unique<sim::Network>(sim_, rng_.split("network"),
                                          config_.link_params);

    if (config_.ordering_backend == orderer::OrderingBackendKind::kRaft) {
        // The Raft rng is derived straight from the seed (like the key
        // store's), NOT split from rng_: Rng::split advances the parent, so
        // splitting here would shift every later component stream and break
        // the mq-vs-raft byte-identity contract (DESIGN.md §15).
        sim::DomainScope scope(sim_, kBrokerNode);
        auto raft = std::make_unique<raft::RaftOrderingBackend>(
            sim_, *net_, Rng(config_.seed ^ 0x5241465453454431ull),  // "RAFTSED1"
            config_.raft);
        raft_backend_ = raft.get();
        ordering_ = std::move(raft);
    } else {
        sim::DomainScope scope(sim_, kBrokerNode);
        ordering_ = std::make_unique<mq::Broker>(*net_);
    }

    keys_.set_seed(config_.seed ^ 0x4B45595345454431ull);  // "KEYSEED1"

    // Endorsement policy: k-of-n over the organizations (0 = all orgs).
    const std::uint32_t k =
        config_.endorsement_k == 0 ? config_.orgs
                                   : std::min(config_.endorsement_k, config_.orgs);
    config_.channel.endorsement_policy =
        policy::EndorsementPolicy::k_of_n_orgs(k, config_.orgs);

    // Topics: one per priority level (a single one in baseline mode).
    for (std::uint32_t level = 0; level < config_.channel.effective_levels(); ++level) {
        ordering_->create_topic(config_.channel.topic_for_level(level));
    }

    peer::CalculatorFactory factory = config_.calculator_factory;
    if (!factory) {
        factory = [] { return std::make_unique<peer::StaticChaincodeCalculator>(); };
    }

    // Peers — each constructed under its own scheduling domain, which keys
    // any constructor-scheduled event.
    for (std::uint32_t org = 0; org < config_.orgs; ++org) {
        for (std::uint32_t p = 0; p < config_.peers_per_org; ++p) {
            const std::uint64_t index = org * config_.peers_per_org + p;
            const std::uint64_t node = kPeerNodeBase + index;
            crypto::Identity identity{
                "org" + std::to_string(org) + ".peer" + std::to_string(p), OrgId{org}};
            keys_.register_identity(identity);
            sim::DomainScope scope(sim_, node);
            peers_.push_back(std::make_unique<peer::Peer>(
                sim_, *net_, keys_, registry_, config_.channel, config_.peer_params,
                PeerId{index}, NodeId{node}, identity, factory(),
                rng_.split("peer" + std::to_string(index))));
        }
    }

    // OSNs, each with its own local-clock skew.
    for (std::uint32_t i = 0; i < config_.osns; ++i) {
        crypto::Identity identity{"osn" + std::to_string(i), OrgId{0}};
        keys_.register_identity(identity);
        orderer::OsnParams params = config_.osn_params;
        params.clock_skew = Duration::from_seconds(
            rng_.split("osnskew" + std::to_string(i))
                .uniform(0.0, config_.max_osn_clock_skew.as_seconds()));
        sim::DomainScope scope(sim_, kOsnNodeBase + i);
        osns_.push_back(std::make_unique<orderer::Osn>(
            sim_, *net_, *ordering_, keys_, config_.channel, params, OsnId{i},
            NodeId{kOsnNodeBase + i}));
    }

    // Each peer receives blocks from one OSN (round-robin).
    for (std::size_t i = 0; i < peers_.size(); ++i) {
        peer::Peer* p = peers_[i].get();
        osns_[i % osns_.size()]->connect_peer(
            p->node(),
            [p](std::shared_ptr<const ledger::Block> block) {
                p->deliver_block(std::move(block));
            });
    }

    // Clients: endorse at every peer, anchor at a round-robin peer.
    for (std::uint32_t c = 0; c < config_.clients; ++c) {
        const std::uint64_t node = kClientNodeBase + c;
        crypto::Identity identity{"client" + std::to_string(c),
                                  OrgId{c % config_.orgs}};
        keys_.register_identity(identity);
        sim::DomainScope scope(sim_, node);
        clients_.push_back(std::make_unique<client::Client>(
            sim_, *net_, keys_, config_.channel, config_.client_params, ClientId{c},
            NodeId{node}, identity, rng_.split("client" + std::to_string(c))));

        std::vector<peer::Peer*> endorsers;
        endorsers.reserve(peers_.size());
        for (const auto& p : peers_) {
            endorsers.push_back(p.get());
        }
        std::vector<orderer::Osn*> osn_ptrs;
        osn_ptrs.reserve(osns_.size());
        for (const auto& o : osns_) {
            osn_ptrs.push_back(o.get());
        }
        clients_.back()->connect(std::move(endorsers), std::move(osn_ptrs),
                                 peers_[c % peers_.size()].get());
    }

    // Start the ordering service last so subscriptions see a clean log.
    // Generator timers scheduled here key under the OSN's domain.
    for (std::size_t i = 0; i < osns_.size(); ++i) {
        sim::DomainScope scope(sim_, kOsnNodeBase + i);
        osns_[i]->start();
    }

    // Fault injection — gated so fault-free configs split no extra rng
    // streams and schedule no extra events (byte-identity contract).
    if (config_.faults.enabled()) {
        if (config_.faults.messages.any()) {
            net_->set_message_faults(config_.faults.messages, rng_.split("msgfault"));
        }
        fault_schedule_ = config_.faults.schedule;
        if (config_.faults.profile) {
            const std::vector<fault::ScheduledFault> generated =
                fault::make_fault_schedule(*config_.faults.profile,
                                           rng_.split("faultplan"), config_.osns,
                                           config_.total_peers(),
                                           raft_backend_ ? config_.raft.nodes : 0);
            fault_schedule_.insert(fault_schedule_.end(), generated.begin(),
                                   generated.end());
        }
        std::stable_sort(fault_schedule_.begin(), fault_schedule_.end(),
                         [](const fault::ScheduledFault& a,
                            const fault::ScheduledFault& b) { return a.at < b.at; });
        // Each fault event runs under its target component's domain.
        for (const fault::ScheduledFault& f : fault_schedule_) {
            sim::DomainScope scope(sim_, fault_domain(f));
            sim_.schedule_after(f.at, [this, f] { apply_fault(f); });
        }
    }

    // Guard against runaway configurations (events scale with tx volume).
    sim_.set_event_limit(500'000'000);
}

std::uint64_t FabricNetwork::fault_domain(const fault::ScheduledFault& f) const {
    switch (f.kind) {
    case fault::FaultKind::kOsnCrash:
    case fault::FaultKind::kOsnRestart:
        return kOsnNodeBase + f.target % osns_.size();
    case fault::FaultKind::kEndorserDown:
    case fault::FaultKind::kEndorserUp:
    case fault::FaultKind::kEndorserSlow:
    case fault::FaultKind::kEndorserNormal:
        return kPeerNodeBase + f.target % peers_.size();
    default:
        // Broker and Raft faults act on the ordering service as a whole.
        return kBrokerNode;
    }
}

void FabricNetwork::apply_fault(const fault::ScheduledFault& f) {
    faults_applied_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t actor = 0;
    obs::ActorKind kind = obs::ActorKind::kOsn;
    switch (f.kind) {
    case fault::FaultKind::kOsnCrash: {
        const std::size_t i = f.target % osns_.size();
        osns_[i]->crash();
        actor = i;
        break;
    }
    case fault::FaultKind::kOsnRestart: {
        const std::size_t i = f.target % osns_.size();
        osns_[i]->restart();
        actor = i;
        break;
    }
    case fault::FaultKind::kEndorserDown: {
        const std::size_t i = f.target % peers_.size();
        peers_[i]->set_endorser_down(true);
        actor = i;
        kind = obs::ActorKind::kPeer;
        break;
    }
    case fault::FaultKind::kEndorserUp: {
        const std::size_t i = f.target % peers_.size();
        peers_[i]->set_endorser_down(false);
        actor = i;
        kind = obs::ActorKind::kPeer;
        break;
    }
    case fault::FaultKind::kEndorserSlow: {
        const std::size_t i = f.target % peers_.size();
        peers_[i]->set_endorse_slowdown(f.factor);
        actor = i;
        kind = obs::ActorKind::kPeer;
        break;
    }
    case fault::FaultKind::kEndorserNormal: {
        const std::size_t i = f.target % peers_.size();
        peers_[i]->set_endorse_slowdown(1.0);
        actor = i;
        kind = obs::ActorKind::kPeer;
        break;
    }
    case fault::FaultKind::kBrokerDown:
        ordering_->set_down(true);
        kind = obs::ActorKind::kBroker;
        break;
    case fault::FaultKind::kBrokerUp:
        ordering_->set_down(false);
        kind = obs::ActorKind::kBroker;
        break;
    // Raft-backend faults: no-ops under mq, so a schedule mixing both kinds
    // can drive either backend.
    case fault::FaultKind::kRaftLeaderKill:
        if (raft_backend_) raft_backend_->kill_leader();
        kind = obs::ActorKind::kRaft;
        break;
    case fault::FaultKind::kRaftNodeCrash:
        if (raft_backend_) {
            const std::uint32_t i = f.target % raft_backend_->node_count();
            raft_backend_->crash_node(i);
            actor = i;
        }
        kind = obs::ActorKind::kRaft;
        break;
    case fault::FaultKind::kRaftNodeRestart:
        if (raft_backend_) {
            raft_backend_->restart_node(f.target);
            actor = f.target == raft::kAllNodes
                        ? 0
                        : f.target % raft_backend_->node_count();
        }
        kind = obs::ActorKind::kRaft;
        break;
    case fault::FaultKind::kRaftPartition:
        if (raft_backend_) {
            const std::uint32_t i = f.target % raft_backend_->node_count();
            raft_backend_->partition_node(i);
            actor = i;
        }
        kind = obs::ActorKind::kRaft;
        break;
    case fault::FaultKind::kRaftHeal:
        if (raft_backend_) raft_backend_->heal_partitions();
        kind = obs::ActorKind::kRaft;
        break;
    case fault::FaultKind::kRaftDrop:
        if (raft_backend_) raft_backend_->set_drop_prob(f.factor);
        kind = obs::ActorKind::kRaft;
        break;
    }
    if (trace_ != nullptr) {
        obs::TraceEvent ev;
        ev.at = sim_.now();
        ev.type = obs::EventType::kFault;
        ev.actor_kind = kind;
        ev.actor = actor;
        ev.value = static_cast<std::uint64_t>(f.kind);
        ev.value2 = f.target;
        trace_->emit(ev);
    }
}

void FabricNetwork::set_tx_sink(std::function<void(const client::TxRecord&)> sink) {
    for (const auto& c : clients_) {
        c->set_on_complete(sink);
    }
}

void FabricNetwork::set_trace_sink(obs::TraceSink* sink) {
    trace_ = sink;  // also the kFault emitter
    for (const auto& c : clients_) c->set_trace(sink);
    for (const auto& p : peers_) p->set_trace(sink);
    for (const auto& o : osns_) o->set_trace(sink);
    if (raft_backend_) raft_backend_->set_trace(sink);  // election events
    if (audit_) audit_->set_trace(sink);                // detector events
    install_broker_hook();
}

void FabricNetwork::set_audit(obs::audit::AuditAccountant* audit) {
    audit_ = audit;
    if (audit_) audit_->set_trace(trace_);
    for (const auto& c : clients_) c->set_audit(audit);
    for (const auto& p : peers_) p->set_audit(audit);
    // One dequeue observer: all OSNs cut identical blocks, so the audit
    // replays OSN 0's generator decisions against the shadow scheduler.
    osns_.front()->set_audit(audit);
    install_broker_hook();
}

void FabricNetwork::install_broker_hook() {
    obs::TraceSink* sink = trace_;
    obs::audit::AuditAccountant* audit = audit_;
    if (sink == nullptr && audit == nullptr) {
        ordering_->set_on_append(nullptr);
        return;
    }
    // The broker is record-agnostic, so the topic->level mapping lives here.
    std::unordered_map<std::string, PriorityLevel> levels;
    for (std::uint32_t l = 0; l < config_.channel.effective_levels(); ++l) {
        levels.emplace(config_.channel.topic_for_level(l), l);
    }
    ordering_->set_on_append(
        [sink, audit, levels = std::move(levels), sim = &sim_](
            const std::string& topic, orderer::Offset offset,
            const orderer::OrderedRecord& rec, std::size_t wire) {
            if (rec.is_config()) return;  // config updates carry no tx id
            PriorityLevel level = kUnassignedPriority;
            if (const auto it = levels.find(topic); it != levels.end()) {
                level = it->second;
            }
            if (audit && !rec.is_ttc()) {
                // Wire bytes are paid per append, resubmissions included;
                // arrival order is first-append only (on_enqueue dedups).
                audit->charge(obs::audit::ResourceKind::kOrderingBandwidth,
                              rec.envelope->proposal.client.value(),
                              rec.envelope->proposal.chaincode,
                              static_cast<double>(wire), sim->now());
                audit->on_enqueue(level, rec.envelope->tx_id().value(), sim->now());
            }
            if (sink == nullptr) return;
            obs::TraceEvent ev;
            ev.at = sim->now();
            ev.actor_kind = obs::ActorKind::kBroker;
            ev.actor = 0;
            ev.priority = level;
            ev.value = offset;
            ev.value2 = wire;
            if (rec.is_ttc()) {
                ev.type = obs::EventType::kTtcEnqueue;
                ev.block = rec.ttc_block;
            } else {
                ev.type = obs::EventType::kEnqueue;
                ev.tx = rec.envelope->tx_id().value();
            }
            sink->emit(ev);
        });
}

void FabricNetwork::register_metrics(obs::MetricRegistry& registry,
                                     const std::string& prefix) {
    // Queue depth (consumer lag) per priority level, seen by OSN 0's
    // generator: records appended minus records its subscription consumed.
    const orderer::Osn* osn0 = osns_.front().get();
    for (std::uint32_t l = 0; l < config_.channel.effective_levels(); ++l) {
        const std::string topic = config_.channel.topic_for_level(l);
        registry.add_gauge(
            prefix + "queue_depth_p" + std::to_string(l), [this, osn0, topic, l] {
                const auto* gen = osn0->generator();
                const std::uint64_t consumed =
                    gen ? gen->subscriptions()[l]->consumed_count() : 0;
                return static_cast<double>(ordering_->topic_size(topic)) -
                       static_cast<double>(consumed);
            });
    }
    for (std::uint32_t l = 0; l < config_.channel.effective_levels(); ++l) {
        registry.add_gauge(prefix + "block_fill_p" + std::to_string(l), [osn0, l] {
            return static_cast<double>(osn0->level_totals()[l]);
        });
    }
    registry.add_gauge(prefix + "blocks_cut", [osn0] {
        const auto* gen = osn0->generator();
        return gen ? static_cast<double>(gen->blocks_cut()) : 0.0;
    });
    registry.add_gauge(prefix + "quota_transfers", [osn0] {
        const auto* gen = osn0->generator();
        return gen ? static_cast<double>(gen->quota_transfers()) : 0.0;
    });
    registry.add_gauge(prefix + "ttcs_sent", [this] {
        double total = 0.0;
        for (const auto& o : osns_) {
            if (const auto* gen = o->generator()) {
                total += static_cast<double>(gen->ttcs_sent());
            }
        }
        return total;
    });
    registry.add_gauge(prefix + "stale_ttcs", [this] {
        double total = 0.0;
        for (const auto& o : osns_) {
            if (const auto* gen = o->generator()) {
                total += static_cast<double>(gen->stale_ttcs_skipped());
            }
        }
        return total;
    });
    registry.add_gauge(prefix + "mvcc_priority_wins", [this] {
        double total = 0.0;
        for (const auto& p : peers_) {
            total += static_cast<double>(p->mvcc_priority_wins());
        }
        return total;
    });
    registry.add_gauge(prefix + "mvcc_fifo_wins", [this] {
        double total = 0.0;
        for (const auto& p : peers_) {
            total += static_cast<double>(p->mvcc_fifo_wins());
        }
        return total;
    });
    registry.add_gauge(prefix + "txs_valid", [this] {
        return static_cast<double>(peers_.front()->txs_valid());
    });
    registry.add_gauge(prefix + "txs_invalid", [this] {
        return static_cast<double>(peers_.front()->txs_invalid());
    });
    registry.add_gauge(prefix + "endorse_failures", [this] {
        double total = 0.0;
        for (const auto& c : clients_) {
            total += static_cast<double>(c->client_side_failures());
        }
        return total;
    });
    registry.add_gauge(prefix + "consolidation_failures", [this] {
        double total = 0.0;
        for (const auto& o : osns_) {
            total += static_cast<double>(o->consolidation_failures());
        }
        return total;
    });
    // Degradation gauges (appended — tests look gauges up by name, so new
    // entries never shift existing series).  All zero in fault-free runs.
    registry.add_gauge(prefix + "endorse_timeouts", [this] {
        double total = 0.0;
        for (const auto& c : clients_) total += static_cast<double>(c->endorse_timeouts());
        return total;
    });
    registry.add_gauge(prefix + "endorse_retries", [this] {
        double total = 0.0;
        for (const auto& c : clients_) total += static_cast<double>(c->endorse_retries());
        return total;
    });
    registry.add_gauge(prefix + "resubmissions", [this] {
        double total = 0.0;
        for (const auto& c : clients_) total += static_cast<double>(c->resubmissions());
        return total;
    });
    registry.add_gauge(prefix + "commit_timeouts", [this] {
        double total = 0.0;
        for (const auto& c : clients_) total += static_cast<double>(c->commit_timeouts());
        return total;
    });
    registry.add_gauge(prefix + "osn_crashes", [this] {
        double total = 0.0;
        for (const auto& o : osns_) total += static_cast<double>(o->crashes());
        return total;
    });
    registry.add_gauge(prefix + "osn_restarts", [this] {
        double total = 0.0;
        for (const auto& o : osns_) total += static_cast<double>(o->restarts());
        return total;
    });
    registry.add_gauge(prefix + "messages_dropped", [this] {
        return static_cast<double>(net_->messages_dropped());
    });
    registry.add_gauge(prefix + "messages_duplicated", [this] {
        return static_cast<double>(net_->messages_duplicated());
    });
    registry.add_gauge(prefix + "broker_deferred_appends", [this] {
        return static_cast<double>(ordering_->deferred_appends_total());
    });
    // World-state gauges (peer 0): pure functions of the committed state,
    // so the samples stay byte-identical at any --threads.
    registry.add_gauge(prefix + "state_keys", [this] {
        return static_cast<double>(peers_.front()->state().key_count());
    });
    registry.add_gauge(prefix + "state_bytes", [this] {
        return static_cast<double>(peers_.front()->state().approx_memory_bytes());
    });

    // Fairness-audit gauges: live detector counters, 0 when no accountant is
    // attached (the gauges read through the member so set_audit ordering
    // relative to register_metrics does not matter).
    registry.add_gauge(prefix + "audit_priority_inversions", [this] {
        return audit_ ? static_cast<double>(audit_->priority_inversions()) : 0.0;
    });
    registry.add_gauge(prefix + "audit_starvations", [this] {
        return audit_ ? static_cast<double>(audit_->starvation_incidents()) : 0.0;
    });
    registry.add_gauge(prefix + "audit_alarm_trips", [this] {
        return audit_ ? static_cast<double>(audit_->alarm_trips()) : 0.0;
    });
    registry.add_gauge(prefix + "audit_windows_closed", [this] {
        return audit_ ? static_cast<double>(audit_->windows_closed()) : 0.0;
    });

    // Raft-backend gauges (appended, same never-shift contract).  All zero
    // under the mq backend, so mq metrics JSON gains only constant columns.
    registry.add_gauge(prefix + "raft_term", [this] {
        return raft_backend_ ? static_cast<double>(raft_backend_->current_term())
                             : 0.0;
    });
    registry.add_gauge(prefix + "raft_leader_changes", [this] {
        return raft_backend_ ? static_cast<double>(raft_backend_->leader_changes())
                             : 0.0;
    });
    registry.add_gauge(prefix + "raft_elections", [this] {
        return raft_backend_
                   ? static_cast<double>(raft_backend_->elections_started())
                   : 0.0;
    });
    registry.add_gauge(prefix + "raft_commit_index", [this] {
        return raft_backend_ ? static_cast<double>(raft_backend_->commit_index())
                             : 0.0;
    });
    registry.add_gauge(prefix + "raft_replication_lag", [this] {
        return raft_backend_
                   ? static_cast<double>(raft_backend_->replication_lag())
                   : 0.0;
    });
    registry.add_gauge(prefix + "raft_snapshot_installs", [this] {
        return raft_backend_
                   ? static_cast<double>(raft_backend_->snapshot_installs())
                   : 0.0;
    });
    registry.add_gauge(prefix + "raft_resubmissions", [this] {
        return raft_backend_
                   ? static_cast<double>(raft_backend_->leader_resubmissions())
                   : 0.0;
    });
    registry.add_gauge(prefix + "raft_dup_commits_skipped", [this] {
        return raft_backend_
                   ? static_cast<double>(raft_backend_->duplicate_commits_skipped())
                   : 0.0;
    });
    registry.add_gauge(prefix + "raft_messages_dropped", [this] {
        return raft_backend_
                   ? static_cast<double>(raft_backend_->messages_dropped())
                   : 0.0;
    });
    registry.add_gauge(prefix + "raft_consensus_messages", [this] {
        return raft_backend_
                   ? static_cast<double>(raft_backend_->consensus_messages())
                   : 0.0;
    });
}

void FabricNetwork::update_block_policy(const policy::BlockFormationPolicy& new_policy) {
    // Tag the synchronous submit with OSN 0's domain (the submitting
    // component), which keys the events it schedules.
    sim::DomainScope scope(sim_, kOsnNodeBase);
    osns_.front()->submit_config_update(new_policy);
}

void FabricNetwork::seed_state(const std::string& key, const std::string& value) {
    for (const auto& p : peers_) {
        p->seed_state(key, value);
    }
}

bool FabricNetwork::chains_identical() const {
    for (std::size_t i = 1; i < peers_.size(); ++i) {
        if (peers_[i]->chain().chain_fingerprint() !=
            peers_[0]->chain().chain_fingerprint()) {
            return false;
        }
        if (peers_[i]->chain().height() != peers_[0]->chain().height()) {
            return false;
        }
    }
    return true;
}

bool FabricNetwork::states_identical() const {
    for (std::size_t i = 1; i < peers_.size(); ++i) {
        if (peers_[i]->state().fingerprint() != peers_[0]->state().fingerprint()) {
            return false;
        }
    }
    return true;
}

bool FabricNetwork::osn_blocks_identical() const {
    for (std::size_t i = 1; i < osns_.size(); ++i) {
        if (osns_[i]->block_hashes() != osns_[0]->block_hashes()) {
            return false;
        }
    }
    return true;
}

bool FabricNetwork::osn_blocks_prefix_consistent() const {
    const std::vector<crypto::Digest>* longest = &osns_[0]->block_hashes();
    for (std::size_t i = 1; i < osns_.size(); ++i) {
        if (osns_[i]->block_hashes().size() > longest->size()) {
            longest = &osns_[i]->block_hashes();
        }
    }
    for (const auto& o : osns_) {
        const std::vector<crypto::Digest>& h = o->block_hashes();
        if (!std::equal(h.begin(), h.end(), longest->begin())) {
            return false;
        }
    }
    return true;
}

}  // namespace fl::core
