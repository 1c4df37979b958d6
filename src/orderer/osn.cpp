#include "orderer/osn.h"

#include <stdexcept>

#include "common/log.h"
#include "obs/trace.h"

namespace fl::orderer {

Osn::Osn(sim::Simulator& sim, sim::Network& net, OrderingBackend& backend,
         const crypto::KeyStore& keys, const policy::ChannelConfig& channel,
         OsnParams params, OsnId id, NodeId node)
    : Osn(sim, net, nullptr, &backend, keys, channel, params, id, node) {}

Osn::Osn(sim::Simulator& sim, sim::Network& net, BrokerT& broker,
         const crypto::KeyStore& keys, const policy::ChannelConfig& channel,
         OsnParams params, OsnId id, NodeId node)
    : Osn(sim, net, std::make_unique<MqOrderingBackend>(broker), nullptr, keys,
          channel, params, id, node) {}

Osn::Osn(sim::Simulator& sim, sim::Network& net,
         std::unique_ptr<OrderingBackend> owned, OrderingBackend* external,
         const crypto::KeyStore& keys, const policy::ChannelConfig& channel,
         OsnParams params, OsnId id, NodeId node)
    : sim_(sim),
      net_(net),
      owned_backend_(std::move(owned)),
      ordering_(external != nullptr ? *external : *owned_backend_),
      channel_(channel),
      params_(params),
      id_(id),
      node_(node),
      ingest_cpu_(sim, params.cpu_parallelism),
      assembly_cpu_(sim, 1) {
    if (channel_.priority_enabled) {
        consolidator_.emplace(channel_, keys, params_.verify_endorsements);
    }
    level_totals_.assign(channel_.effective_levels(), 0);
}

void Osn::start() {
    const std::uint32_t levels = channel_.effective_levels();

    GeneratorConfig gen_cfg;
    gen_cfg.block_size = channel_.block_size;
    gen_cfg.timeout = channel_.block_timeout;
    gen_cfg.clock_skew = params_.clock_skew;
    gen_cfg.consume_per_record = params_.consume_per_record_cost;
    gen_cfg.consume_burst = params_.consume_burst;
    if (channel_.priority_enabled &&
        gen_cfg.consume_per_record > Duration::zero()) {
        gen_cfg.consume_per_record += params_.priority_consume_overhead;
    }
    if (channel_.priority_enabled) {
        gen_cfg.quotas = channel_.block_policy.quotas(channel_.block_size);
    } else {
        gen_cfg.quotas = {channel_.block_size};
    }

    MultiQueueBlockGenerator::Subscriptions subs;
    subs.reserve(levels);
    for (std::uint32_t level = 0; level < levels; ++level) {
        subs.push_back(ordering_.subscribe(channel_.topic_for_level(level), node_));
    }

    generator_ = std::make_unique<MultiQueueBlockGenerator>(
        sim_, std::move(gen_cfg), std::move(subs),
        [this](BlockNumber bn) { send_ttc(bn); },
        [this](CutResult result) { on_cut(std::move(result)); });
    generator_->set_trace(trace_, id_.value());
    generator_->set_audit(audit_);
}

void Osn::set_trace(obs::TraceSink* sink) {
    trace_ = sink;
    if (generator_) generator_->set_trace(trace_, id_.value());
}

void Osn::set_audit(obs::audit::AuditAccountant* audit) {
    audit_ = audit;
    if (generator_) generator_->set_audit(audit_);
}

void Osn::crash() {
    if (!alive_) return;
    alive_ = false;
    ++epoch_;
    ++crashes_;
    // Volatile state dies with the process.  Destroying the generator drops
    // its subscriptions; the broker prunes the expired weak references, so
    // no more records are pushed to this OSN until it re-subscribes.
    generator_.reset();
    last_hash_.reset();
    FL_DEBUG("osn " << id_.value() << ": crashed");
}

void Osn::restart() {
    if (alive_) return;
    alive_ = true;
    ++epoch_;
    ++restarts_;
    // The pre-crash chain becomes the replay expectation: Kafka-style
    // recovery re-consumes every topic from offset 0 and must cut the exact
    // same blocks, because cuts are determined by log positions alone.  A
    // crash in the middle of a replay re-cut only a prefix of the blocks
    // peers already hold, so the longer record stays the expectation.
    if (block_hashes_.size() >= replay_expected_.size()) {
        replay_expected_ = std::move(block_hashes_);
    }
    block_hashes_.clear();
    FL_DEBUG("osn " << id_.value() << ": restarting, replaying "
                    << replay_expected_.size() << " blocks");
    start();
}

void Osn::broadcast(std::shared_ptr<const ledger::Envelope> envelope) {
    if (!alive_) {
        // A real crashed process never sees the request; the client's
        // resubmission logic (or a different OSN) must pick it up.
        ++dropped_broadcasts_;
        return;
    }
    ++received_;
    Duration cost;
    if (channel_.priority_enabled) {
        cost = params_.consolidate_per_tx_cost +
               params_.consolidate_per_endorsement_cost *
                   static_cast<std::int64_t>(envelope->endorsements.size());
    } else {
        cost = params_.ingest_per_tx_cost;
    }
    ingest_cpu_.submit(cost, [this, epoch = epoch_,
                              envelope = std::move(envelope)]() mutable {
        if (epoch != epoch_) return;  // crashed while this was in flight
        PriorityLevel level = 0;
        if (channel_.priority_enabled) {
            const ConsolidationResult result = consolidator_->consolidate(*envelope);
            if (!result.ok) {
                ++consolidation_failures_;
                FL_DEBUG("osn " << id_.value() << ": consolidation failed for tx "
                                << envelope->tx_id().value() << ": " << result.error);
                if (trace_) {
                    obs::TraceEvent ev;
                    ev.at = sim_.now();
                    ev.type = obs::EventType::kConsolidateFail;
                    ev.actor_kind = obs::ActorKind::kOsn;
                    ev.actor = id_.value();
                    ev.tx = envelope->tx_id().value();
                    trace_->emit(ev);
                }
                return;  // rejected before ordering, as an invalid submission
            }
            level = params_.byzantine_promote_all ? 0 : result.priority;
            if (trace_) {
                obs::TraceEvent ev;
                ev.at = sim_.now();
                ev.type = obs::EventType::kConsolidate;
                ev.actor_kind = obs::ActorKind::kOsn;
                ev.actor = id_.value();
                ev.tx = envelope->tx_id().value();
                ev.priority = level;
                trace_->emit(ev);
            }
            // Stamp the consolidated priority on the ordered copy.
            auto stamped = std::make_shared<ledger::Envelope>(*envelope);
            stamped->consolidated_priority = level;
            envelope = std::move(stamped);
        }
        const std::size_t wire = envelope->wire_size();
        ordering_.produce(channel_.topic_for_level(level), node_, wire,
                        OrderedRecord::transaction(std::move(envelope)));
    });
}

void Osn::send_ttc(BlockNumber block) {
    const std::uint32_t levels = channel_.effective_levels();
    for (std::uint32_t level = 0; level < levels; ++level) {
        ordering_.produce(channel_.topic_for_level(level), node_, 24,
                        OrderedRecord::time_to_cut(block, id_));
    }
}

void Osn::on_cut(CutResult result) {
    // High-water guard: a post-restart replay re-cuts blocks 0..N, whose
    // per-level counts were already recorded before the crash.
    if (result.number >= levels_counted_) {
        for (std::size_t i = 0;
             i < result.per_level_counts.size() && i < level_totals_.size(); ++i) {
            level_totals_[i] += result.per_level_counts[i];
        }
        levels_counted_ = result.number + 1;
    }

    Duration cost = params_.assembly_overhead_cost +
                    params_.assembly_per_tx_cost *
                        static_cast<std::int64_t>(result.transactions.size());
    if (channel_.priority_enabled) {
        cost += params_.multiqueue_per_block_cost;
    }
    assembly_cpu_.submit(cost, [this, epoch = epoch_, result = std::move(result)] {
        if (epoch != epoch_) return;  // crashed while this was in flight
        std::vector<ledger::Envelope> txs;
        txs.reserve(result.transactions.size());
        for (const auto& env : result.transactions) {
            txs.push_back(*env);
        }
        ledger::Block block = ledger::make_block(
            result.number, last_hash_ ? &*last_hash_ : nullptr, std::move(txs));
        block.cut_at = sim_.now();
        block.cut_by_timeout = result.by_timeout;
        last_hash_ = block.header.hash();
        block_hashes_.push_back(*last_hash_);

        if (result.number < replay_expected_.size()) {
            // Replaying a block cut before the crash: the log determines the
            // cut, so the hash must match; peers already have it, so it is
            // not re-delivered (they would reject the duplicate anyway).
            if (*last_hash_ != replay_expected_[result.number]) {
                ++replay_hash_mismatches_;
                FL_DEBUG("osn " << id_.value() << ": replay hash mismatch at block "
                                << result.number);
            }
            return;
        }

        auto shared = std::make_shared<const ledger::Block>(std::move(block));
        for (const PeerRoute& route : peers_) {
            // Block delivery models an ordered reliable stream (gRPC Deliver)
            // — exempt from injected message faults.
            net_.send_reliable(node_, route.node, shared->wire_size(),
                               [deliver = route.deliver, shared] { deliver(shared); });
        }
        ++blocks_delivered_;
    });
}

void Osn::submit_config_update(const policy::BlockFormationPolicy& new_policy) {
    if (!channel_.priority_enabled) {
        throw std::logic_error("Osn::submit_config_update: priorities disabled");
    }
    if (new_policy.levels() != channel_.effective_levels()) {
        throw std::invalid_argument(
            "Osn::submit_config_update: level count mismatch");
    }
    OrderedRecord record =
        OrderedRecord::config_update(new_policy.quotas(channel_.block_size));
    const std::size_t wire = record.wire_size();
    ordering_.produce(channel_.topic_for_level(0), node_, wire, std::move(record));
}

void Osn::connect_peer(
    NodeId peer_node, std::function<void(std::shared_ptr<const ledger::Block>)> deliver) {
    peers_.push_back(PeerRoute{peer_node, std::move(deliver)});
}

}  // namespace fl::orderer
