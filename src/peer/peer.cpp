#include "peer/peer.h"

#include <algorithm>

#include "common/log.h"
#include "obs/audit/audit.h"
#include "obs/trace.h"

namespace fl::peer {

Peer::Peer(sim::Simulator& sim, sim::Network& net, const crypto::KeyStore& keys,
           const chaincode::Registry& registry, const policy::ChannelConfig& channel,
           PeerParams params, PeerId id, NodeId node, crypto::Identity identity,
           std::unique_ptr<PriorityCalculator> calculator, Rng rng)
    : sim_(sim),
      net_(net),
      keys_(keys),
      registry_(registry),
      channel_(channel),
      params_(params),
      id_(id),
      node_(node),
      identity_(std::move(identity)),
      calculator_(std::move(calculator)),
      rng_(rng),
      endorse_cpu_(sim, params.cpu_parallelism),
      state_(params.state_shards) {
    if (!calculator_) {
        throw std::invalid_argument("Peer: null priority calculator");
    }
    if (channel_.priority_enabled) {
        consolidation_ = policy::make_consolidation_policy(channel_.consolidation_spec);
    }
}

double Peer::observed_load_tps() {
    // One-second tumbling window over proposal arrivals.
    const Duration window = Duration::seconds(1);
    if (sim_.now() - load_window_start_ >= window) {
        const double elapsed = (sim_.now() - load_window_start_).as_seconds();
        last_window_tps_ = static_cast<double>(load_window_count_) / std::max(elapsed, 1e-9);
        load_window_start_ = sim_.now();
        load_window_count_ = 0;
    }
    ++load_window_count_;
    return last_window_tps_;
}

void Peer::handle_proposal(const ledger::Proposal& proposal,
                           std::function<void(EndorsementResult)> reply) {
    if (endorser_down_) {
        // Dropped before any load accounting or rng draws, so taking an
        // endorser down does not shift this peer's random stream.
        ++proposals_dropped_;
        return;
    }
    const double load = observed_load_tps();
    Duration cost = rng_.exponential_duration(params_.endorse_execute_cost) +
                    params_.endorse_sign_cost;
    if (endorse_slowdown_ != 1.0) {
        cost = Duration::from_seconds(cost.as_seconds() * endorse_slowdown_);
    }
    if (audit_) {
        audit_->charge(obs::audit::ResourceKind::kEndorseCpu, proposal.client.value(),
                       proposal.chaincode, cost.as_seconds(), sim_.now());
    }
    endorse_cpu_.submit(cost, [this, proposal, load, reply = std::move(reply)] {
        CalculatorContext ctx;
        ctx.registry = &registry_;
        ctx.observed_load_tps = load;
        ctx.priority_levels = channel_.effective_levels();
        EndorsementResult result =
            endorse(proposal, state_, registry_, *calculator_, ctx, keys_, identity_);
        ++endorsed_;
        if (trace_) {
            obs::TraceEvent ev;
            ev.at = sim_.now();
            ev.type = obs::EventType::kEndorseReply;
            ev.actor_kind = obs::ActorKind::kPeer;
            ev.actor = id_.value();
            ev.tx = proposal.tx_id.value();
            ev.priority = result.ok ? result.endorsement.priority
                                    : kUnassignedPriority;
            ev.value = result.ok ? 1 : 0;
            trace_->emit(ev);
        }
        reply(std::move(result));
    });
}

void Peer::deliver_block(std::shared_ptr<const ledger::Block> block) {
    inbound_blocks_.push_back(std::move(block));
    pump_validation();
}

Duration Peer::block_validation_cost(const ledger::Block& block) const {
    const auto n = static_cast<std::int64_t>(block.size());
    std::int64_t endorsement_count = 0;
    for (const ledger::Envelope& tx : block.transactions) {
        endorsement_count += static_cast<std::int64_t>(tx.endorsements.size());
    }
    Duration cost = params_.block_overhead_cost +
                    (params_.validate_per_tx_cost + params_.commit_per_tx_cost) * n +
                    params_.verify_per_endorsement_cost * endorsement_count /
                        params_.validation_parallelism;
    if (channel_.priority_enabled) {
        cost += params_.priority_check_per_tx_cost * n;
    }
    return cost;
}

void Peer::pump_validation() {
    if (validating_ || inbound_blocks_.empty()) return;
    validating_ = true;
    std::shared_ptr<const ledger::Block> block = inbound_blocks_.front();
    inbound_blocks_.pop_front();
    sim_.schedule_after(block_validation_cost(*block), [this, block] {
        commit_block(*block);
        validating_ = false;
        pump_validation();
    });
}

void Peer::commit_block(const ledger::Block& block) {
    ValidatorConfig vcfg;
    vcfg.prioritized = channel_.priority_enabled;
    vcfg.verify_consolidation = channel_.priority_enabled;

    const ValidationOutcome outcome = validate_block(
        block, state_, channel_, consolidation_.get(), keys_, seen_tx_ids_, vcfg);
    apply_block(block, outcome, state_);

    ledger::Block stored = block;  // own copy carrying the validation codes
    stored.validation_codes = outcome.codes;
    chain_.append(std::move(stored));

    ++blocks_committed_;
    txs_valid_ += outcome.valid_count;
    txs_invalid_ += block.size() - outcome.valid_count;
    mvcc_priority_wins_ += outcome.conflicts_priority_resolved;
    mvcc_fifo_wins_ += outcome.conflicts_fifo_resolved;
    for (std::size_t i = 0; i < block.transactions.size(); ++i) {
        if (!is_valid(outcome.codes[i])) {
            ++invalid_by_code_[outcome.codes[i]];
        }
    }

    // Notify submitting clients registered at this peer.
    for (std::size_t i = 0; i < block.transactions.size(); ++i) {
        const ledger::Envelope& tx = block.transactions[i];
        if (audit_) {
            // Attribute this tx's slice of block_validation_cost (the
            // per-block overhead is unattributable and stays out); state
            // I/O counts applied writes, so only valid txs pay it.
            Duration vcost =
                params_.validate_per_tx_cost + params_.commit_per_tx_cost +
                params_.verify_per_endorsement_cost *
                    static_cast<std::int64_t>(tx.endorsements.size()) /
                    params_.validation_parallelism;
            if (channel_.priority_enabled) {
                vcost += params_.priority_check_per_tx_cost;
            }
            audit_->charge(obs::audit::ResourceKind::kValidationCpu,
                           tx.proposal.client.value(), tx.proposal.chaincode,
                           vcost.as_seconds(), sim_.now());
            if (is_valid(outcome.codes[i])) {
                audit_->charge(obs::audit::ResourceKind::kStateIo,
                               tx.proposal.client.value(), tx.proposal.chaincode,
                               static_cast<double>(tx.rwset.writes.size()),
                               sim_.now());
            }
            audit_->on_commit_order(block.header.number, tx.tx_id().value(),
                                    tx.consolidated_priority, sim_.now());
        }
        if (trace_) {
            obs::TraceEvent ev;
            ev.at = sim_.now();
            ev.type = is_valid(outcome.codes[i]) ? obs::EventType::kCommit
                                                 : obs::EventType::kAbort;
            ev.actor_kind = obs::ActorKind::kPeer;
            ev.actor = id_.value();
            ev.tx = tx.tx_id().value();
            ev.priority = tx.consolidated_priority;
            ev.block = block.header.number;
            ev.code = outcome.codes[i];
            trace_->emit(ev);
        }
        const auto it = clients_.find(tx.proposal.client);
        if (it == clients_.end()) continue;
        CommitNotice notice;
        notice.tx_id = tx.tx_id();
        notice.code = outcome.codes[i];
        notice.priority = tx.consolidated_priority;
        notice.block = block.header.number;
        notice.block_cut_at = block.cut_at;
        notice.committed_at = sim_.now();
        net_.send(node_, it->second.node, 128,
                  [cb = it->second.on_commit, notice] { cb(notice); });
    }

    FL_DEBUG("peer " << id_.value() << " committed block " << block.header.number
                     << " (" << outcome.valid_count << "/" << block.size()
                     << " valid)");
}

void Peer::register_client(ClientId client, NodeId client_node,
                           std::function<void(CommitNotice)> on_commit) {
    clients_[client] = ClientRoute{client_node, std::move(on_commit)};
}

void Peer::seed_state(const std::string& key, const std::string& value) {
    state_.apply(ledger::KvWrite{key, value, false}, ledger::Version{0, 0});
}

}  // namespace fl::peer
