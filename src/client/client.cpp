#include "client/client.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "common/log.h"
#include "obs/audit/audit.h"
#include "obs/trace.h"
#include "peer/endorser.h"

namespace fl::client {

Client::Client(sim::Simulator& sim, sim::Network& net, const crypto::KeyStore& keys,
               const policy::ChannelConfig& channel, ClientParams params, ClientId id,
               NodeId node, crypto::Identity identity, Rng rng)
    : sim_(sim),
      net_(net),
      keys_(keys),
      channel_(channel),
      params_(params),
      id_(id),
      node_(node),
      identity_(std::move(identity)),
      rng_(rng),
      cpu_(sim, params.cpu_parallelism) {}

void Client::connect(std::vector<peer::Peer*> endorsers,
                     std::vector<orderer::Osn*> osns, peer::Peer* anchor_peer) {
    if (endorsers.empty() || osns.empty() || anchor_peer == nullptr) {
        throw std::invalid_argument("Client::connect: incomplete wiring");
    }
    endorsers_ = std::move(endorsers);
    osns_ = std::move(osns);
    anchor_peer->register_client(id_, node_,
                                 [this](peer::CommitNotice n) { on_commit(n); });
    // Deterministic per-client OSN rotation offset.
    next_osn_ = static_cast<std::size_t>(id_.value()) % osns_.size();
}

void Client::submit(std::string chaincode, std::string function,
                    std::vector<std::string> args) {
    if (endorsers_.empty()) {
        throw std::logic_error("Client::submit before connect()");
    }
    // Key everything this submission schedules under the client's own
    // domain, so calls from outside the run loop (tests, workload bootstrap)
    // get the same tie order as calls from inside it.
    sim::DomainScope domain(sim_, node_.value());
    ledger::Proposal proposal;
    // Globally-unique tx id: client id in the high bits, sequence below.
    proposal.tx_id = TxId{(id_.value() << 40) | next_tx_seq_++};
    proposal.channel = channel_.id;
    proposal.client = id_;
    proposal.client_identity = identity_.name;
    proposal.chaincode = std::move(chaincode);
    proposal.function = std::move(function);
    proposal.args = std::move(args);
    proposal.created_at = sim_.now();

    PendingTx pending;
    pending.proposal = proposal;
    pending.expected_responses = endorsers_.size();
    pending.submitted_at = sim_.now();
    const auto [it, inserted] = pending_.emplace(proposal.tx_id, std::move(pending));
    ++submitted_;
    if (trace_) {
        obs::TraceEvent ev;
        ev.at = sim_.now();
        ev.type = obs::EventType::kSubmit;
        ev.actor_kind = obs::ActorKind::kClient;
        ev.actor = id_.value();
        ev.tx = proposal.tx_id.value();
        trace_->emit(ev);
    }
    if (audit_) audit_->on_submit(id_.value(), sim_.now());

    send_proposals(it->second);
}

void Client::send_proposals(PendingTx& pending) {
    const TxId tx_id = pending.proposal.tx_id;
    const std::uint32_t attempt = pending.attempt;
    for (peer::Peer* endorser : endorsers_) {
        const std::uint64_t peer_id = endorser->id().value();
        net_.send(node_, endorser->node(), pending.proposal.wire_size(),
                  [this, endorser, attempt, peer_id, proposal = pending.proposal] {
                      endorser->handle_proposal(
                          proposal, [this, endorser, attempt, peer_id,
                                     tx_id = proposal.tx_id](
                                        peer::EndorsementResult result) {
                              // Route the response back over the network.
                              const std::size_t wire =
                                  256 + result.rwset.wire_size();
                              net_.send(endorser->node(), node_, wire,
                                        [this, tx_id, attempt, peer_id,
                                         result = std::move(result)] {
                                            on_endorsement(tx_id, attempt, peer_id,
                                                           result);
                                        });
                          });
                  });
    }
    if (params_.retry.enabled) {
        pending.endorse_timer = sim_.schedule_timer(
            params_.retry.endorsement_timeout,
            [this, tx_id, attempt] { on_endorse_timeout(tx_id, attempt); });
    }
}

void Client::on_endorsement(TxId tx_id, std::uint32_t attempt,
                            std::uint64_t peer_id, peer::EndorsementResult result) {
    const auto it = pending_.find(tx_id);
    if (it == pending_.end()) return;  // already failed/abandoned/completed
    PendingTx& pending = it->second;
    if (attempt != pending.attempt) return;  // reply from a timed-out round
    if (pending.verifying) return;           // already proceeding with a quorum
    if (!pending.responded.insert(peer_id).second) {
        return;  // duplicated delivery of the same reply (message fault)
    }
    pending.responses.push_back(std::move(result));
    if (pending.responses.size() < pending.expected_responses) return;
    begin_verification(tx_id);
}

void Client::begin_verification(TxId tx_id) {
    const auto it = pending_.find(tx_id);
    if (it == pending_.end()) return;
    PendingTx& pending = it->second;
    pending.verifying = true;
    pending.endorse_timer.cancel();
    // Verify and assemble on the client CPU.
    const Duration cost = params_.verify_per_endorsement_cost *
                          static_cast<std::int64_t>(pending.responses.size());
    cpu_.submit(params_.verify_endorsements ? cost : Duration::zero(),
                [this, tx_id] {
                    const auto it2 = pending_.find(tx_id);
                    if (it2 == pending_.end()) return;
                    finalize_endorsements(it2->second);
                });
}

void Client::on_endorse_timeout(TxId tx_id, std::uint32_t attempt) {
    const auto it = pending_.find(tx_id);
    if (it == pending_.end()) return;
    PendingTx& pending = it->second;
    if (attempt != pending.attempt || pending.verifying) return;
    ++endorse_timeouts_;
    if (trace_) {
        obs::TraceEvent ev;
        ev.at = sim_.now();
        ev.type = obs::EventType::kEndorseTimeout;
        ev.actor_kind = obs::ActorKind::kClient;
        ev.actor = id_.value();
        ev.tx = tx_id.value();
        ev.value = attempt;
        trace_->emit(ev);
    }

    // A partial response set that already satisfies the endorsement policy
    // (k-of-n with endorsers down) proceeds — degraded, not failed.
    std::set<OrgId> orgs;
    for (const peer::EndorsementResult& r : pending.responses) {
        if (r.ok) orgs.insert(r.endorsement.org);
    }
    if (!pending.responses.empty() &&
        channel_.endorsement_policy.satisfied_by(orgs)) {
        begin_verification(tx_id);
        return;
    }

    if (pending.endorse_retries >= params_.retry.max_endorse_retries) {
        fail_client_side(pending, TxValidationCode::kEndorsementTimeout);
        return;
    }

    ++pending.endorse_retries;
    ++endorse_retries_;
    ++pending.attempt;
    pending.responses.clear();
    pending.responded.clear();
    const Duration backoff = retry_backoff(pending.endorse_retries);
    if (trace_) {
        obs::TraceEvent ev;
        ev.at = sim_.now();
        ev.type = obs::EventType::kRetry;
        ev.actor_kind = obs::ActorKind::kClient;
        ev.actor = id_.value();
        ev.tx = tx_id.value();
        ev.value = pending.attempt;
        trace_->emit(ev);
    }
    FL_DEBUG("client " << id_.value() << ": tx " << tx_id.value()
                       << " endorse retry " << pending.endorse_retries << " in "
                       << backoff.as_millis() << " ms");
    sim_.schedule_after(backoff, [this, tx_id, resend_attempt = pending.attempt] {
        const auto it2 = pending_.find(tx_id);
        if (it2 == pending_.end()) return;
        if (it2->second.attempt != resend_attempt || it2->second.verifying) return;
        send_proposals(it2->second);
    });
}

Duration Client::retry_backoff(std::uint32_t retry_number) {
    const double scale =
        std::pow(params_.retry.backoff_multiplier,
                 static_cast<double>(retry_number) - 1.0);
    const double jitter =
        1.0 + rng_.uniform(-params_.retry.jitter_frac, params_.retry.jitter_frac);
    return Duration::from_seconds(params_.retry.backoff_base.as_seconds() * scale *
                                  jitter);
}

void Client::finalize_endorsements(PendingTx& pending) {
    // Adopt the read-write set of the first successful endorsement; keep
    // every endorsement that verifies against it (endorsers that simulated
    // against divergent state simply don't count, as in Fabric).
    const peer::EndorsementResult* reference = nullptr;
    for (const peer::EndorsementResult& r : pending.responses) {
        if (r.ok) {
            reference = &r;
            break;
        }
    }
    if (reference == nullptr) {
        fail_client_side(pending, TxValidationCode::kEndorsementPolicyFailure);
        return;
    }

    std::optional<peer::EndorsementVerifier> verifier;
    if (params_.verify_endorsements) {
        verifier.emplace(pending.proposal, reference->rwset, keys_);
    }
    std::vector<ledger::Endorsement> kept;
    kept.reserve(pending.responses.size());
    for (const peer::EndorsementResult& r : pending.responses) {
        if (!r.ok) continue;
        if (verifier && !verifier->verify(r.endorsement)) continue;
        kept.push_back(r.endorsement);
    }

    if (params_.drop_unfavorable_endorsements && !kept.empty()) {
        // Malicious client: discard endorsements voting a worse (higher
        // numeric) priority than the best vote seen.
        const PriorityLevel best =
            std::min_element(kept.begin(), kept.end(),
                             [](const auto& a, const auto& b) {
                                 return a.priority < b.priority;
                             })
                ->priority;
        std::erase_if(kept, [best](const ledger::Endorsement& e) {
            return e.priority != best;
        });
    }

    // Client-side endorsement-policy pre-check.
    std::set<OrgId> orgs;
    for (const ledger::Endorsement& e : kept) {
        orgs.insert(e.org);
    }
    if (!channel_.endorsement_policy.satisfied_by(orgs)) {
        fail_client_side(pending, TxValidationCode::kEndorsementPolicyFailure);
        return;
    }

    broadcast_envelope(pending, std::move(kept), reference->rwset);
}

void Client::broadcast_envelope(PendingTx& pending,
                                std::vector<ledger::Endorsement> kept,
                                ledger::ReadWriteSet rwset) {
    auto env = std::make_shared<ledger::Envelope>();
    env->proposal = pending.proposal;
    env->rwset = std::move(rwset);
    env->endorsements = std::move(kept);
    env->broadcast_at = sim_.now();
    pending.broadcast_at = sim_.now();
    const crypto::Digest d = env->digest();
    env->client_signature = keys_.sign(identity_.name, BytesView(d.data(), d.size()));

    pending.envelope = std::move(env);
    send_envelope(pending, /*resubmission=*/false);
    if (!params_.retry.enabled) {
        // No resubmission possible: drop the envelope, keep only the map
        // entry for commit matching (pre-retry memory footprint).
        pending.envelope.reset();
    }

    // Responses are no longer needed; keep the map entry for commit matching.
    pending.responses.clear();
    pending.responses.shrink_to_fit();
}

void Client::send_envelope(PendingTx& pending, bool resubmission) {
    orderer::Osn* osn = osns_[next_osn_];
    next_osn_ = (next_osn_ + 1) % osns_.size();
    const std::size_t wire = pending.envelope->wire_size();
    const TxId tx_id = pending.proposal.tx_id;
    if (trace_) {
        obs::TraceEvent ev;
        ev.at = sim_.now();
        ev.type = resubmission ? obs::EventType::kResubmit
                               : obs::EventType::kBroadcast;
        ev.actor_kind = obs::ActorKind::kClient;
        ev.actor = id_.value();
        ev.tx = tx_id.value();
        ev.value = resubmission ? pending.resubmissions : wire;
        trace_->emit(ev);
    }
    net_.send(node_, osn->node(), wire,
              [osn, env = pending.envelope] { osn->broadcast(env); });
    if (params_.retry.enabled) {
        pending.commit_timer.cancel();
        pending.commit_timer = sim_.schedule_timer(
            params_.retry.commit_timeout,
            [this, tx_id] { on_commit_timeout(tx_id); });
    }
}

void Client::on_commit_timeout(TxId tx_id) {
    const auto it = pending_.find(tx_id);
    if (it == pending_.end()) return;
    PendingTx& pending = it->second;
    ++commit_timeouts_;
    if (pending.resubmissions >= params_.retry.max_resubmissions) {
        // The transaction may or may not have committed (the notification
        // could have been the lost message) — the record says so via code.
        fail_client_side(pending, TxValidationCode::kCommitTimeout);
        return;
    }
    ++pending.resubmissions;
    ++resubmissions_;
    FL_DEBUG("client " << id_.value() << ": tx " << tx_id.value()
                       << " commit timeout, resubmission "
                       << pending.resubmissions);
    send_envelope(pending, /*resubmission=*/true);
}

void Client::on_commit(const peer::CommitNotice& notice) {
    const auto it = pending_.find(notice.tx_id);
    if (it == pending_.end()) return;  // another client's tx or duplicate
    it->second.endorse_timer.cancel();
    it->second.commit_timer.cancel();
    TxRecord record;
    record.tx_id = notice.tx_id;
    record.client = id_;
    record.chaincode = it->second.proposal.chaincode;
    record.priority = notice.priority;
    record.submitted_at = it->second.submitted_at;
    record.broadcast_at = it->second.broadcast_at;
    record.block_cut_at = notice.block_cut_at;
    record.committed_at = notice.committed_at;
    record.completed_at = sim_.now();
    record.code = notice.code;
    record.endorse_retries = it->second.endorse_retries;
    record.resubmissions = it->second.resubmissions;
    pending_.erase(it);
    ++completed_;
    if (trace_) {
        obs::TraceEvent ev;
        ev.at = sim_.now();
        ev.type = obs::EventType::kComplete;
        ev.actor_kind = obs::ActorKind::kClient;
        ev.actor = id_.value();
        ev.tx = notice.tx_id.value();
        ev.priority = notice.priority;
        ev.block = notice.block;
        ev.code = notice.code;
        trace_->emit(ev);
    }
    if (audit_) audit_->on_client_terminal(id_.value(), sim_.now());
    if (on_complete_) on_complete_(record);
}

void Client::fail_client_side(PendingTx& pending, TxValidationCode code) {
    pending.endorse_timer.cancel();
    pending.commit_timer.cancel();
    TxRecord record;
    record.tx_id = pending.proposal.tx_id;
    record.client = id_;
    record.chaincode = pending.proposal.chaincode;
    record.submitted_at = pending.submitted_at;
    record.broadcast_at = pending.broadcast_at;
    record.completed_at = sim_.now();
    record.code = code;
    // Includes kCommitTimeout: no commit was observed, even if the envelope
    // reached the ordering service — from the client's accounting the
    // submission failed before a confirmed ordering.
    record.failed_before_ordering = true;
    record.endorse_retries = pending.endorse_retries;
    record.resubmissions = pending.resubmissions;
    ++failures_;
    FL_DEBUG("client " << id_.value() << ": tx " << pending.proposal.tx_id.value()
                       << " failed client-side: " << to_string(code));
    if (trace_) {
        obs::TraceEvent ev;
        ev.at = sim_.now();
        ev.type = obs::EventType::kClientFail;
        ev.actor_kind = obs::ActorKind::kClient;
        ev.actor = id_.value();
        ev.tx = pending.proposal.tx_id.value();
        ev.code = code;
        trace_->emit(ev);
    }
    if (audit_) audit_->on_client_terminal(id_.value(), sim_.now());
    const TxId id = pending.proposal.tx_id;
    pending_.erase(id);
    if (on_complete_) on_complete_(record);
}

}  // namespace fl::client
