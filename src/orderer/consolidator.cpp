#include "orderer/consolidator.h"

#include <optional>
#include <vector>

#include "common/log.h"
#include "peer/endorser.h"

namespace fl::orderer {

Consolidator::Consolidator(const policy::ChannelConfig& channel,
                           const crypto::KeyStore& keys, bool verify_signatures)
    : channel_(channel),
      keys_(keys),
      policy_(policy::make_consolidation_policy(channel.consolidation_spec)),
      verify_signatures_(verify_signatures) {}

ConsolidationResult Consolidator::consolidate(const ledger::Envelope& envelope) const {
    ConsolidationResult out;
    std::optional<peer::EndorsementVerifier> verifier;
    if (verify_signatures_) {
        verifier.emplace(envelope.proposal, envelope.rwset, keys_);
    }
    std::vector<PriorityLevel> votes;
    votes.reserve(envelope.endorsements.size());
    for (const ledger::Endorsement& e : envelope.endorsements) {
        if (verifier && !verifier->verify(e)) {
            FL_TRACE("consolidator: tx " << envelope.tx_id().value()
                                         << " dropped endorsement by "
                                         << e.endorser_identity << " (bad signature)");
            continue;
        }
        votes.push_back(e.priority);
    }
    if (votes.empty()) {
        out.error = "no valid endorsements";
        FL_DEBUG("consolidator: tx " << envelope.tx_id().value()
                                     << " rejected: no valid endorsements");
        return out;
    }
    const std::optional<PriorityLevel> level =
        policy_->consolidate(votes, channel_.effective_levels());
    if (!level) {
        out.error = "consolidation policy unsatisfied (" + policy_->name() + ")";
        FL_DEBUG("consolidator: tx " << envelope.tx_id().value()
                                     << " rejected: policy " << policy_->name()
                                     << " unsatisfied over " << votes.size()
                                     << " votes");
        return out;
    }
    out.ok = true;
    out.priority = *level;
    FL_TRACE("consolidator: tx " << envelope.tx_id().value() << " -> level "
                                 << out.priority << " from " << votes.size()
                                 << " votes");
    return out;
}

}  // namespace fl::orderer
