#include "peer/endorser.h"

#include <exception>

#include "chaincode/chaincode.h"
#include "common/log.h"
#include "crypto/sha256.h"

namespace fl::peer {

EndorsementResult endorse(const ledger::Proposal& proposal,
                          const ledger::WorldState& state,
                          const chaincode::Registry& registry,
                          PriorityCalculator& calculator,
                          const CalculatorContext& ctx, const crypto::KeyStore& keys,
                          const crypto::Identity& identity) {
    EndorsementResult out;
    if (!registry.has(proposal.chaincode)) {
        out.error = "unknown chaincode " + proposal.chaincode;
        FL_DEBUG("endorser " << identity.name << ": tx " << proposal.tx_id.value()
                             << " rejected: unknown chaincode "
                             << proposal.chaincode);
        return out;
    }

    chaincode::TxContext tx_ctx(state);
    chaincode::Response resp;
    try {
        resp = registry.get(proposal.chaincode)
                   .invoke(tx_ctx, proposal.function, proposal.args);
    } catch (const std::exception& e) {
        // A throwing contract fails this endorsement, never the peer process.
        resp = chaincode::Response::failure(proposal.chaincode + " threw: " + e.what());
    }
    if (!resp.ok) {
        out.error = resp.message;
        FL_DEBUG("endorser " << identity.name << ": tx " << proposal.tx_id.value()
                             << " chaincode " << proposal.chaincode
                             << " failed: " << resp.message);
        return out;
    }
    out.rwset = std::move(tx_ctx).take_rwset();

    ledger::Endorsement e;
    e.endorser_identity = identity.name;
    e.org = identity.org;
    e.priority = calculator.calculate(proposal, ctx);

    const Bytes payload =
        ledger::Envelope::endorsement_payload(proposal, out.rwset, e.priority);
    e.response_hash = crypto::sha256(BytesView(payload.data(), payload.size()));
    e.signature = keys.sign(identity.name, BytesView(payload.data(), payload.size()));

    out.endorsement = std::move(e);
    out.ok = true;
    FL_TRACE("endorser " << identity.name << ": tx " << proposal.tx_id.value()
                         << " endorsed, priority vote "
                         << out.endorsement.priority);
    return out;
}

bool verify_endorsement(const ledger::Proposal& proposal,
                        const ledger::ReadWriteSet& rwset,
                        const ledger::Endorsement& endorsement,
                        const crypto::KeyStore& keys) {
    const Bytes payload =
        ledger::Envelope::endorsement_payload(proposal, rwset, endorsement.priority);
    if (endorsement.response_hash !=
        crypto::sha256(BytesView(payload.data(), payload.size()))) {
        return false;
    }
    return keys.verify(endorsement.signature, BytesView(payload.data(), payload.size()));
}

}  // namespace fl::peer
