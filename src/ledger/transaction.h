// Transaction data structures along Fabric's execute-order-validate flow:
// Proposal -> (endorsement phase) -> Endorsement* -> Envelope -> (ordering)
// -> position in a Block -> (validation) -> TxValidationCode.
//
// Following the paper (§4), the transaction data structure carries a
// priority field: each Endorsement holds the priority its endorser assigned
// (signed), and the Envelope later receives the consolidated priority
// assigned by the ordering service.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/time.h"
#include "common/types.h"
#include "crypto/sha256.h"
#include "crypto/signature.h"
#include "ledger/rwset.h"

namespace fl::ledger {

/// Client request to execute a chaincode function.
struct Proposal {
    TxId tx_id;
    ChannelId channel;
    ClientId client;
    std::string client_identity;
    std::string chaincode;
    std::string function;
    std::vector<std::string> args;
    TimePoint created_at;

    /// Canonical bytes signed by endorsers (together with their response).
    [[nodiscard]] Bytes serialize() const;
    [[nodiscard]] std::size_t wire_size() const;
};

/// One endorser's signed response: simulated execution result + the priority
/// this endorser's Priority Calculator assigned (paper §3.1).
struct Endorsement {
    std::string endorser_identity;
    OrgId org;
    PriorityLevel priority = kUnassignedPriority;
    crypto::Digest response_hash{};  ///< hash(proposal || rwset || priority)
    crypto::Signature signature;

    friend bool operator==(const Endorsement&, const Endorsement&) = default;
};

/// The message a client broadcasts to the ordering service after collecting
/// endorsements.
struct Envelope {
    Proposal proposal;
    ReadWriteSet rwset;
    std::vector<Endorsement> endorsements;
    crypto::Signature client_signature;

    /// Consolidated priority; assigned by the OSN's Priority Consolidator
    /// (paper §3.2), kUnassignedPriority until then.
    PriorityLevel consolidated_priority = kUnassignedPriority;

    /// Simulation bookkeeping: when the client handed the envelope to the
    /// ordering service (latency measurements subtract proposal.created_at).
    TimePoint broadcast_at;

    [[nodiscard]] TxId tx_id() const { return proposal.tx_id; }

    /// Bytes covered by endorser signatures for this endorser's priority:
    /// proposal‖rwset‖priority, the priority last as a big-endian u32
    /// (peer::EndorsementVerifier rewrites only that suffix).
    [[nodiscard]] static Bytes endorsement_payload(const Proposal& proposal,
                                                   const ReadWriteSet& rwset,
                                                   PriorityLevel priority);

    /// Digest identifying this transaction in Merkle trees / the chain.
    [[nodiscard]] crypto::Digest digest() const;

    [[nodiscard]] std::size_t wire_size() const;
};

}  // namespace fl::ledger
