// Endorsement logic: simulate the chaincode, compute the priority vote,
// sign (proposal, rwset, priority).  Pure with respect to the simulator —
// the Peer wraps this in CPU-cost accounting and network replies.
#pragma once

#include <memory>

#include "chaincode/registry.h"
#include "crypto/sha256.h"
#include "crypto/signature.h"
#include "ledger/transaction.h"
#include "ledger/world_state.h"
#include "peer/priority_calculator.h"

namespace fl::peer {

/// Result of simulating one proposal at one endorser.
struct EndorsementResult {
    bool ok = false;
    std::string error;                 ///< chaincode failure message if !ok
    ledger::ReadWriteSet rwset;
    ledger::Endorsement endorsement;
};

/// Executes `proposal` against `state` via `registry`, votes a priority with
/// `calculator` and signs as `identity`.
[[nodiscard]] EndorsementResult endorse(
    const ledger::Proposal& proposal, const ledger::WorldState& state,
    const chaincode::Registry& registry, PriorityCalculator& calculator,
    const CalculatorContext& ctx, const crypto::KeyStore& keys,
    const crypto::Identity& identity);

/// Checks endorsements against one (proposal, rwset) pair — the one place an
/// endorsement verdict is computed (client, OSN consolidator, validator).
/// The payload proposal‖rwset‖priority is serialized once, and the hash of
/// its proposal‖rwset prefix is absorbed once; each verify() rewrites only
/// the 4-byte priority suffix.  verify() mutates that scratch buffer, so a
/// verifier belongs to one call on one thread; the KeyStore is only read.
class EndorsementVerifier {
public:
    EndorsementVerifier(const ledger::Proposal& proposal,
                        const ledger::ReadWriteSet& rwset, const crypto::KeyStore& keys);

    /// True iff `endorsement` hashes and is signed over this pair with its
    /// own priority vote.
    [[nodiscard]] bool verify(const ledger::Endorsement& endorsement);

private:
    const crypto::KeyStore& keys_;
    Bytes payload_;          ///< proposal‖rwset‖priority of the last verify()
    crypto::Sha256 prefix_;  ///< SHA-256 state after proposal‖rwset
};

/// One-endorsement case of EndorsementVerifier.
[[nodiscard]] bool verify_endorsement(const ledger::Proposal& proposal,
                                      const ledger::ReadWriteSet& rwset,
                                      const ledger::Endorsement& endorsement,
                                      const crypto::KeyStore& keys);

}  // namespace fl::peer
