// Layer replay: re-drives each layer's public entry point on a drained
// run's own inputs (peer 0's chain), as many times as the pipeline calls
// it, and checks that every output equals what the run produced.
//
// Call counts follow the call sites: the client verifies each endorsement
// once; one OSN consolidates each transaction; every peer endorses its
// share, validates and applies every block and re-hashes it on append;
// every OSN hashes every block it cuts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_math.h"
#include "core/fabric_network.h"
#include "workloads.h"

namespace perfbench {

/// Host seconds and call count of one replayed entry point.
struct Timed {
    double seconds = 0.0;
    std::uint64_t calls = 0;

    [[nodiscard]] double per_call() const {
        return calls == 0 ? 0.0 : seconds / static_cast<double>(calls);
    }
};

struct ReplayResult {
    Timed validate_block;       ///< every peer × every block
    Timed apply_block;          ///< every peer × every block
    Timed endorse;              ///< every endorsement in the chain
    Timed verify_endorsement;   ///< client side: every endorsement once
    Timed consolidate;          ///< one OSN per transaction
    Timed data_hash_peer;       ///< BlockStore::append on every peer
    Timed data_hash_orderer;    ///< make_block on every OSN
    Timed wfq;                  ///< WfqScheduler over the level sequence
    Timed sign;                 ///< KeyStore::sign, every endorsement payload
    Timed verify;               ///< KeyStore::verify, every endorsement payload
    Timed sha256;               ///< sha256 over every endorsement payload
    std::uint64_t sha256_bytes = 0;
    /// Signature verifies the configuration implies for the committed
    /// envelopes: the client's and the OSN's when they verify, plus every
    /// peer's validator.  Derived, not counted: the library has no verify
    /// counter, and endorsements a client dropped are not in the chain.
    std::uint64_t nominal_verifies = 0;
    std::uint64_t transactions = 0;
    /// Names of the replay checks that failed (empty = outputs match).
    std::vector<std::string> failures;

    /// Replayed host seconds attributed to a step-loop role.
    [[nodiscard]] double role_seconds(Role role) const;
};

/// Replays `net` (drained) against the inputs in `spec`.
[[nodiscard]] ReplayResult replay(fl::core::FabricNetwork& net, const RunSpec& spec);

}  // namespace perfbench
