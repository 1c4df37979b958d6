// Simulated signature scheme and membership service (MSP stand-in).
//
// Substitution note (see DESIGN.md §2): Fabric uses X.509/ECDSA via its MSP.
// The evaluation only needs signatures that (a) bind a signer identity to a
// message, (b) are verifiable by other nodes, and (c) cost simulated time.
// `SimSig` is HMAC-SHA-256 under a per-identity secret held in a KeyStore
// that plays the role of the PKI: within the simulation a signature cannot
// be forged without the identity's secret, which honest code never leaks.
// The *time* cost of signing/verifying is charged separately by the
// simulator's CPU model, so using HMAC instead of ECDSA does not perturb any
// measured result.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/bytes.h"
#include "common/types.h"
#include "crypto/hmac.h"

namespace fl::crypto {

/// A network identity: "org3.peer1", "org0.client2", "osn0", ...
struct Identity {
    std::string name;
    OrgId org;

    friend bool operator==(const Identity&, const Identity&) = default;
};

/// Signature value plus the claimed signer.
struct Signature {
    std::string signer;
    Digest mac{};

    friend bool operator==(const Signature&, const Signature&) = default;
};

/// Registry of identity secrets — the simulation's PKI root of trust.
/// One instance is shared by all nodes of a network; only the signing path
/// reads the secret for its own identity, and the verifying path consults
/// the store the way a real verifier would consult a certificate chain.
/// Each secret is stored as an HmacKey (pads pre-absorbed), built once at
/// registration; after set-up the store is read-only, so sign() and verify()
/// are safe from any number of threads.
class KeyStore {
public:
    /// Registers an identity, generating a deterministic per-name secret
    /// derived from the store seed.  Re-registering is idempotent.
    void register_identity(const Identity& identity);

    /// Sets the seed that derives identity secrets (call before registering).
    void set_seed(std::uint64_t seed) { seed_ = seed; }

    [[nodiscard]] bool has_identity(const std::string& name) const;
    [[nodiscard]] std::optional<OrgId> org_of(const std::string& name) const;

    [[nodiscard]] Signature sign(const std::string& signer, BytesView message) const;
    [[nodiscard]] bool verify(const Signature& sig, BytesView message) const;

    [[nodiscard]] std::size_t size() const { return keys_.size(); }

private:
    [[nodiscard]] Bytes derive_secret(const std::string& name) const;

    std::uint64_t seed_ = 0x5EC0DE5EC0DE5EC0ull;
    std::unordered_map<std::string, HmacKey> keys_;
    std::unordered_map<std::string, OrgId> orgs_;
};

}  // namespace fl::crypto
