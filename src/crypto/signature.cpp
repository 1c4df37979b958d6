#include "crypto/signature.h"

#include <stdexcept>

namespace fl::crypto {

Bytes KeyStore::derive_secret(const std::string& name) const {
    Bytes seed_bytes;
    append_u64(seed_bytes, seed_);
    append(seed_bytes, name);
    const Digest d = sha256(BytesView(seed_bytes.data(), seed_bytes.size()));
    return Bytes(d.begin(), d.end());
}

void KeyStore::register_identity(const Identity& identity) {
    if (identity.name.empty()) {
        throw std::invalid_argument("KeyStore: empty identity name");
    }
    if (!keys_.contains(identity.name)) {
        const Bytes secret = derive_secret(identity.name);
        keys_.emplace(identity.name, HmacKey(BytesView(secret.data(), secret.size())));
    }
    orgs_.emplace(identity.name, identity.org);
}

bool KeyStore::has_identity(const std::string& name) const {
    return keys_.contains(name);
}

std::optional<OrgId> KeyStore::org_of(const std::string& name) const {
    const auto it = orgs_.find(name);
    if (it == orgs_.end()) return std::nullopt;
    return it->second;
}

Signature KeyStore::sign(const std::string& signer, BytesView message) const {
    const auto it = keys_.find(signer);
    if (it == keys_.end()) {
        throw std::invalid_argument("KeyStore::sign: unknown identity " + signer);
    }
    return Signature{signer, it->second.mac(message)};
}

bool KeyStore::verify(const Signature& sig, BytesView message) const {
    const auto it = keys_.find(sig.signer);
    if (it == keys_.end()) return false;
    return it->second.mac(message) == sig.mac;
}

}  // namespace fl::crypto
