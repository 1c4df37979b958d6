// HMAC-SHA-256 (RFC 2104), verified against the RFC 4231 test vectors.
// Backs the simulated signature scheme.
#pragma once

#include "common/bytes.h"
#include "crypto/sha256.h"

namespace fl::crypto {

/// An HMAC key with its inner and outer pad blocks already absorbed: each
/// mac() costs two compressions fewer than hashing the pads again.  Built
/// once per key (KeyStore keeps one per identity); mac() is const and
/// leaves the midstates untouched, so one key serves any number of threads.
class HmacKey {
public:
    explicit HmacKey(BytesView key);

    [[nodiscard]] Digest mac(BytesView message) const;

private:
    Sha256 inner_;  ///< state after (key ^ ipad)
    Sha256 outer_;  ///< state after (key ^ opad)
};

[[nodiscard]] Digest hmac_sha256(BytesView key, BytesView message);
[[nodiscard]] Digest hmac_sha256(std::string_view key, std::string_view message);

}  // namespace fl::crypto
