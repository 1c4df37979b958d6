#include "crypto/hmac.h"

#include <array>

namespace fl::crypto {

HmacKey::HmacKey(BytesView key) {
    constexpr std::size_t kBlockSize = 64;

    std::array<std::uint8_t, kBlockSize> key_block{};
    if (key.size() > kBlockSize) {
        const Digest hashed = sha256(key);
        std::copy(hashed.begin(), hashed.end(), key_block.begin());
    } else {
        std::copy(key.begin(), key.end(), key_block.begin());
    }

    std::array<std::uint8_t, kBlockSize> ipad;
    std::array<std::uint8_t, kBlockSize> opad;
    for (std::size_t i = 0; i < kBlockSize; ++i) {
        ipad[i] = static_cast<std::uint8_t>(key_block[i] ^ 0x36);
        opad[i] = static_cast<std::uint8_t>(key_block[i] ^ 0x5c);
    }
    inner_.update(BytesView(ipad.data(), ipad.size()));
    outer_.update(BytesView(opad.data(), opad.size()));
}

Digest HmacKey::mac(BytesView message) const {
    Sha256 inner = inner_;
    inner.update(message);
    const Digest inner_digest = inner.finish();

    Sha256 outer = outer_;
    outer.update(BytesView(inner_digest.data(), inner_digest.size()));
    return outer.finish();
}

Digest hmac_sha256(BytesView key, BytesView message) {
    return HmacKey(key).mac(message);
}

Digest hmac_sha256(std::string_view key, std::string_view message) {
    return hmac_sha256(
        BytesView(reinterpret_cast<const std::uint8_t*>(key.data()), key.size()),
        BytesView(reinterpret_cast<const std::uint8_t*>(message.data()), message.size()));
}

}  // namespace fl::crypto
