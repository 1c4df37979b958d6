#include "crypto/sha256.h"

#include <cstring>

#include "crypto/sha256_kernels.h"

namespace fl::crypto {

namespace {

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

std::uint32_t rotr(std::uint32_t x, int n) {
    return (x >> n) | (x << (32 - n));
}

detail::Sha256Compress select_compress() {
#if defined(__x86_64__)
    if (detail::sha_ni_supported()) return detail::sha256_compress_shani;
#endif
    return detail::sha256_compress_portable;
}

// Constant-initialized to the portable kernel, so a hash computed by another
// translation unit's static initializer is correct whatever the init order;
// the dynamic initializer below then upgrades it once, before main().
detail::Sha256Compress g_compress = detail::sha256_compress_portable;
[[maybe_unused]] const bool g_compress_selected = (g_compress = select_compress(), true);

}  // namespace

void detail::sha256_compress_portable(std::uint32_t* state,
                                      const std::uint8_t* blocks,
                                      std::size_t n_blocks) {
    for (; n_blocks > 0; --n_blocks, blocks += 64) {
        std::uint32_t w[64];
        for (int i = 0; i < 16; ++i) {
            w[i] = static_cast<std::uint32_t>(blocks[i * 4]) << 24 |
                   static_cast<std::uint32_t>(blocks[i * 4 + 1]) << 16 |
                   static_cast<std::uint32_t>(blocks[i * 4 + 2]) << 8 |
                   static_cast<std::uint32_t>(blocks[i * 4 + 3]);
        }
        for (int i = 16; i < 64; ++i) {
            const std::uint32_t s0 =
                rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
            const std::uint32_t s1 =
                rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }

        std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
        std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

        for (int i = 0; i < 64; ++i) {
            const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
            const std::uint32_t ch = (e & f) ^ (~e & g);
            const std::uint32_t temp1 =
                h + s1 + ch + detail::kSha256RoundConstants[i] + w[i];
            const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
            const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
            const std::uint32_t temp2 = s0 + maj;
            h = g;
            g = f;
            f = e;
            e = d + temp1;
            d = c;
            c = b;
            b = a;
            a = temp1 + temp2;
        }

        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
    }
}

Sha256::Sha256() {
    reset();
}

void Sha256::reset() {
    state_ = kInitialState;
    buffer_len_ = 0;
    total_len_ = 0;
}

Sha256& Sha256::update(BytesView data) {
    total_len_ += data.size();
    std::size_t offset = 0;
    if (buffer_len_ > 0) {
        const std::size_t take = std::min(data.size(), buffer_.size() - buffer_len_);
        std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
        buffer_len_ += take;
        offset = take;
        if (buffer_len_ < buffer_.size()) return *this;
        g_compress(state_.data(), buffer_.data(), 1);
        buffer_len_ = 0;
    }
    const std::size_t full_blocks = (data.size() - offset) / 64;
    if (full_blocks > 0) {
        g_compress(state_.data(), data.data() + offset, full_blocks);
        offset += full_blocks * 64;
    }
    if (offset < data.size()) {
        std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
        buffer_len_ = data.size() - offset;
    }
    return *this;
}

Sha256& Sha256::update(std::string_view s) {
    return update(BytesView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

Digest Sha256::finish() {
    // Padding: 0x80, zeros up to byte 56 of a block, 64-bit big-endian bit
    // length.  One extra block when the 0x80 byte leaves no room for it.
    buffer_[buffer_len_++] = 0x80;
    if (buffer_len_ > 56) {
        std::memset(buffer_.data() + buffer_len_, 0, buffer_.size() - buffer_len_);
        g_compress(state_.data(), buffer_.data(), 1);
        buffer_len_ = 0;
    }
    std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
    const std::uint64_t bit_len = total_len_ * 8;
    for (int i = 0; i < 8; ++i) {
        buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - i * 8));
    }
    g_compress(state_.data(), buffer_.data(), 1);

    Digest out;
    for (int i = 0; i < 8; ++i) {
        out[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
        out[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
        out[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
        out[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
    }
    return out;
}

Digest sha256(BytesView data) {
    Sha256 ctx;
    ctx.update(data);
    return ctx.finish();
}

Digest sha256(std::string_view s) {
    Sha256 ctx;
    ctx.update(s);
    return ctx.finish();
}

std::string to_hex(const Digest& d) {
    return fl::to_hex(BytesView(d.data(), d.size()));
}

Bytes to_bytes(const Digest& d) {
    return Bytes(d.begin(), d.end());
}

}  // namespace fl::crypto
