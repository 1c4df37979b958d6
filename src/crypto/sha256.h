// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for transaction ids, block hashes and the ledger hash chain.  Verified
// against the NIST test vectors in tests/crypto/sha256_test.cpp.  Blocks are
// compressed by the x86 SHA-extensions kernel when the CPU has it, else by
// the portable kernel (crypto/sha256_kernels.h); the output is the same.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "common/bytes.h"

namespace fl::crypto {

using Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 context.  Copyable: a copy taken mid-stream is a
/// midstate that can be continued and finished on its own.
class Sha256 {
public:
    Sha256();

    Sha256& update(BytesView data);
    Sha256& update(std::string_view s);

    /// Finalizes and returns the digest.  The context must not be reused
    /// after calling finish() without reset().
    [[nodiscard]] Digest finish();

    void reset();

private:
    std::array<std::uint32_t, 8> state_;
    std::array<std::uint8_t, 64> buffer_;
    std::size_t buffer_len_ = 0;
    std::uint64_t total_len_ = 0;
};

/// One-shot convenience hashers.
[[nodiscard]] Digest sha256(BytesView data);
[[nodiscard]] Digest sha256(std::string_view s);

/// Hex string of a digest.
[[nodiscard]] std::string to_hex(const Digest& d);

/// Digest as a Bytes buffer.
[[nodiscard]] Bytes to_bytes(const Digest& d);

}  // namespace fl::crypto
