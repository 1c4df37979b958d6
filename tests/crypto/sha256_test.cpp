#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <utility>
#include <vector>

#include "crypto/sha256_kernels.h"

namespace fl::crypto {
namespace {

// NIST FIPS 180-4 / standard test vectors.
TEST(Sha256Test, EmptyString) {
    EXPECT_EQ(to_hex(sha256(std::string_view{})),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
    EXPECT_EQ(to_hex(sha256("abc")),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
    EXPECT_EQ(to_hex(sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, LongMessage) {
    // One million 'a' characters.
    const std::string a(1'000'000, 'a');
    EXPECT_EQ(to_hex(sha256(a)),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, FoxVector) {
    EXPECT_EQ(to_hex(sha256("The quick brown fox jumps over the lazy dog")),
              "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
    const std::string msg = "the quick brown fox jumps over the lazy dog many times";
    Sha256 ctx;
    for (char c : msg) {
        ctx.update(std::string_view(&c, 1));
    }
    EXPECT_EQ(ctx.finish(), sha256(msg));
}

TEST(Sha256Test, ChunkedSplitsMatchOneShot) {
    std::string msg;
    for (int i = 0; i < 300; ++i) {
        msg += static_cast<char>('a' + i % 26);
    }
    for (const std::size_t split : {1u, 7u, 63u, 64u, 65u, 127u, 128u, 200u}) {
        Sha256 ctx;
        std::size_t pos = 0;
        while (pos < msg.size()) {
            const std::size_t take = std::min(split, static_cast<std::size_t>(msg.size() - pos));
            ctx.update(std::string_view(msg).substr(pos, take));
            pos += take;
        }
        EXPECT_EQ(ctx.finish(), sha256(msg)) << "split=" << split;
    }
}

TEST(Sha256Test, BoundaryLengths) {
    // Every padding branch around the 64-byte block boundary, pinned to
    // digests of 'x' * len from an independent implementation (Python's
    // hashlib), one-shot and split in two.
    const std::pair<std::size_t, const char*> cases[] = {
        {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
        {1, "2d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a4881"},
        {54, "45f316e10b2c99abf374b22bda893cf3300d77263f1e272349ed414680522952"},
        {55, "d5e285683cd4efc02d021a5c62014694958901005d6f71e89e0989fac77e4072"},
        {56, "04c26261370ee7541549d16dee320c723e3fd14671e66a099afe0a377c16888e"},
        {57, "ae14a2563ccf969d99aca69ce6bb74981f734bbf9f655f73b8f06db68cab5217"},
        {63, "75220b47218278e656f2013bb8f0c455a25eaf01e86c64924e9d48d89776d6f2"},
        {64, "7ce100971f64e7001e8fe5a51973ecdfe1ced42befe7ee8d5fd6219506b5393c"},
        {65, "9537c5fdf120482f7d58d25e9ed583f52c02b4e304ea814db1633ad565aed7e9"},
        {119, "000b48d4edf0fa7bee3c6236ecd2785baa5db4eeb8bb54341b029e0d9fa5fb0c"},
        {120, "13f05a0b594787f5ecd315edc96141bd3243203d1b7d4f0836f37308b276ba98"},
        {128, "24da1b81d0b16df6428eee73c69fcb2a93c76bc6df706f0c6670fe6bfe800464"},
    };
    for (const auto& [len, hex] : cases) {
        const std::string msg(len, 'x');
        EXPECT_EQ(to_hex(sha256(msg)), hex) << "len=" << len;
        Sha256 two;
        two.update(std::string_view(msg).substr(0, len / 2));
        two.update(std::string_view(msg).substr(len / 2));
        EXPECT_EQ(to_hex(two.finish()), hex) << "split, len=" << len;
    }
}

TEST(Sha256Test, ResetReusesContext) {
    Sha256 ctx;
    ctx.update("abc");
    (void)ctx.finish();
    ctx.reset();
    ctx.update("abc");
    EXPECT_EQ(to_hex(ctx.finish()),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, DistinctInputsDistinctDigests) {
    EXPECT_NE(sha256("a"), sha256("b"));
    EXPECT_NE(sha256("abc"), sha256("abd"));
    EXPECT_NE(sha256(""), sha256(std::string(1, '\0')));
}

TEST(Sha256Test, ToBytesMatches) {
    const Digest d = sha256("abc");
    const Bytes b = to_bytes(d);
    ASSERT_EQ(b.size(), 32u);
    EXPECT_TRUE(std::equal(b.begin(), b.end(), d.begin()));
}

// --- Compression kernels, called directly --------------------------------

using State = std::array<std::uint32_t, 8>;

/// Full SHA-256 of `msg` through one kernel, padded here (independently of
/// Sha256::finish) so a kernel is checked end to end on the NIST vectors.
Digest digest_with(detail::Sha256Compress compress, std::string_view msg) {
    State state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                   0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    std::vector<std::uint8_t> padded(msg.begin(), msg.end());
    padded.push_back(0x80);
    while (padded.size() % 64 != 56) padded.push_back(0);
    const std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
    for (int shift = 56; shift >= 0; shift -= 8) {
        padded.push_back(static_cast<std::uint8_t>(bits >> shift));
    }
    compress(state.data(), padded.data(), padded.size() / 64);
    Digest out;
    for (int i = 0; i < 8; ++i) {
        for (int b = 0; b < 4; ++b) {
            out[i * 4 + b] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * b));
        }
    }
    return out;
}

/// The NIST vectors above (the 1M-'a' one included) through one kernel.
void expect_nist_vectors(detail::Sha256Compress compress) {
    const std::pair<std::string, const char*> vectors[] = {
        {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
        {"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
        {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
         "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
        {std::string(1'000'000, 'a'),
         "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
    };
    for (const auto& [msg, hex] : vectors) {
        EXPECT_EQ(to_hex(digest_with(compress, msg)), hex) << "length " << msg.size();
    }
}

TEST(Sha256KernelTest, PortableKernelMatchesNistVectors) {
    expect_nist_vectors(detail::sha256_compress_portable);
}

#if defined(__x86_64__)

#define SKIP_WITHOUT_SHA_NI()                                              \
    if (!detail::sha_ni_supported()) {                                     \
        GTEST_SKIP() << "CPU lacks the SHA extensions; only the portable " \
                        "kernel runs here";                                \
    }

TEST(Sha256KernelTest, ShaNiKernelMatchesNistVectors) {
    SKIP_WITHOUT_SHA_NI();
    expect_nist_vectors(detail::sha256_compress_shani);
}

TEST(Sha256KernelTest, ShaNiMatchesPortableOnRandomStatesAndBlocks) {
    SKIP_WITHOUT_SHA_NI();
    std::mt19937_64 rng(0x5A256);
    for (int trial = 0; trial < 2000; ++trial) {
        State start;
        for (auto& word : start) word = static_cast<std::uint32_t>(rng());
        // 1..9 blocks; read from an odd offset so unaligned loads are exercised.
        const std::size_t n_blocks = 1 + trial % 9;
        std::vector<std::uint8_t> buf(n_blocks * 64 + 1);
        for (auto& byte : buf) byte = static_cast<std::uint8_t>(rng());
        const std::uint8_t* blocks = buf.data() + 1;

        State portable = start;
        detail::sha256_compress_portable(portable.data(), blocks, n_blocks);
        State shani = start;
        detail::sha256_compress_shani(shani.data(), blocks, n_blocks);
        ASSERT_EQ(portable, shani) << "trial " << trial << ", " << n_blocks << " blocks";

        // A multi-block call equals the same blocks fed one at a time.
        State stepwise = start;
        for (std::size_t b = 0; b < n_blocks; ++b) {
            detail::sha256_compress_shani(stepwise.data(), blocks + 64 * b, 1);
        }
        ASSERT_EQ(stepwise, shani) << "trial " << trial;
    }
}

#endif  // defined(__x86_64__)

}  // namespace
}  // namespace fl::crypto
