#include "crypto/hmac.h"

#include <gtest/gtest.h>

#include <vector>

namespace fl::crypto {
namespace {

// RFC 4231 HMAC-SHA-256 test vectors.
TEST(HmacTest, Rfc4231Case1) {
    const Bytes key(20, 0x0b);
    EXPECT_EQ(fl::to_hex(BytesView(hmac_sha256(key, fl::to_bytes("Hi There")))),
              "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
    EXPECT_EQ(fl::to_hex(BytesView(
                  hmac_sha256("Jefe", "what do ya want for nothing?"))),
              "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
    const Bytes key(20, 0xaa);
    const Bytes msg(50, 0xdd);
    EXPECT_EQ(fl::to_hex(BytesView(hmac_sha256(key, msg))),
              "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, Rfc4231Case4) {
    Bytes key;
    for (std::uint8_t i = 1; i <= 25; ++i) key.push_back(i);
    const Bytes msg(50, 0xcd);
    EXPECT_EQ(fl::to_hex(BytesView(hmac_sha256(key, msg))),
              "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST(HmacTest, Rfc4231Case6LongKey) {
    const Bytes key(131, 0xaa);
    EXPECT_EQ(fl::to_hex(BytesView(hmac_sha256(
                  key, fl::to_bytes("Test Using Larger Than Block-Size Key - Hash Key First")))),
              "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, Rfc4231Case7LongKeyAndData) {
    const Bytes key(131, 0xaa);
    const std::string msg =
        "This is a test using a larger than block-size key and a larger than "
        "block-size data. The key needs to be hashed before being used by the "
        "HMAC algorithm.";
    EXPECT_EQ(fl::to_hex(BytesView(hmac_sha256(key, fl::to_bytes(msg)))),
              "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(HmacTest, KeySensitivity) {
    EXPECT_NE(hmac_sha256("key1", "msg"), hmac_sha256("key2", "msg"));
}

TEST(HmacTest, MessageSensitivity) {
    EXPECT_NE(hmac_sha256("key", "msg1"), hmac_sha256("key", "msg2"));
}

TEST(HmacTest, ExactBlockSizeKey) {
    const Bytes key(64, 0x42);
    const Digest a = hmac_sha256(key, fl::to_bytes("data"));
    const Digest b = hmac_sha256(key, fl::to_bytes("data"));
    EXPECT_EQ(a, b);
    EXPECT_NE(a, hmac_sha256(Bytes(63, 0x42), fl::to_bytes("data")));
}

// --- HmacKey ---------------------------------------------------------------

/// RFC 2104 spelled out: H((K' ^ opad) || H((K' ^ ipad) || m)), where K' is
/// the key (hashed first when longer than a block) zero-padded to 64 bytes.
Digest rfc2104(const Bytes& key, const Bytes& message) {
    Bytes k = key.size() > 64 ? to_bytes(sha256(BytesView(key))) : key;
    k.resize(64, 0x00);
    Bytes inner;
    for (const std::uint8_t b : k) inner.push_back(b ^ 0x36);
    inner.insert(inner.end(), message.begin(), message.end());
    const Digest inner_digest = sha256(BytesView(inner));
    Bytes outer;
    for (const std::uint8_t b : k) outer.push_back(b ^ 0x5c);
    outer.insert(outer.end(), inner_digest.begin(), inner_digest.end());
    return sha256(BytesView(outer));
}

Bytes patterned(std::size_t n, std::uint8_t mul, std::uint8_t add) {
    Bytes out(n);
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = static_cast<std::uint8_t>(i * mul + add);
    }
    return out;
}

TEST(HmacKeyTest, MatchesRfc2104ConstructionAcrossKeyLengths) {
    // 131 bytes takes the hashed long-key branch; 64/65 straddle it.
    for (const std::size_t key_len : {0u, 1u, 63u, 64u, 65u, 131u}) {
        const Bytes key = patterned(key_len, 7, 3);
        const HmacKey hk{BytesView(key)};
        for (const std::size_t msg_len : {0u, 1u, 55u, 56u, 64u, 119u, 200u}) {
            const Bytes msg = patterned(msg_len, 13, 1);
            EXPECT_EQ(hk.mac(BytesView(msg)), rfc2104(key, msg))
                << "key_len=" << key_len << " msg_len=" << msg_len;
            EXPECT_EQ(hmac_sha256(BytesView(key), BytesView(msg)), rfc2104(key, msg))
                << "key_len=" << key_len << " msg_len=" << msg_len;
        }
    }
}

TEST(HmacKeyTest, ReusedKeyDoesNotCarryStateBetweenMessages) {
    const Bytes key = patterned(32, 5, 9);
    const HmacKey hk{BytesView(key)};
    std::vector<Bytes> messages;
    for (std::size_t n = 0; n < 150; n += 7) messages.push_back(patterned(n, 3, 1));

    std::vector<Digest> first;
    for (const Bytes& m : messages) first.push_back(hk.mac(BytesView(m)));
    // Same messages in reverse through the same key, then each against a
    // fresh key: a mac() that mutated the midstates would diverge here.
    for (std::size_t i = messages.size(); i-- > 0;) {
        EXPECT_EQ(hk.mac(BytesView(messages[i])), first[i]) << "message " << i;
        EXPECT_EQ(HmacKey(BytesView(key)).mac(BytesView(messages[i])), first[i]);
        EXPECT_EQ(first[i], rfc2104(key, messages[i])) << "message " << i;
    }
}

}  // namespace
}  // namespace fl::crypto
