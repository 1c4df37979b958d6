// SHA-256 compression with the x86 SHA extensions (SHA-NI).
//
// The state lives in two registers in the order the sha256rnds2 instruction
// wants (ABEF, CDGH).  Each 4-round group adds its round constants to four
// message words and runs two rnds2 steps; sha256msg1/msg2 extend the message
// schedule three and one groups ahead.  The functions carry their own target
// attribute, so the rest of the library builds for the baseline ISA and this
// code only runs after sha_ni_supported() said yes.
#include "crypto/sha256_kernels.h"

#if defined(__x86_64__)

#include <immintrin.h>

#include <utility>

namespace fl::crypto::detail {

namespace {

/// Rounds 4G..4G+3.  w[G % 4] holds message words 4G..4G+3 on entry.
template <int G>
__attribute__((target("sha,sse4.1"), always_inline)) inline void four_rounds(
    __m128i& abef, __m128i& cdgh, __m128i (&w)[4], const std::uint8_t* block,
    __m128i byte_swap) {
    if constexpr (G < 4) {
        w[G] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * G)),
            byte_swap);
    }
    const __m128i k =
        _mm_load_si128(reinterpret_cast<const __m128i*>(kSha256RoundConstants + 4 * G));
    __m128i msg = _mm_add_epi32(w[G % 4], k);
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
    if constexpr (G >= 3 && G <= 14) {
        // Finish words 4(G+1)..4(G+1)+3, started by msg1 three groups ago.
        __m128i& next = w[(G + 1) % 4];
        next = _mm_add_epi32(next, _mm_alignr_epi8(w[G % 4], w[(G + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, w[G % 4]);
    }
    msg = _mm_shuffle_epi32(msg, 0x0E);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, msg);
    if constexpr (G >= 1 && G <= 12) {
        // Start words 4(G+3)..4(G+3)+3.
        w[(G + 3) % 4] = _mm_sha256msg1_epu32(w[(G + 3) % 4], w[G % 4]);
    }
}

template <int... G>
__attribute__((target("sha,sse4.1"), always_inline)) inline void all_rounds(
    __m128i& abef, __m128i& cdgh, const std::uint8_t* block, __m128i byte_swap,
    std::integer_sequence<int, G...>) {
    __m128i w[4];
    (four_rounds<G>(abef, cdgh, w, block, byte_swap), ...);
}

}  // namespace

__attribute__((target("sha,sse4.1"))) void sha256_compress_shani(
    std::uint32_t* state, const std::uint8_t* blocks, std::size_t n_blocks) {
    const __m128i byte_swap =
        _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

    // state = A B C D | E F G H (lane 0 first) -> abef = F E B A, cdgh = H G D C.
    __m128i dcba = _mm_shuffle_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
    __m128i hgfe = _mm_shuffle_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
    __m128i abef = _mm_alignr_epi8(dcba, hgfe, 8);
    __m128i cdgh = _mm_blend_epi16(hgfe, dcba, 0xF0);

    for (; n_blocks > 0; --n_blocks, blocks += 64) {
        const __m128i abef_in = abef;
        const __m128i cdgh_in = cdgh;
        all_rounds(abef, cdgh, blocks, byte_swap,
                   std::make_integer_sequence<int, 16>{});
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
    const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                     _mm_blend_epi16(feba, dchg, 0xF0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                     _mm_alignr_epi8(dchg, feba, 8));
}

bool sha_ni_supported() {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
}

}  // namespace fl::crypto::detail

#endif  // defined(__x86_64__)
