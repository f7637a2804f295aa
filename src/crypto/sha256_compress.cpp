#include "crypto/sha256_compress.hpp"

#if COP_SHA256_HAVE_SHANI
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace copbft::crypto::detail {
namespace {

// 16-byte aligned so the SHA-NI rounds can load four constants at a time
// with aligned loads.
alignas(16) constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

inline std::uint32_t load32_be(const Byte* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

CompressFn& active_slot() {
#if COP_SHA256_HAVE_SHANI
  static CompressFn fn = shani_supported() ? compress_shani : compress_scalar;
#else
  static CompressFn fn = compress_scalar;
#endif
  return fn;
}

}  // namespace

void compress_scalar(std::uint32_t state[8], const Byte* data,
                     std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (std::size_t i = 0; i < 16; ++i) w[i] = load32_be(data + 4 * i);
    for (int i = 16; i < 64; ++i) {
      std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      std::uint32_t ch = (e & f) ^ (~e & g);
      std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      std::uint32_t temp2 = s0 + maj;
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

#if COP_SHA256_HAVE_SHANI

// The SHA extensions keep the state as two vectors, ABEF and CDGH, and run
// two rounds per sha256rnds2, so each group of four message words feeds
// four rounds. The schedule is 16 groups W[0..15]: the first four are the
// block, byte-swapped; group j >= 4 is sha256msg2(sha256msg1(W[j-4],
// W[j-3]) + alignr(W[j-1], W[j-2]), W[j-1]). Only four groups are live:
// group g+1 is formed during the rounds of group g, in the slot of W[g-3],
// which sha256msg1 mixed with W[g-2] as soon as that group existed.
__attribute__((target("sha,sse4.1"))) void compress_shani(
    std::uint32_t state[8], const Byte* data, std::size_t blocks) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];

#pragma GCC unroll 16
    for (std::size_t g = 0; g < 16; ++g) {
      if (g < 4) {
        w[g] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
            kByteSwap);
      }
      __m128i wk = _mm_add_epi32(
          w[g & 3],
          _mm_load_si128(reinterpret_cast<const __m128i*>(kK + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (g >= 3 && g < 15) {
        // Word group g+1 replaces W[g-3], which sha256msg1 already mixed.
        __m128i& next = w[(g + 1) & 3];
        next = _mm_add_epi32(next,
                             _mm_alignr_epi8(w[g & 3], w[(g - 1) & 3], 4));
        next = _mm_sha256msg2_epu32(next, w[g & 3]);
      }
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
      if (g >= 1 && g < 13)
        w[(g - 1) & 3] = _mm_sha256msg1_epu32(w[(g - 1) & 3], w[g & 3]);
    }

    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

bool shani_supported() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_max(0, nullptr) < 7) return false;
  __get_cpuid(1, &eax, &ebx, &ecx, &edx);
  const bool ssse3 = (ecx & bit_SSSE3) != 0;
  const bool sse41 = (ecx & bit_SSE4_1) != 0;
  __cpuid_count(7, 0, eax, ebx, ecx, edx);
  const bool sha = (ebx & bit_SHA) != 0;
  return sha && ssse3 && sse41;
}

#else

bool shani_supported() { return false; }

#endif  // COP_SHA256_HAVE_SHANI

CompressFn active_compress() { return active_slot(); }

const char* active_compress_name() {
  return active_slot() == compress_scalar ? "scalar" : "shani";
}

ScopedCompress::ScopedCompress(CompressFn fn) : saved_(active_slot()) {
  active_slot() = fn;
}

ScopedCompress::~ScopedCompress() { active_slot() = saved_; }

}  // namespace copbft::crypto::detail
