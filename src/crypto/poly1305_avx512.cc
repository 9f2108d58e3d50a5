// Poly1305's 8-lane block core (crypto/poly1305_cores.h), the lane-parallel
// Horner form of Goll and Gueron ("Vectorization of Poly1305 Message
// Authentication Code", ITNG 2015) on AVX-512F.
//
// Each 64-bit lane holds one accumulator in five base-2^26 limbs, so every
// limb product is one vpmuludq (32x32->64) and a five-term sum of them
// stays below 2^64. Lane l absorbs blocks l, l + 8, l + 16, ...: a step is
// h·r^8 + m in every lane, one 128-byte stride of the message. The limb
// products that land at 2^130 and above wrap around with 2^130 = 5
// (mod p), hence the 5·r^8 limbs. At the end lane l is multiplied by
// r^(8-l), which lines its blocks up with their powers in the serial
// Horner sum, and the lanes are added.
//
// Bounds: the accumulator limbs enter a step below 2^28 (a carried limb
// below 2^26 + 2^10, or the caller's h below 2^27, plus a message limb
// below 2^26), r^k limbs are at most 2^26 and their 5x multiples below
// 2^29, so each product is below 2^57 and each five-term sum below 2^60.
// One carry pass brings every limb back below 2^26, except limb 1, below
// 2^26 + 2^10.
//
// Each function here carries target("avx512f") itself, whatever the
// build's -march, and has internal linkage or is the one entry point, so
// no AVX-512 code leaks into an inline function another translation unit
// might link.

#include "crypto/poly1305_cores.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

// GCC 12's avx512fintrin.h builds _mm512_mul_epu32, _mm512_srli_epi64,
// _mm512_slli_epi64 and _mm512_permutex2var_epi64 on
// _mm512_undefined_epi32(), a deliberately uninitialised pass-through
// operand that their all-ones write mask never reads. Inlined here, it
// trips -Wuninitialized and -Wmaybe-uninitialized, which -Werror builds
// fail on. These are false positives; the pragmas sit after the includes,
// so they cover this file's core and nothing else.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace prio::poly1305_cores {

#if defined(__x86_64__)
namespace {

#define PRIO_AVX512 __attribute__((target("avx512f"), always_inline)) inline

using V = __m512i;

constexpr u64 kMask26 = (u64{1} << 26) - 1;

PRIO_AVX512 V mask26() { return _mm512_set1_epi64(kMask26); }

// Eight blocks at m, block l in lane l, as five base-2^26 limbs with the
// 2^128 bit. The two loads hold the blocks' (low, high) u64 halves
// interleaved; two vpermt2q pull the low halves and the high halves apart.
PRIO_AVX512 void load_blocks(const u8* m, V out[5]) {
  const V a = _mm512_loadu_si512(m);
  const V b = _mm512_loadu_si512(m + 64);
  const V lo = _mm512_permutex2var_epi64(
      a, _mm512_set_epi64(14, 12, 10, 8, 6, 4, 2, 0), b);
  const V hi = _mm512_permutex2var_epi64(
      a, _mm512_set_epi64(15, 13, 11, 9, 7, 5, 3, 1), b);
  out[0] = _mm512_and_si512(lo, mask26());
  out[1] = _mm512_and_si512(_mm512_srli_epi64(lo, 26), mask26());
  out[2] = _mm512_and_si512(
      _mm512_or_si512(_mm512_srli_epi64(lo, 52), _mm512_slli_epi64(hi, 12)),
      mask26());
  out[3] = _mm512_and_si512(_mm512_srli_epi64(hi, 14), mask26());
  out[4] = _mm512_or_si512(_mm512_srli_epi64(hi, 40),
                           _mm512_set1_epi64(u64{1} << 24));
}

PRIO_AVX512 V mul(V a, V b) { return _mm512_mul_epu32(a, b); }
PRIO_AVX512 V add(V a, V b) { return _mm512_add_epi64(a, b); }

// h <- h·r with one carry pass. s holds 5·r limbs 1..4 (s[0] is unused).
PRIO_AVX512 void mul_carry(V h[5], const V r[5], const V s[5]) {
  const V d0 = add(add(add(mul(h[0], r[0]), mul(h[1], s[4])),
                       add(mul(h[2], s[3]), mul(h[3], s[2]))),
                   mul(h[4], s[1]));
  V d1 = add(add(add(mul(h[0], r[1]), mul(h[1], r[0])),
                 add(mul(h[2], s[4]), mul(h[3], s[3]))),
             mul(h[4], s[2]));
  V d2 = add(add(add(mul(h[0], r[2]), mul(h[1], r[1])),
                 add(mul(h[2], r[0]), mul(h[3], s[4]))),
             mul(h[4], s[3]));
  V d3 = add(add(add(mul(h[0], r[3]), mul(h[1], r[2])),
                 add(mul(h[2], r[1]), mul(h[3], r[0]))),
             mul(h[4], s[4]));
  V d4 = add(add(add(mul(h[0], r[4]), mul(h[1], r[3])),
                 add(mul(h[2], r[2]), mul(h[3], r[1]))),
             mul(h[4], r[0]));
  h[0] = _mm512_and_si512(d0, mask26());
  d1 = add(d1, _mm512_srli_epi64(d0, 26));
  h[1] = _mm512_and_si512(d1, mask26());
  d2 = add(d2, _mm512_srli_epi64(d1, 26));
  h[2] = _mm512_and_si512(d2, mask26());
  d3 = add(d3, _mm512_srli_epi64(d2, 26));
  h[3] = _mm512_and_si512(d3, mask26());
  d4 = add(d4, _mm512_srli_epi64(d3, 26));
  h[4] = _mm512_and_si512(d4, mask26());
  // The carry out of limb 4 (below 2^34) wraps to limb 0 times 5.
  const V c = _mm512_srli_epi64(d4, 26);
  h[0] = add(h[0], add(c, _mm512_slli_epi64(c, 2)));
  h[1] = add(h[1], _mm512_srli_epi64(h[0], 26));
  h[0] = _mm512_and_si512(h[0], mask26());
}

// The five limbs of the lane powers `pow` (r^pow[l] in lane l) and their
// 5x multiples.
PRIO_AVX512 void lane_powers(const u64 rpow[kX8Blocks][5],
                             const int pow[kX8Blocks], V r[5], V s[5]) {
  for (int i = 0; i < 5; ++i) {
    alignas(64) u64 limb[kX8Blocks];
    for (size_t l = 0; l < kX8Blocks; ++l) limb[l] = rpow[pow[l] - 1][i];
    r[i] = _mm512_load_si512(limb);
    s[i] = add(r[i], _mm512_slli_epi64(r[i], 2));
  }
}

}  // namespace

__attribute__((target("avx512f")))
void blocks_x8(u64 h[5], const u64 rpow[kX8Blocks][5], const u8* m,
               size_t blocks) {
  static constexpr int kStep[kX8Blocks] = {8, 8, 8, 8, 8, 8, 8, 8};
  static constexpr int kTail[kX8Blocks] = {8, 7, 6, 5, 4, 3, 2, 1};
  V r8[5], s8[5];
  lane_powers(rpow, kStep, r8, s8);

  // The first eight blocks start the lanes; h rides on lane 0's.
  V acc[5];
  load_blocks(m, acc);
  for (int i = 0; i < 5; ++i) {
    acc[i] = _mm512_mask_add_epi64(acc[i], 1, acc[i], _mm512_set1_epi64(h[i]));
  }
  for (size_t k = kX8Blocks; k < blocks; k += kX8Blocks) {
    V msg[5];
    load_blocks(m + 16 * k, msg);
    mul_carry(acc, r8, s8);
    for (int i = 0; i < 5; ++i) acc[i] = add(acc[i], msg[i]);
  }

  V rt[5], st[5];
  lane_powers(rpow, kTail, rt, st);
  mul_carry(acc, rt, st);
  // Eight lanes of limbs below 2^26 + 2^10 sum below 2^30: one serial
  // carry pass, as the vector one.
  u64 sum[5];
  for (int i = 0; i < 5; ++i) sum[i] = _mm512_reduce_add_epi64(acc[i]);
  u64 c = 0;
  for (int i = 0; i < 5; ++i) {
    sum[i] += c;
    c = sum[i] >> 26;
    h[i] = sum[i] & kMask26;
  }
  h[0] += c * 5;
  h[1] += h[0] >> 26;
  h[0] &= kMask26;
}

#undef PRIO_AVX512

#else

// No AVX-512 outside x86-64: cpu_has_avx512f() is false, so Poly1305
// never calls this.
void blocks_x8(u64*, const u64 (*)[5], const u8*, size_t) {
  __builtin_trap();
}

#endif

}  // namespace prio::poly1305_cores
