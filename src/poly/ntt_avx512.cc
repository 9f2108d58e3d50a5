// NttDomain<Fp64>::coset_from_evals on eight Fp64 lanes: the scalar
// kernel's schedule (poly/ntt.h), a decimation-in-frequency inverse, the
// twist multiply and a decimation-in-time forward transform, with every
// field operation applied to eight elements at once.
//
// The arithmetic mod p = 2^64 - 2^32 + 1 is Fp64's, step for step. Every
// carry, borrow and final subtraction is a k-mask correction (an unsigned
// vpcmpuq into a mask register, then a masked add or subtract) or an
// unsigned min, so, like the scalar butterflies, the loops hold no
// data-dependent jump. AVX-512F has no 64x64->128 multiply: each product
// is four 32x32->64 vpmuludq, then fp64.h's reduction.
//
// Stages of half-length h >= 16 run over memory, eight butterflies per
// step. The last four inverse stages (h = 8, 4, 2, 1), the twist and the
// first four forward stages stay inside one 16-element block held in two
// registers: for stage h the block is regrouped with vpermt2q into u (the
// first half of every 2h-run) and v (the second half), so each stage is
// one lane-wise butterfly on (u, v).
//
// Each function here carries target("avx512f") itself, whatever the
// build's -march, and has internal linkage or is the one entry point, so
// no AVX-512 code leaks into an inline function another translation unit
// might link.

#include "poly/ntt_avx512.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

// GCC 12's avx512fintrin.h builds _mm512_mul_epu32, _mm512_srli_epi64,
// _mm512_slli_epi64, _mm512_min_epu64 and _mm512_permutexvar_epi64 on
// _mm512_undefined_epi32(), a deliberately uninitialised pass-through
// operand that their all-ones write mask never reads. Inlined here, it
// trips -Wmaybe-uninitialized, which -Werror builds fail on. These are
// false positives; the pragma sits after the includes, so it covers this
// file's kernel and nothing else.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace prio::ntt_avx512 {

#if defined(__x86_64__)
namespace {

static_assert(sizeof(Fp64) == 8, "Fp64 must be one u64, loaded eight a time");

#define PRIO_AVX512 __attribute__((target("avx512f"), always_inline)) inline

using V = __m512i;

PRIO_AVX512 V lo32() { return _mm512_set1_epi64(0xFFFFFFFFll); }
PRIO_AVX512 V prime() {
  return _mm512_set1_epi64(static_cast<long long>(Fp64::kP));
}

PRIO_AVX512 V load(const Fp64* p) { return _mm512_loadu_si512(p); }
PRIO_AVX512 void store(Fp64* p, V x) { _mm512_storeu_si512(p, x); }

// x or x - p, whichever is in [0, p): for x < p, x - p wraps to
// x + 2^32 - 1, which is above x (x < 2^64 - 2^32 + 1), so the unsigned
// min picks x; for p <= x < 2p it picks x - p.
PRIO_AVX512 V canonical(V x) {
  return _mm512_min_epu64(x, _mm512_sub_epi64(x, prime()));
}

// Fp64's operator+: a wrapped sum is below a, and 2^64 = 2^32 - 1 (mod p)
// folds the carry back in.
PRIO_AVX512 V add(V a, V b) {
  const V s = _mm512_add_epi64(a, b);
  return canonical(
      _mm512_mask_add_epi64(s, _mm512_cmplt_epu64_mask(s, a), s, lo32()));
}

// Fp64's operator-: on borrow the wrapped a - b is 2^32 - 1 too high.
PRIO_AVX512 V sub(V a, V b) {
  const V d = _mm512_sub_epi64(a, b);
  return _mm512_mask_sub_epi64(d, _mm512_cmplt_epu64_mask(a, b), d, lo32());
}

// Fp64's operator*. The 128-bit product hi:lo is built from four 32x32
// products; each is at most (2^32 - 1)^2, so the column sums below cannot
// wrap. Then reduce128: hi:lo = lo + (2^32 - 1) * hi_lo - hi_hi (mod p).
PRIO_AVX512 V mul(V a, V b) {
  const V a_hi = _mm512_srli_epi64(a, 32);
  const V b_hi = _mm512_srli_epi64(b, 32);
  const V ll = _mm512_mul_epu32(a, b);
  const V lh = _mm512_mul_epu32(a, b_hi);
  const V hl = _mm512_mul_epu32(a_hi, b);
  const V hh = _mm512_mul_epu32(a_hi, b_hi);
  const V mid = _mm512_add_epi64(hl, _mm512_srli_epi64(ll, 32));
  const V mid2 = _mm512_add_epi64(lh, _mm512_and_si512(mid, lo32()));
  const V lo = _mm512_or_si512(_mm512_slli_epi64(mid2, 32),
                               _mm512_and_si512(ll, lo32()));
  const V hi = _mm512_add_epi64(
      hh, _mm512_add_epi64(_mm512_srli_epi64(mid, 32),
                           _mm512_srli_epi64(mid2, 32)));

  const V hi_hi = _mm512_srli_epi64(hi, 32);
  const V hi_lo = _mm512_and_si512(hi, lo32());
  V t = _mm512_sub_epi64(lo, hi_hi);
  t = _mm512_mask_sub_epi64(t, _mm512_cmplt_epu64_mask(lo, hi_hi), t, lo32());
  const V s = _mm512_sub_epi64(_mm512_slli_epi64(hi_lo, 32), hi_lo);
  const V r = _mm512_add_epi64(t, s);
  return canonical(
      _mm512_mask_add_epi64(r, _mm512_cmplt_epu64_mask(r, t), r, lo32()));
}

// Gentleman-Sande: (u, v) -> (u + v, (u - v) * w).
PRIO_AVX512 void dif(V& u, V& v, V w) {
  const V d = sub(u, v);
  u = add(u, v);
  v = mul(d, w);
}

// Cooley-Tukey: (u, v) -> (u + v * w, u - v * w).
PRIO_AVX512 void dit(V& u, V& v, V w) {
  const V t = mul(v, w);
  v = sub(u, t);
  u = add(u, t);
}

// Where position p (0..15) of a 16-element block sits when the block is
// split for the stage of half-length k: indices 0-7 are u's lanes, 8-15
// v's. k = 8 is the natural order (u the first eight, v the last).
constexpr int slot(int k, int p) {
  return (p % (2 * k) < k ? 0 : 8) + p / (2 * k) * k + p % k;
}

struct Indices {
  alignas(64) long long u[8];
  alignas(64) long long v[8];
};

// vpermt2q indices that move a block split for half-length `from` to the
// split for `to`.
constexpr Indices regrouping(int from, int to) {
  Indices ix{};
  for (int p = 0; p < 16; ++p) {
    const int q = slot(to, p);
    (q < 8 ? ix.u[q] : ix.v[q - 8]) = slot(from, p);
  }
  return ix;
}

template <int From, int To>
PRIO_AVX512 void regroup(V& u, V& v) {
  static constexpr Indices kIx = regrouping(From, To);
  const V nu = _mm512_permutex2var_epi64(u, _mm512_load_si512(kIx.u), v);
  v = _mm512_permutex2var_epi64(u, _mm512_load_si512(kIx.v), v);
  u = nu;
}

// Stage H's twiddles (stage[H .. 2H)) laid out for the split block: lane l
// of u and of v pairs with twiddle l mod H.
template <int H>
PRIO_AVX512 V split_twiddles(const Fp64* stage) {
  static constexpr Indices kIx = [] {
    Indices ix{};
    for (int l = 0; l < 8; ++l) ix.u[l] = l % H;
    return ix;
  }();
  return _mm512_permutexvar_epi64(_mm512_load_si512(kIx.u), load(stage + H));
}

#undef PRIO_AVX512

}  // namespace

__attribute__((target("avx512f"))) void coset_from_evals(
    Fp64* a, size_t n, const Fp64* inv_stage, const Fp64* twist,
    const Fp64* fwd_stage) {
  // Inverse stages over memory, h = n/2 down to 16.
  for (size_t h = n / 2; h >= 16; h /= 2) {
    for (size_t i = 0; i < n; i += 2 * h) {
      for (size_t j = 0; j < h; j += 8) {
        V u = load(a + i + j), v = load(a + i + j + h);
        dif(u, v, load(inv_stage + h + j));
        store(a + i + j, u);
        store(a + i + j + h, v);
      }
    }
  }

  // Inverse h = 8..1, twist, forward h = 1..8, one block at a time.
  const V inv8 = load(inv_stage + 8), fwd8 = load(fwd_stage + 8);
  const V inv4 = split_twiddles<4>(inv_stage);
  const V inv2 = split_twiddles<2>(inv_stage);
  const V inv1 = split_twiddles<1>(inv_stage);
  const V fwd4 = split_twiddles<4>(fwd_stage);
  const V fwd2 = split_twiddles<2>(fwd_stage);
  const V fwd1 = split_twiddles<1>(fwd_stage);
  for (size_t b = 0; b < n; b += 16) {
    V u = load(a + b), v = load(a + b + 8);
    dif(u, v, inv8);
    regroup<8, 4>(u, v);
    dif(u, v, inv4);
    regroup<4, 2>(u, v);
    dif(u, v, inv2);
    regroup<2, 1>(u, v);
    dif(u, v, inv1);
    V tu = load(twist + b), tv = load(twist + b + 8);
    regroup<8, 1>(tu, tv);
    u = mul(u, tu);
    v = mul(v, tv);
    dit(u, v, fwd1);
    regroup<1, 2>(u, v);
    dit(u, v, fwd2);
    regroup<2, 4>(u, v);
    dit(u, v, fwd4);
    regroup<4, 8>(u, v);
    dit(u, v, fwd8);
    store(a + b, u);
    store(a + b + 8, v);
  }

  // Forward stages over memory, h = 16 up to n/2.
  for (size_t h = 16; h < n; h *= 2) {
    for (size_t i = 0; i < n; i += 2 * h) {
      for (size_t j = 0; j < h; j += 8) {
        V u = load(a + i + j), v = load(a + i + j + h);
        dit(u, v, load(fwd_stage + h + j));
        store(a + i + j, u);
        store(a + i + j + h, v);
      }
    }
  }
}

#else

// No AVX-512 outside x86-64: cpu_has_avx512f() is false, so NttDomain
// never calls this.
void coset_from_evals(Fp64*, size_t, const Fp64*, const Fp64*,
                      const Fp64*) {
  __builtin_trap();
}

#endif

}  // namespace prio::ntt_avx512
