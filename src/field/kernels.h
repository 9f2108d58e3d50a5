// Structure-of-arrays bulk kernels over the Prio fields.
//
// The SNIP verification hot path is dominated by long elementwise loops
// (share expansion subtraction, accumulator merges) and by the three
// Lagrange-row inner products per (submission, server) pair. The scalar
// operators in fp64.h/fp128.h are the reference implementation; the
// kernels here are the batch entry points the pipelines call:
//
//  * vec_add_inplace / vec_sub_inplace run the branchless scalar ops in
//    straight-line loops over spans. For Fp64 every correction in the
//    scalar op is a mask or a select (sbb/cmov, no jumps), so Release
//    builds with PRIO_NATIVE_ARCH auto-vectorize them; baseline x86-64
//    has no unsigned 64-bit vector compare, so the portable build runs
//    them as scalar straight-line code.
//  * inner_product uses lazy reduction for Fp64: the 128-bit products are
//    accumulated into independent 192-bit lanes (a u128 plus an overflow
//    counter) and reduced ONCE per span instead of once per element,
//    turning N mul+reduce round-trips into N widening multiplies plus a
//    constant-size tail.
//
// Every kernel computes exactly the same field element as the scalar
// reference (tests/test_kernels.cc checks randomized and boundary-value
// equivalence for both fields), so routing a pipeline through them can
// never change an accept/reject decision.
#pragma once

#include <span>

#include "field/field.h"
#include "field/opcount.h"

namespace prio::kernels {

// a[i] -= b[i]; the share-compression form (subtract an expanded PRG share
// from the running explicit share without a temporary).
template <PrimeField F>
inline void vec_sub_inplace(std::span<F> a, std::span<const F> b) {
  require(a.size() == b.size(), "kernels::vec_sub_inplace: size mismatch");
  for (size_t i = 0; i < a.size(); ++i) a[i] -= b[i];
}

// a[i] += b[i]; accumulator merges.
template <PrimeField F>
inline void vec_add_inplace(std::span<F> a, std::span<const F> b) {
  require(a.size() == b.size(), "kernels::vec_add_inplace: size mismatch");
  for (size_t i = 0; i < a.size(); ++i) a[i] += b[i];
}

// <a, b>: generic reference path -- one mul + add (with its per-element
// reduction) per term. Fp64 overrides this below with lazy reduction.
template <PrimeField F>
inline F inner_product(std::span<const F> a, std::span<const F> b) {
  require(a.size() == b.size(), "kernels::inner_product: size mismatch");
  F acc = F::zero();
  for (size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

// Fp64 lazy-reduction inner product. Each canonical product is < p^2 <
// 2^128, so a u128 accumulator can overflow after two terms; instead of
// reducing per element we count the 2^128 wraparounds: four independent
// (u128 acc, u64 overflow) lanes hold the exact 192-bit partial sums, and
// the single reduction at the end uses 2^128 = -2^32 (mod p). Four lanes
// break the loop-carried dependency so the widening multiplies pipeline.
template <>
inline Fp64 inner_product<Fp64>(std::span<const Fp64> a,
                                std::span<const Fp64> b) {
  require(a.size() == b.size(), "kernels::inner_product: size mismatch");
  const size_t n = a.size();
  u128 acc[4] = {0, 0, 0, 0};
  u64 wraps[4] = {0, 0, 0, 0};
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (size_t l = 0; l < 4; ++l) {
      const u128 prod =
          static_cast<u128>(a[i + l].to_u64()) * b[i + l].to_u64();
      acc[l] += prod;
      wraps[l] += static_cast<u64>(acc[l] < prod);
    }
  }
  for (; i < n; ++i) {
    const u128 prod = static_cast<u128>(a[i].to_u64()) * b[i].to_u64();
    acc[0] += prod;
    wraps[0] += static_cast<u64>(acc[0] < prod);
  }
  u128 total = 0;
  u64 total_wraps = 0;
  for (size_t l = 0; l < 4; ++l) {
    total += acc[l];
    total_wraps += wraps[l] + static_cast<u64>(total < acc[l]);
  }
  opcount::bump_field_mul(n);
  // Sum = total_wraps * 2^128 + total, and 2^128 = p - 2^32 (mod p). The
  // product below stays under 2^128 because total_wraps <= n < 2^64.
  return Fp64::from_u128(total) +
         Fp64::from_u128(static_cast<u128>(total_wraps) *
                         (Fp64::kP - 0x100000000ull));
}

}  // namespace prio::kernels
