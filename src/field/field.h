// Field concept and helpers shared by all Prio modules.
//
// All protocol code is templated on the field type so the same SNIP/AFE
// machinery runs over the small field (Fp64, fast path, like the paper's
// 87-bit field) and the large field (Fp128, like the paper's 265-bit field).
#pragma once

#include <concepts>
#include <random>
#include <vector>

#include "field/fp128.h"
#include "field/fp64.h"

namespace prio {

template <typename F>
concept PrimeField = requires(F a, F b, F* dst, u64 x, int k,
                              std::span<u8> out, const u8* in) {
  { F::zero() } -> std::convertible_to<F>;
  { F::one() } -> std::convertible_to<F>;
  { F::from_u64(x) } -> std::convertible_to<F>;
  { a + b } -> std::convertible_to<F>;
  { a - b } -> std::convertible_to<F>;
  { a * b } -> std::convertible_to<F>;
  { a.inv() } -> std::convertible_to<F>;
  { a.is_zero() } -> std::convertible_to<bool>;
  { F::root_of_unity(k) } -> std::convertible_to<F>;
  { a.to_bytes(out) };
  { F::try_from_bytes(in, dst) } -> std::same_as<bool>;
  F::kTwoAdicity;
  F::kByteLen;
  F::kBits;
};

static_assert(PrimeField<Fp64>);
static_assert(PrimeField<Fp128>);

// Samples a uniform field element from a std:: random engine. Test/benchmark
// helper; protocol code uses the ChaCha20-based SecureRng instead.
template <PrimeField F, typename Engine>
F random_field_element(Engine& rng) {
  std::uniform_int_distribution<u64> dist;
  for (;;) {
    u8 buf[F::kByteLen];
    for (size_t i = 0; i < F::kByteLen; i += 8) {
      u64 w = dist(rng);
      for (size_t j = 0; j < 8 && i + j < F::kByteLen; ++j) {
        buf[i + j] = static_cast<u8>(w >> (8 * j));
      }
    }
    F out;
    if (F::try_from_bytes(buf, &out)) return out;
  }
}

// Sum of a vector of field elements.
template <PrimeField F>
F sum(const std::vector<F>& xs) {
  F acc = F::zero();
  for (const F& x : xs) acc += x;
  return acc;
}

}  // namespace prio
