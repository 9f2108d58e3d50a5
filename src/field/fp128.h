// Fp128: arithmetic in the prime field of order
//
//   p = 1152921504606847099 * 2^66 + 1
//     = 0x40000000000001EC0000000000000001  (~ 2^126)
//
// This field plays the role of the paper's 265-bit field: it is large enough
// that a *single* polynomial identity test gives soundness error
// (2M+1)/|F| < 2^-100 for any realistic Valid circuit, and it is FFT-friendly
// with 2-adicity 66 (p - 1 = 31 * 317 * 19309 * 6076017293 * 2^66). The
// generator of F_p^* is 3. The prime was found by searching a*2^66 + 1 for
// odd a starting at 2^60 + 1 and verifying with deterministic Miller-Rabin
// (see tests/test_field.cc, which re-checks primality witnesses).
//
// Elements are stored in Montgomery form (x * 2^128 mod p) as two 64-bit
// limbs, so a multiplication is a 2x2-limb CIOS Montgomery product. Note
// p = 1 (mod 2^64), so the Montgomery constant n0' = -p^{-1} mod 2^64 is
// simply 2^64 - 1.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "field/opcount.h"
#include "util/common.h"

namespace prio {

class Fp128 {
 public:
  static constexpr u64 kPLo = 1;
  static constexpr u64 kPHi = 0x40000000000001ECull;
  static constexpr int kTwoAdicity = 66;
  static constexpr u64 kGenerator = 3;
  static constexpr size_t kByteLen = 16;
  static constexpr int kBits = 126;

  constexpr Fp128() : lo_(0), hi_(0) {}

  static Fp128 from_u64(u64 x);
  static Fp128 from_u128(u128 x);

  static constexpr Fp128 zero() { return Fp128(); }
  static Fp128 one();

  // Canonical integer representative in [0, p).
  u128 to_u128() const;
  u64 to_u64() const;  // requires the canonical value to fit in 64 bits

  friend Fp128 operator+(Fp128 a, Fp128 b);
  friend Fp128 operator-(Fp128 a, Fp128 b);
  friend Fp128 operator*(Fp128 a, Fp128 b);
  Fp128 operator-() const;

  Fp128& operator+=(Fp128 o) { return *this = *this + o; }
  Fp128& operator-=(Fp128 o) { return *this = *this - o; }
  Fp128& operator*=(Fp128 o) { return *this = *this * o; }

  friend bool operator==(Fp128 a, Fp128 b) {
    return a.lo_ == b.lo_ && a.hi_ == b.hi_;
  }
  friend bool operator!=(Fp128 a, Fp128 b) { return !(a == b); }

  bool is_zero() const { return lo_ == 0 && hi_ == 0; }

  Fp128 pow(u128 e) const;
  Fp128 inv() const;

  // Primitive 2^k-th root of unity, 0 <= k <= 66.
  static Fp128 root_of_unity(int k);

  // Little-endian canonical (non-Montgomery) encoding, 16 bytes.
  void to_bytes(std::span<u8> out) const;

  // Decodes the kByteLen little-endian bytes at `in`; returns false, leaving
  // *out untouched, if they encode an integer >= p. Serves both wire
  // parsing and rejection sampling of PRG output, as Fp64::try_from_bytes.
  static bool try_from_bytes(const u8* in, Fp128* out) {
    const u128 v = static_cast<u128>(load_le64(in + 8)) << 64 | load_le64(in);
    if (v >= modulus()) return false;
    *out = from_u128(v);
    return true;
  }

  std::string to_string() const;

  static constexpr u128 modulus() {
    return (static_cast<u128>(kPHi) << 64) | kPLo;
  }

 private:
  constexpr Fp128(u64 lo, u64 hi) : lo_(lo), hi_(hi) {}

  static Fp128 mont_mul(Fp128 a, Fp128 b);
  static Fp128 add_raw(Fp128 a, Fp128 b);  // mod-p add on residues
  static Fp128 sub_raw(Fp128 a, Fp128 b);

  // Montgomery conversion constants (R mod p and R^2 mod p), computed once
  // at first use by repeated modular doubling. Defined in fp128.cc (nested
  // struct members of the enclosing class are complete there).
  struct Consts;
  static const Consts& consts();

  // Montgomery residue limbs, little-endian, always < p.
  u64 lo_, hi_;
};

}  // namespace prio
