// Fp64: arithmetic in the prime field of order p = 2^64 - 2^32 + 1
// (the "Goldilocks" prime).
//
// This field plays the role of the paper's 87-bit FFT-friendly field: p - 1 =
// 2^32 * (2^32 - 1), so the multiplicative group contains a subgroup of order
// 2^32 and radix-2 NTTs of size up to 2^32 are available. The soundness error
// of a SNIP over this field is (2M+1)/|F| <= 2^-50 for circuits with up to
// M = 2^13 multiplication gates, and the servers can repeat the polynomial
// identity test to square it (Section 4.3 of the paper).
//
// Elements are stored in canonical form, i.e. as integers in [0, p).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "field/opcount.h"
#include "util/common.h"

namespace prio {

class Fp64 {
 public:
  static constexpr u64 kP = 0xFFFFFFFF00000001ull;  // 2^64 - 2^32 + 1
  static constexpr int kTwoAdicity = 32;
  static constexpr u64 kGenerator = 7;  // generates the full group F_p^*
  static constexpr size_t kByteLen = 8;
  static constexpr int kBits = 64;

  constexpr Fp64() : v_(0) {}

  // Constructs from an unsigned integer, reducing mod p.
  static constexpr Fp64 from_u64(u64 x) { return Fp64(x >= kP ? x - kP : x); }
  static Fp64 from_u128(u128 x) { return Fp64(reduce128(x)); }

  static constexpr Fp64 zero() { return Fp64(0); }
  static constexpr Fp64 one() { return Fp64(1); }

  // Canonical integer representative in [0, p).
  constexpr u64 to_u64() const { return v_; }

  friend Fp64 operator+(Fp64 a, Fp64 b) {
    // a.v_ + b.v_ < 2p < 2^65 may wrap; 2^64 = p + (2^32 - 1) mod p. The
    // carry correction is a mask, (0 - cond) & k, and the final subtract a
    // select, so GCC emits sbb/cmov rather than jumps: the NTT butterflies
    // and the bulk kernels (field/kernels.h) are straight-line code with no
    // data-dependent branches, and the kernels still vectorize. Written as
    // cond * k, GCC 12 turned these into jae/jb, so the claim is checked in
    // the Release disassembly of the butterflies, portable and with
    // PRIO_NATIVE_ARCH: NttDomain<Fp64>::coset_from_evals_scalar, and
    // ntt_avx512::coset_from_evals, which makes the same corrections with
    // AVX-512 k-masks.
    u64 r = a.v_ + b.v_;
    r += (0 - static_cast<u64>(r < a.v_)) & 0xFFFFFFFFull;  // fold 2^64
    r = r >= kP ? r - kP : r;
    return Fp64(r);
  }

  friend Fp64 operator-(Fp64 a, Fp64 b) {
    // On borrow the wrapped value is a - b + 2^64 = (a - b + p) + (2^32-1),
    // so subtracting 2^32 - 1 lands in [0, p). A mask, as above.
    u64 r = a.v_ - b.v_;
    r -= (0 - static_cast<u64>(a.v_ < b.v_)) & 0xFFFFFFFFull;
    return Fp64(r);
  }

  friend Fp64 operator*(Fp64 a, Fp64 b) {
    opcount::bump_field_mul();
    return Fp64(reduce128(static_cast<u128>(a.v_) * b.v_));
  }

  // p - v, masked to 0 when v = 0; a mask for the same reason as above.
  Fp64 operator-() const {
    return Fp64((kP - v_) & (0 - static_cast<u64>(v_ != 0)));
  }

  Fp64& operator+=(Fp64 o) { return *this = *this + o; }
  Fp64& operator-=(Fp64 o) { return *this = *this - o; }
  Fp64& operator*=(Fp64 o) { return *this = *this * o; }

  friend bool operator==(Fp64 a, Fp64 b) { return a.v_ == b.v_; }
  friend bool operator!=(Fp64 a, Fp64 b) { return a.v_ != b.v_; }

  bool is_zero() const { return v_ == 0; }

  // Exponentiation by square-and-multiply.
  Fp64 pow(u64 e) const;

  // Multiplicative inverse; requires *this != 0. Fermat: x^(p-2).
  Fp64 inv() const;

  // Primitive 2^k-th root of unity, 0 <= k <= 32.
  static Fp64 root_of_unity(int k);

  // Little-endian canonical encoding. Inline, like try_from_bytes: the
  // share encoders run it once per element.
  void to_bytes(std::span<u8> out) const {
    require(out.size() >= kByteLen, "Fp64::to_bytes: buffer too small");
    store_le64(out.data(), v_);
  }

  // Decodes the kByteLen little-endian bytes at `in`; returns false, leaving
  // *out untouched, if they encode an integer >= p. This one test serves
  // both wire parsing (a non-canonical element is malformed) and rejection
  // sampling of PRG output (a rejected sample keeps the output uniform).
  // Inline and non-throwing: the share decoders run it once per element.
  static bool try_from_bytes(const u8* in, Fp64* out) {
    const u64 v = load_le64(in);
    if (v >= kP) return false;
    *out = Fp64(v);
    return true;
  }

  std::string to_string() const;

 private:
  explicit constexpr Fp64(u64 v) : v_(v) {}

  // Reduces a 128-bit value mod p using 2^64 = 2^32 - 1 and 2^96 = -1 (mod p).
  // Every correction is a comparison-derived mask or a select, as in
  // operator+, so back-to-back reductions (Lagrange-row inner products, the
  // NTT butterflies) are straight-line code with no data-dependent
  // branches; checked the same way, in the disassembly of the butterfly.
  static constexpr u64 reduce128(u128 x) {
    u64 lo = static_cast<u64>(x);
    u64 hi = static_cast<u64>(x >> 64);
    u64 hi_hi = hi >> 32;
    u64 hi_lo = hi & 0xFFFFFFFFull;
    // x = lo + 2^64*hi_lo + 2^96*hi_hi = lo + (2^32-1)*hi_lo - hi_hi (mod p).
    // Borrow correction: the wrapped lo - hi_hi is the true value + 2^64,
    // and 2^64 = 2^32 - 1 (mod p); the wrapped value is >= p > 2^32 - 1,
    // so this second subtraction cannot underflow.
    u64 t = lo - hi_hi;
    t -= (0 - static_cast<u64>(lo < hi_hi)) & 0xFFFFFFFFull;
    u64 s = hi_lo * 0xFFFFFFFFull;  // <= (2^32-1)^2 = 2^64 - 2^33 + 1
    u64 r = t + s;
    // Overflow fold: r < 2^64 - 2^33 after a wrap, so adding 2^32 - 1
    // cannot wrap again, and the result stays < 2^64 < 2p.
    r += (0 - static_cast<u64>(r < t)) & 0xFFFFFFFFull;
    return r >= kP ? r - kP : r;
  }

  u64 v_;
};

}  // namespace prio
