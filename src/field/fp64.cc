#include "field/fp64.h"

#include <array>

namespace prio {

Fp64 Fp64::pow(u64 e) const {
  Fp64 base = *this;
  Fp64 acc = one();
  while (e != 0) {
    if (e & 1) acc *= base;
    base *= base;
    e >>= 1;
  }
  return acc;
}

Fp64 Fp64::inv() const {
  require(!is_zero(), "Fp64::inv: zero has no inverse");
  opcount::bump_field_inv();
  return pow(kP - 2);
}

Fp64 Fp64::root_of_unity(int k) {
  require(k >= 0 && k <= kTwoAdicity, "Fp64::root_of_unity: bad order");
  // g^((p-1) / 2^32) is a primitive 2^32-th root; square down to order 2^k.
  // Computed once and cached.
  static const std::array<Fp64, kTwoAdicity + 1> kRoots = [] {
    std::array<Fp64, kTwoAdicity + 1> roots{};
    Fp64 w = from_u64(kGenerator).pow((kP - 1) >> kTwoAdicity);
    roots[kTwoAdicity] = w;
    for (int i = kTwoAdicity - 1; i >= 0; --i) {
      roots[i] = roots[i + 1] * roots[i + 1];
    }
    return roots;
  }();
  return kRoots[k];
}

std::string Fp64::to_string() const { return std::to_string(v_); }

}  // namespace prio
