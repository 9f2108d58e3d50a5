// SecureRng: the randomness source used by protocol code.
//
// Backed by a ChaCha20 keystream. Seedable deterministically (tests,
// reproducible benchmarks) or from the OS entropy pool (examples).
#pragma once

#include <array>
#include <span>

#include "crypto/chacha20.h"
#include "util/common.h"

namespace prio {

class SecureRng {
 public:
  // Deterministic: expands a 64-bit seed into a ChaCha key via fixed padding.
  explicit SecureRng(u64 seed);

  // Seeded from a full 32-byte key.
  explicit SecureRng(std::span<const u8> seed32);

  // Seeded from the OS entropy pool (/dev/urandom).
  static SecureRng from_os_entropy();

  void fill(std::span<u8> out) { prg_.fill(out); }
  u64 next_u64() { return prg_.next_u64(); }

  // Uniform value in [0, bound) by rejection sampling; bound > 0.
  u64 next_below(u64 bound);

  // Uniform field element by rejection sampling.
  template <typename F>
  F field_element() {
    u8 buf[F::kByteLen];
    for (;;) {
      prg_.fill(std::span<u8>(buf, F::kByteLen));
      F out;
      if (F::try_from_bytes(buf, &out)) return out;
    }
  }

 private:
  ChaChaPrg prg_;
};

}  // namespace prio
