// Common small utilities shared by every Prio module.
#pragma once

#include <bit>
#include <cstdint>
#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <string>

namespace prio {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using u128 = unsigned __int128;
using i64 = std::int64_t;

// Throws std::invalid_argument when a caller-supplied precondition fails.
// Used at public API boundaries; internal invariants use assert().
inline void require(bool cond, const char* msg) {
  if (!cond) throw std::invalid_argument(msg);
}

// Little-endian u64 from 8 bytes at any alignment: one load on
// little-endian hosts, where a shift-or loop over the bytes is not always
// merged into one.
inline u64 load_le64(const u8* p) {
  u64 v = 0;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

// Round x up to the next power of two (x must be >= 1).
constexpr u64 next_pow2(u64 x) {
  u64 n = 1;
  while (n < x) n <<= 1;
  return n;
}

constexpr int log2_exact(u64 x) {
  int k = 0;
  while ((u64{1} << k) < x) ++k;
  return k;
}

}  // namespace prio
