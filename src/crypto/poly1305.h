// Poly1305 one-time authenticator (RFC 8439 §2.5).
#pragma once

#include <array>
#include <span>

#include "util/common.h"

namespace prio {

class Poly1305 {
 public:
  static constexpr size_t kKeyLen = 32;
  static constexpr size_t kTagLen = 16;

  explicit Poly1305(std::span<const u8> key32);

  Poly1305& update(std::span<const u8> data);
  std::array<u8, kTagLen> finalize();

  static std::array<u8, kTagLen> mac(std::span<const u8> key32,
                                     std::span<const u8> data);

 private:
  // The 2^128 bit appended to every whole 16-byte block, in limb 2.
  static constexpr u64 kHibit = u64{1} << 40;

  // Absorbs the whole 16-byte blocks in `bytes` (a multiple of 16), each
  // with `hibit` (kHibit, or 0 for the padded final partial block): four
  // blocks per multiply-and-carry pass while 64 bytes remain, then one.
  void process_blocks(const u8* m, size_t bytes, u64 hibit);

  // Accumulator and the powers r^1..r^4 of the clamped r in 44/44/42-bit
  // limbs, so each limb product fits a u128 with room for the sums;
  // rs_[k] holds 20 times limbs 1 and 2 of r^(k+1) (see process_blocks).
  // s in two u64 words.
  u64 r_[4][3];
  u64 rs_[4][2];
  u64 h_[3];
  u64 pad_[2];
  std::array<u8, 16> buf_;
  size_t buf_len_;
};

// Constant-time tag comparison.
bool tags_equal(std::span<const u8> a, std::span<const u8> b);

}  // namespace prio
