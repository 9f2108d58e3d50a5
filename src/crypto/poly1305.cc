#include "crypto/poly1305.h"

#include <cstring>

namespace prio {

namespace {

constexpr u64 kMask44 = (u64{1} << 44) - 1;
constexpr u64 kMask42 = (u64{1} << 42) - 1;

}  // namespace

Poly1305::Poly1305(std::span<const u8> key32) : buf_len_(0) {
  require(key32.size() == kKeyLen, "Poly1305: key must be 32 bytes");
  const u8* key = key32.data();
  // r with the RFC clamp, split into 44/44/42-bit limbs.
  u64 t0 = load_le64(key);
  u64 t1 = load_le64(key + 8);
  r_[0] = t0 & 0xffc0fffffffull;
  r_[1] = ((t0 >> 44) | (t1 << 20)) & 0xfffffc0ffffull;
  r_[2] = (t1 >> 24) & 0x00ffffffc0full;
  h_[0] = h_[1] = h_[2] = 0;
  pad_[0] = load_le64(key + 16);
  pad_[1] = load_le64(key + 24);
}

void Poly1305::process_blocks(const u8* m, size_t bytes, u64 hibit) {
  const u64 r0 = r_[0], r1 = r_[1], r2 = r_[2];
  // Limb products that land at 2^132 and above wrap around with
  // 2^130 = 5 (mod p), times the 2^2 by which 88 + 44 overshoots 130.
  const u64 s1 = r1 * (5 << 2), s2 = r2 * (5 << 2);
  u64 h0 = h_[0], h1 = h_[1], h2 = h_[2];
  for (; bytes >= 16; m += 16, bytes -= 16) {
    u64 t0 = load_le64(m);
    u64 t1 = load_le64(m + 8);
    h0 += t0 & kMask44;
    h1 += ((t0 >> 44) | (t1 << 20)) & kMask44;
    h2 += ((t1 >> 24) & kMask42) | hibit;

    u128 d0 = static_cast<u128>(h0) * r0 + static_cast<u128>(h1) * s2 +
              static_cast<u128>(h2) * s1;
    u128 d1 = static_cast<u128>(h0) * r1 + static_cast<u128>(h1) * r0 +
              static_cast<u128>(h2) * s2;
    u128 d2 = static_cast<u128>(h0) * r2 + static_cast<u128>(h1) * r1 +
              static_cast<u128>(h2) * r0;

    u64 c = static_cast<u64>(d0 >> 44);
    h0 = static_cast<u64>(d0) & kMask44;
    d1 += c;
    c = static_cast<u64>(d1 >> 44);
    h1 = static_cast<u64>(d1) & kMask44;
    d2 += c;
    c = static_cast<u64>(d2 >> 42);
    h2 = static_cast<u64>(d2) & kMask42;
    h0 += c * 5; c = h0 >> 44; h0 &= kMask44;
    h1 += c;
  }
  h_[0] = h0;
  h_[1] = h1;
  h_[2] = h2;
}

Poly1305& Poly1305::update(std::span<const u8> data) {
  if (data.empty()) return *this;  // keep memcpy away from a null span
  const u8* p = data.data();
  size_t n = data.size();
  if (buf_len_ > 0) {
    size_t take = std::min(n, buf_.size() - buf_len_);
    std::memcpy(buf_.data() + buf_len_, p, take);
    buf_len_ += take;
    p += take;
    n -= take;
    if (buf_len_ < 16) return *this;
    process_blocks(buf_.data(), 16, kHibit);
    buf_len_ = 0;
  }
  const size_t whole = n & ~size_t{15};
  process_blocks(p, whole, kHibit);
  if (n > whole) {
    std::memcpy(buf_.data(), p + whole, n - whole);
    buf_len_ = n - whole;
  }
  return *this;
}

std::array<u8, Poly1305::kTagLen> Poly1305::finalize() {
  if (buf_len_ > 0) {
    u8 block[16] = {0};
    std::memcpy(block, buf_.data(), buf_len_);
    block[buf_len_] = 1;
    process_blocks(block, 16, 0);
  }
  // Full carry propagation, then compute h + -p and select. process_blocks
  // leaves h0 < 2^44, h1 < 2^44 + 2^8 and h2 < 2^42, so one pass leaves
  // every limb within its width: h1 can take the last carry only if its
  // own carry emptied it.
  u64 h0 = h_[0], h1 = h_[1], h2 = h_[2];
  u64 c = h1 >> 44; h1 &= kMask44;
  h2 += c; c = h2 >> 42; h2 &= kMask42;
  h0 += c * 5; c = h0 >> 44; h0 &= kMask44;
  h1 += c;

  u64 g0 = h0 + 5; c = g0 >> 44; g0 &= kMask44;
  u64 g1 = h1 + c; c = g1 >> 44; g1 &= kMask44;
  u64 g2 = h2 + c - (u64{1} << 42);

  u64 mask = (g2 >> 63) - 1;  // all-ones if h >= p
  h0 = (h0 & ~mask) | (g0 & mask);
  h1 = (h1 & ~mask) | (g1 & mask);
  h2 = (h2 & ~mask) | (g2 & mask);

  // h + pad (s), mod 2^128.
  h0 += pad_[0] & kMask44; c = h0 >> 44; h0 &= kMask44;
  h1 += (((pad_[0] >> 44) | (pad_[1] << 20)) & kMask44) + c;
  c = h1 >> 44; h1 &= kMask44;
  h2 += ((pad_[1] >> 24) & kMask42) + c;
  u64 f0 = h0 | (h1 << 44);
  u64 f1 = (h1 >> 20) | (h2 << 24);

  std::array<u8, kTagLen> tag;
  for (int i = 0; i < 8; ++i) {
    tag[i] = static_cast<u8>(f0 >> (8 * i));
    tag[8 + i] = static_cast<u8>(f1 >> (8 * i));
  }
  return tag;
}

std::array<u8, Poly1305::kTagLen> Poly1305::mac(std::span<const u8> key32,
                                                std::span<const u8> data) {
  Poly1305 p(key32);
  p.update(data);
  return p.finalize();
}

bool tags_equal(std::span<const u8> a, std::span<const u8> b) {
  if (a.size() != b.size()) return false;
  u8 acc = 0;
  for (size_t i = 0; i < a.size(); ++i) acc |= a[i] ^ b[i];
  return acc == 0;
}

}  // namespace prio
