#include "crypto/poly1305.h"

#include <cstring>

#include "crypto/poly1305_cores.h"
#include "util/cpu.h"

namespace prio {

namespace {

constexpr u64 kMask44 = (u64{1} << 44) - 1;
constexpr u64 kMask42 = (u64{1} << 42) - 1;
constexpr u64 kMask26 = (u64{1} << 26) - 1;

// One 16-byte block as 44/44/42-bit limbs, with `hibit` in limb 2.
inline void load_block(const u8* m, u64 hibit, u64& m0, u64& m1, u64& m2) {
  const u64 t0 = load_le64(m);
  const u64 t1 = load_le64(m + 8);
  m0 = t0 & kMask44;
  m1 = ((t0 >> 44) | (t1 << 20)) & kMask44;
  m2 = ((t1 >> 24) & kMask42) | hibit;
}

// d += a * r, unreduced. Limb products that land at 2^132 and above wrap
// around with 2^130 = 5 (mod p), times the 2^2 by which 88 + 44 overshoots
// 130: hence rs = 20 * (r1, r2).
inline void mul_add(u64 a0, u64 a1, u64 a2, const u64* r, const u64* rs,
                    u128& d0, u128& d1, u128& d2) {
  d0 += static_cast<u128>(a0) * r[0] + static_cast<u128>(a1) * rs[1] +
        static_cast<u128>(a2) * rs[0];
  d1 += static_cast<u128>(a0) * r[1] + static_cast<u128>(a1) * r[0] +
        static_cast<u128>(a2) * rs[1];
  d2 += static_cast<u128>(a0) * r[2] + static_cast<u128>(a1) * r[1] +
        static_cast<u128>(a2) * r[0];
}

// One carry pass from limb sums below 2^98 back to h0 < 2^44,
// h1 < 2^44 + 2^15 and h2 < 2^42.
inline void carry(u128 d0, u128 d1, u128 d2, u64& h0, u64& h1, u64& h2) {
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

// The carry pass above leaves h0 < 2^44, h1 < 2^44 + 2^15 and h2 < 2^42,
// so one more pass leaves every limb within its width: h1 can take the
// last carry only if its own carry emptied it.
inline void carry_limbs(u64& h0, u64& h1, u64& h2) {
  u64 c = h1 >> 44; h1 &= kMask44;
  h2 += c; c = h2 >> 42; h2 &= kMask42;
  h0 += c * 5; c = h0 >> 44; h0 &= kMask44;
  h1 += c;
}

// 44/44/42-bit limbs (limb 1 up to 2^44 + 2^15, the others within their
// widths) to five base-2^26 limbs, each below 2^26 but limb 4, which is
// at most 2^26.
inline void to_base26(const u64 h[3], u64 out[5]) {
  const u128 lo = h[0] + (static_cast<u128>(h[1]) << 44);  // bits 0..88
  out[0] = static_cast<u64>(lo) & kMask26;
  out[1] = static_cast<u64>(lo >> 26) & kMask26;
  out[2] = static_cast<u64>(lo >> 52) & kMask26;
  const u64 hi = static_cast<u64>(lo >> 78) + (h[2] << 10);  // bits 78 up
  out[3] = hi & kMask26;
  out[4] = hi >> 26;
}

// The core's base-2^26 limbs (each below 2^26, limb 1 at most 2^26) back
// to 44/44/42-bit limbs within process_blocks' entry bounds.
inline void from_base26(const u64 l[5], u64 h[3]) {
  const u128 lo = l[0] + (static_cast<u128>(l[1]) << 26) +
                  (static_cast<u128>(l[2]) << 52) +
                  (static_cast<u128>(l[3]) << 78);  // below 2^105
  h[0] = static_cast<u64>(lo) & kMask44;
  h[1] = static_cast<u64>(lo >> 44) & kMask44;
  const u64 hi = static_cast<u64>(lo >> 88) + (l[4] << 16);  // bits 88 up
  h[2] = hi & kMask42;
  // Bits 130 and up wrap around times 5; the one carry that can follow
  // leaves h1 at most 2^44.
  h[0] += (hi >> 42) * 5;
  h[1] += h[0] >> 44;
  h[0] &= kMask44;
}

}  // namespace

Poly1305::Poly1305(std::span<const u8> key32) : buf_len_(0) {
  require(key32.size() == kKeyLen, "Poly1305: key must be 32 bytes");
  const u8* key = key32.data();
  // r with the RFC clamp, split into 44/44/42-bit limbs.
  u64 t0 = load_le64(key);
  u64 t1 = load_le64(key + 8);
  r_[0][0] = t0 & 0xffc0fffffffull;
  r_[0][1] = ((t0 >> 44) | (t1 << 20)) & 0xfffffc0ffffull;
  r_[0][2] = (t1 >> 24) & 0x00ffffffc0full;
  // r^2..r^4, each limb carried within its width (not reduced mod p;
  // only the residue matters).
  for (size_t k = 0; k < 4; ++k) {
    if (k > 0) {
      u128 d0 = 0, d1 = 0, d2 = 0;
      mul_add(r_[k - 1][0], r_[k - 1][1], r_[k - 1][2], r_[0], rs_[0], d0,
              d1, d2);
      carry(d0, d1, d2, r_[k][0], r_[k][1], r_[k][2]);
      carry_limbs(r_[k][0], r_[k][1], r_[k][2]);
    }
    rs_[k][0] = r_[k][1] * (5 << 2);
    rs_[k][1] = r_[k][2] * (5 << 2);
  }
  h_[0] = h_[1] = h_[2] = 0;
  pad_[0] = load_le64(key + 16);
  pad_[1] = load_le64(key + 24);
}

void Poly1305::process_blocks_x8(const u8* m, size_t blocks) {
  if (!r26_ready_) {
    // r^5..r^8 from r^4 as the constructor builds r^2..r^4, then all
    // eight powers in base 2^26.
    u64 pow[3] = {r_[3][0], r_[3][1], r_[3][2]};
    for (size_t k = 0; k < 8; ++k) {
      if (k >= 4) {
        u128 d0 = 0, d1 = 0, d2 = 0;
        mul_add(pow[0], pow[1], pow[2], r_[0], rs_[0], d0, d1, d2);
        carry(d0, d1, d2, pow[0], pow[1], pow[2]);
        carry_limbs(pow[0], pow[1], pow[2]);
      }
      to_base26(k < 4 ? r_[k] : pow, r26_[k]);
    }
    r26_ready_ = true;
  }
  u64 h26[5];
  to_base26(h_, h26);
  poly1305_cores::blocks_x8(h26, r26_, m, blocks);
  from_base26(h26, h_);
}

void Poly1305::process_blocks(const u8* m, size_t bytes, u64 hibit) {
  // The core sets the 2^128 bit in every block; the padded final block,
  // the one block without it, is 16 bytes and never reaches the core.
  if (bytes >= kCoreMinBlocks * 16 && cpu_has_avx512f()) {
    const size_t blocks =
        bytes / 16 / poly1305_cores::kX8Blocks * poly1305_cores::kX8Blocks;
    process_blocks_x8(m, blocks);
    m += blocks * 16;
    bytes -= blocks * 16;
  }
  u64 h0 = h_[0], h1 = h_[1], h2 = h_[2];
  u64 m0, m1, m2;
  // Four blocks per carry pass: h = (h + m1)·r^4 + m2·r^3 + m3·r^2 + m4·r.
  // After the add each h limb is below 2^45 (h1 < 2^44 + 2^15 plus a
  // 44-bit block limb); each r^k limb is below 2^44, so 20·r^k is below
  // 2^49; each product is below 2^94 and the 12-term sums stay below 2^98,
  // well inside a u128 and within carry()'s bound.
  for (; bytes >= 64; m += 64, bytes -= 64) {
    u128 d0 = 0, d1 = 0, d2 = 0;
    load_block(m, hibit, m0, m1, m2);
    mul_add(h0 + m0, h1 + m1, h2 + m2, r_[3], rs_[3], d0, d1, d2);
    load_block(m + 16, hibit, m0, m1, m2);
    mul_add(m0, m1, m2, r_[2], rs_[2], d0, d1, d2);
    load_block(m + 32, hibit, m0, m1, m2);
    mul_add(m0, m1, m2, r_[1], rs_[1], d0, d1, d2);
    load_block(m + 48, hibit, m0, m1, m2);
    mul_add(m0, m1, m2, r_[0], rs_[0], d0, d1, d2);
    carry(d0, d1, d2, h0, h1, h2);
  }
  for (; bytes >= 16; m += 16, bytes -= 16) {
    u128 d0 = 0, d1 = 0, d2 = 0;
    load_block(m, hibit, m0, m1, m2);
    mul_add(h0 + m0, h1 + m1, h2 + m2, r_[0], rs_[0], d0, d1, d2);
    carry(d0, d1, d2, h0, h1, h2);
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
  // Full carry propagation, then compute h + -p and select.
  u64 h0 = h_[0], h1 = h_[1], h2 = h_[2];
  carry_limbs(h0, h1, h2);

  u64 g0 = h0 + 5; u64 c = g0 >> 44; g0 &= kMask44;
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

const char* Poly1305::core_name() {
  return cpu_has_avx512f() ? "x8-avx512" : "scalar";
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
