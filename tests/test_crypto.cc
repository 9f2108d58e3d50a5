// Crypto substrate tests: RFC 8439 (ChaCha20, Poly1305, AEAD), FIPS 180-4
// (SHA-256), RFC 4231 (HMAC), RFC 5869 (HKDF) vectors, plus secp256k1 group
// laws and Schnorr OR-proof completeness/soundness.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <thread>

#include "crypto/aead.h"
#include "crypto/chacha20.h"
#include "crypto/chacha20_cores.h"
#include "crypto/hkdf.h"
#include "crypto/pedersen.h"
#include "crypto/poly1305.h"
#include "crypto/poly1305_cores.h"
#include "crypto/rng.h"
#include "field/field.h"
#include "crypto/schnorr_or.h"
#include "crypto/sha256.h"
#include "util/cpu.h"
#include "util/hex.h"

namespace prio {
namespace {

std::span<const u8> as_bytes(const std::string& s) {
  return {reinterpret_cast<const u8*>(s.data()), s.size()};
}

// ---------- ChaCha20 ----------

TEST(ChaCha20Test, Rfc8439BlockVector) {
  auto key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  auto nonce = from_hex("000000090000004a00000000");
  u8 out[64];
  ChaCha20::block(key, 1, nonce, out);
  EXPECT_EQ(to_hex(out),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20Test, Rfc8439EncryptionVector) {
  auto key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  auto nonce = from_hex("000000000000004a00000000");
  std::string pt =
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.";
  std::vector<u8> data(pt.begin(), pt.end());
  ChaCha20::xor_stream(key, 1, nonce, data);
  EXPECT_EQ(to_hex(data),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
  // Round-trip back to plaintext.
  ChaCha20::xor_stream(key, 1, nonce, data);
  EXPECT_EQ(std::string(data.begin(), data.end()), pt);
}

TEST(ChaCha20Test, PrgIsDeterministicAndSplits) {
  std::vector<u8> seed(32, 0x42);
  ChaChaPrg a(seed), b(seed);
  u8 buf_a[100], buf_b1[37], buf_b2[63];
  a.fill(buf_a);
  b.fill(buf_b1);
  b.fill(buf_b2);
  // Same stream regardless of read partitioning.
  EXPECT_EQ(to_hex(std::span<const u8>(buf_a, 37)), to_hex(buf_b1));
  EXPECT_EQ(to_hex(std::span<const u8>(buf_a + 37, 63)), to_hex(buf_b2));
}

TEST(ChaCha20Test, DifferentSeedsDiverge) {
  std::vector<u8> s1(32, 1), s2(32, 2);
  ChaChaPrg a(s1), b(s2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(ChaCha20Test, FillBlocksMatchesFill) {
  // The bulk path (multi-block SIMD core, direct writes) must produce the
  // same byte stream as fill() for every request size, including ones
  // around the 64-byte block, the 256-byte x4 group and the 1024-byte x16
  // group, and the 41,000-byte explicit share of a 5,120-element bulk
  // submission.
  std::vector<u8> seed(32, 0x42);
  for (size_t n : {1, 63, 64, 65, 255, 256, 257, 1023, 1024, 1025, 1279, 1280,
                   1281, 2048 + 197, 4096, 41000}) {
    ChaChaPrg a(seed), b(seed);
    std::vector<u8> ref(n), bulk(n);
    a.fill(ref);
    b.fill_blocks(bulk);
    EXPECT_EQ(to_hex(ref), to_hex(bulk)) << "n=" << n;
  }
}

TEST(ChaCha20Test, FillAndFillBlocksInterleave) {
  // Both entry points share the stream position: any interleaving walks
  // the same keystream.
  std::vector<u8> seed(32, 0x17);
  ChaChaPrg a(seed), b(seed);
  std::vector<u8> ref(1900);
  a.fill(ref);
  std::vector<u8> got;
  std::vector<u8> chunk;
  size_t sizes[] = {5, 300, 64, 7, 256, 100, 68, 1100};
  bool use_bulk = false;
  for (size_t n : sizes) {
    chunk.assign(n, 0);
    if (use_bulk) {
      b.fill_blocks(chunk);
    } else {
      b.fill(chunk);
    }
    use_bulk = !use_bulk;
    got.insert(got.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(to_hex(std::span<const u8>(ref.data(), got.size())), to_hex(got));
}

// The keystream blocks at counters counter, counter+1, ... from the scalar
// reference, concatenated.
std::vector<u8> reference_keystream(std::span<const u8> key, u32 counter,
                                    std::span<const u8> nonce, size_t blocks) {
  std::vector<u8> out(blocks * ChaCha20::kBlockLen);
  for (size_t b = 0; b < blocks; ++b) {
    ChaCha20::block(key, counter + static_cast<u32>(b), nonce,
                    std::span<u8>(out).subspan(b * ChaCha20::kBlockLen,
                                               ChaCha20::kBlockLen));
  }
  return out;
}

// Checks a multi-block core against ChaCha20::block, block by block, at
// counters 0, 1, 0xfffffff0 and 0xfffffffe (the last wraps past 2^32
// inside the call).
void expect_core_matches_block(
    void (*core)(const u8*, u32, const u8*, u8*), size_t blocks) {
  auto key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  auto nonce = from_hex("000000090000004a00000000");
  for (u32 counter : {0u, 1u, 0xfffffff0u, 0xfffffffeu}) {
    std::vector<u8> got(blocks * ChaCha20::kBlockLen);
    core(key.data(), counter, nonce.data(), got.data());
    auto want = reference_keystream(key, counter, nonce, blocks);
    for (size_t b = 0; b < blocks; ++b) {
      const size_t at = b * ChaCha20::kBlockLen;
      EXPECT_EQ(to_hex(std::span<const u8>(&want[at], ChaCha20::kBlockLen)),
                to_hex(std::span<const u8>(&got[at], ChaCha20::kBlockLen)))
          << "counter=" << counter << " block " << b;
    }
  }
}

TEST(ChaCha20Test, X4CoreMatchesBlock) {
  expect_core_matches_block(chacha20_cores::blocks_x4,
                            chacha20_cores::kX4Blocks);
}

TEST(ChaCha20Test, X16CoreMatchesBlock) {
  if (!cpu_has_avx512f()) {
    GTEST_SKIP() << "CPU lacks AVX-512F; the x16 core cannot run here";
  }
  EXPECT_STREQ(ChaCha20::core_name(), "x16-avx512");
  expect_core_matches_block(chacha20_cores::blocks_x16,
                            chacha20_cores::kX16Blocks);
}

TEST(ChaCha20Test, ConcurrentFirstUseOfXorStream) {
  // Run as its own process (one ctest per gtest case), these xor_stream
  // calls are the process's first: the core is picked while four threads
  // race to use it, and each must still get the reference keystream.
  auto key = from_hex(
      "1c9240a5eb55d38af333888604f6b5f0473917c1402b80099dca5cbc207075c0");
  auto nonce = from_hex("000000000102030405060708");
  constexpr size_t kBlocks = 41 * 16 + 3;  // x16, x4 and scalar blocks
  auto want = reference_keystream(key, 1, nonce, kBlocks);
  std::vector<std::vector<u8>> got(4, std::vector<u8>(want.size(), 0));
  std::vector<std::thread> threads;
  for (auto& g : got) {
    threads.emplace_back([&key, &nonce, &g] {
      ChaCha20::xor_stream(key, 1, nonce, g);
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& g : got) EXPECT_EQ(to_hex(want), to_hex(g));
}

// ---------- Poly1305 ----------

TEST(Poly1305Test, Rfc8439Vector) {
  auto key = from_hex(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  std::string msg = "Cryptographic Forum Research Group";
  auto tag = Poly1305::mac(key, as_bytes(msg));
  EXPECT_EQ(to_hex(tag), "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST(Poly1305Test, IncrementalMatchesOneShot) {
  auto key = from_hex(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  std::string msg = "Cryptographic Forum Research Group";
  Poly1305 inc(key);
  inc.update(as_bytes(msg).first(7));
  inc.update(as_bytes(msg).subspan(7, 20));
  inc.update(as_bytes(msg).subspan(27));
  EXPECT_EQ(to_hex(inc.finalize()), to_hex(Poly1305::mac(key, as_bytes(msg))));
}

// h reaches 2^130 - 2 >= p, so the final h + -p select must fire: with
// r = 1 and two all-0xff blocks, h = (2^128 - 1 + 2^128) + (2^128 - 1 +
// 2^128) = 2^130 - 2, which is 3 mod p. The tag is 3 + s mod 2^128.
TEST(Poly1305Test, FinalReductionVectors) {
  std::vector<u8> msg(32, 0xff);
  std::vector<u8> key(32, 0);
  key[0] = 1;
  EXPECT_EQ(to_hex(Poly1305::mac(key, msg)),
            "03000000000000000000000000000000");
  std::fill(key.begin() + 16, key.end(), 0xff);
  EXPECT_EQ(to_hex(Poly1305::mac(key, msg)),
            "02000000000000000000000000000000");
}

// The former 26-bit-limb Poly1305 (five u32 limbs, u64 products), kept here
// as an independent reference for the 44/44/42-bit implementation. Its
// state is five base-2^26 limbs, the 8-lane core's format, so the core's
// tests hand it an accumulator mid-message.
struct Ref26 {
  static u32 le32(const u8* p) {
    return static_cast<u32>(p[0]) | static_cast<u32>(p[1]) << 8 |
           static_cast<u32>(p[2]) << 16 | static_cast<u32>(p[3]) << 24;
  }

  explicit Ref26(std::span<const u8> key32) {
    std::memcpy(key, key32.data(), 32);
    u32 t0 = le32(&key[0]), t1 = le32(&key[4]), t2 = le32(&key[8]),
        t3 = le32(&key[12]);
    r0 = t0 & 0x3ffffff;
    r1 = ((t0 >> 26) | (t1 << 6)) & 0x3ffff03;
    r2 = ((t1 >> 20) | (t2 << 12)) & 0x3ffc0ff;
    r3 = ((t2 >> 14) | (t3 << 18)) & 0x3f03fff;
    r4 = (t3 >> 8) & 0x00fffff;
    s1 = r1 * 5, s2 = r2 * 5, s3 = r3 * 5, s4 = r4 * 5;
  }

  // h = (h + m)·r for the 16-byte block at b, with `hibit` as bit 128.
  void block(const u8* b, u32 hibit) {
    u32 m0 = le32(b), m1 = le32(b + 4), m2 = le32(b + 8), m3 = le32(b + 12);
    u64 h0 = h[0] + (m0 & 0x3ffffff);
    u64 h1 = h[1] + (((m0 >> 26) | (m1 << 6)) & 0x3ffffff);
    u64 h2 = h[2] + (((m1 >> 20) | (m2 << 12)) & 0x3ffffff);
    u64 h3 = h[3] + (((m2 >> 14) | (m3 << 18)) & 0x3ffffff);
    u64 h4 = h[4] + ((m3 >> 8) | (hibit << 24));
    u64 d0 = h0 * r0 + h1 * s4 + h2 * s3 + h3 * s2 + h4 * s1;
    u64 d1 = h0 * r1 + h1 * r0 + h2 * s4 + h3 * s3 + h4 * s2;
    u64 d2 = h0 * r2 + h1 * r1 + h2 * r0 + h3 * s4 + h4 * s3;
    u64 d3 = h0 * r3 + h1 * r2 + h2 * r1 + h3 * r0 + h4 * s4;
    u64 d4 = h0 * r4 + h1 * r3 + h2 * r2 + h3 * r1 + h4 * r0;
    u64 c = d0 >> 26; h0 = d0 & 0x3ffffff;
    d1 += c; c = d1 >> 26; h1 = d1 & 0x3ffffff;
    d2 += c; c = d2 >> 26; h2 = d2 & 0x3ffffff;
    d3 += c; c = d3 >> 26; h3 = d3 & 0x3ffffff;
    d4 += c; c = d4 >> 26; h4 = d4 & 0x3ffffff;
    h0 += c * 5; c = h0 >> 26; h0 &= 0x3ffffff;
    h1 += c;
    u64 hs[5] = {h0, h1, h2, h3, h4};
    for (int i = 0; i < 5; ++i) h[i] = static_cast<u32>(hs[i]);
  }

  // Absorbs the final partial block (fewer than 16 bytes, possibly none)
  // and returns the tag.
  std::array<u8, 16> finish(std::span<const u8> tail) {
    if (!tail.empty()) {
      u8 last[16] = {0};
      std::memcpy(last, tail.data(), tail.size());
      last[tail.size()] = 1;
      block(last, 0);
    }
    u32 h0 = h[0], h1 = h[1], h2 = h[2], h3 = h[3], h4 = h[4];
    u32 c = h1 >> 26; h1 &= 0x3ffffff;
    h2 += c; c = h2 >> 26; h2 &= 0x3ffffff;
    h3 += c; c = h3 >> 26; h3 &= 0x3ffffff;
    h4 += c; c = h4 >> 26; h4 &= 0x3ffffff;
    h0 += c * 5; c = h0 >> 26; h0 &= 0x3ffffff;
    h1 += c;
    u32 g0 = h0 + 5; c = g0 >> 26; g0 &= 0x3ffffff;
    u32 g1 = h1 + c; c = g1 >> 26; g1 &= 0x3ffffff;
    u32 g2 = h2 + c; c = g2 >> 26; g2 &= 0x3ffffff;
    u32 g3 = h3 + c; c = g3 >> 26; g3 &= 0x3ffffff;
    u32 g4 = h4 + c - (1u << 26);
    u32 mask = (g4 >> 31) - 1;
    h0 = (h0 & ~mask) | (g0 & mask);
    h1 = (h1 & ~mask) | (g1 & mask);
    h2 = (h2 & ~mask) | (g2 & mask);
    h3 = (h3 & ~mask) | (g3 & mask);
    h4 = (h4 & ~mask) | (g4 & mask);
    u32 f[4] = {h0 | (h1 << 26), (h1 >> 6) | (h2 << 20),
                (h2 >> 12) | (h3 << 14), (h3 >> 18) | (h4 << 8)};
    std::array<u8, 16> tag;
    u64 t = 0;
    for (int i = 0; i < 4; ++i) {
      t = static_cast<u64>(f[i]) + le32(&key[16 + 4 * i]) + (t >> 32);
      for (int j = 0; j < 4; ++j) {
        tag[4 * i + j] = static_cast<u8>(t >> (8 * j));
      }
    }
    return tag;
  }

  u8 key[32];
  u64 r0, r1, r2, r3, r4, s1, s2, s3, s4;
  u32 h[5] = {0, 0, 0, 0, 0};
};

std::array<u8, 16> poly1305_ref26(std::span<const u8> key,
                                  std::span<const u8> msg) {
  Ref26 ref(key);
  size_t off = 0;
  for (; off + 16 <= msg.size(); off += 16) ref.block(msg.data() + off, 1);
  return ref.finish(msg.subspan(off));
}

TEST(Poly1305Test, MatchesRef26OnRandomKeysLengthsAndSplits) {
  std::mt19937_64 rng(1305);
  auto random_bytes = [&](size_t n) {
    std::vector<u8> b(n);
    for (auto& x : b) x = static_cast<u8>(rng());
    return b;
  };
  // The reference itself reproduces the RFC 8439 §2.5.2 tag.
  auto rfc_key = from_hex(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  EXPECT_EQ(to_hex(poly1305_ref26(
                rfc_key, as_bytes("Cryptographic Forum Research Group"))),
            "a8061dc1305136c6c22b8baf0c0127a9");
  std::vector<u8> max_r(32, 0xff);  // every r bit the clamp leaves set
  // Lengths past 1,024 B run up to 17 passes of the four-block loop, with
  // every 0..3-block and partial-block tail after it.
  for (size_t len = 0; len <= 1100; len += len < 300 ? 1 : 7) {
    for (int trial = 0; trial < 4; ++trial) {
      auto key = trial == 0 ? max_r : random_bytes(32);
      auto msg = trial == 1 ? std::vector<u8>(len, 0xff) : random_bytes(len);
      const auto want = poly1305_ref26(key, msg);
      EXPECT_EQ(to_hex(Poly1305::mac(key, msg)), to_hex(want))
          << "len=" << len << " trial=" << trial;
      // The same message through 1..4 update() calls at random split
      // points, including empty pieces.
      Poly1305 inc(key);
      size_t off = 0;
      for (int piece = static_cast<int>(rng() % 4); piece > 0; --piece) {
        size_t n = len == off ? 0 : rng() % (len - off + 1);
        inc.update(std::span<const u8>(msg).subspan(off, n));
        off += n;
      }
      inc.update(std::span<const u8>(msg).subspan(off));
      EXPECT_EQ(to_hex(inc.finalize()), to_hex(want))
          << "split len=" << len << " trial=" << trial;
    }
  }
  // update() pieces that leave 1..15 bytes in the block buffer, so the
  // next piece finishes that block and enters the four-block loop from
  // there, then leaves its own partial block behind.
  for (size_t head = 1; head < 16; ++head) {
    for (size_t mid : {size_t{64}, size_t{80}, size_t{127}, size_t{256}}) {
      auto key = random_bytes(32);
      auto msg = random_bytes(head + mid + 70);
      Poly1305 inc(key);
      inc.update(std::span<const u8>(msg).first(head));
      inc.update(std::span<const u8>(msg).subspan(head, mid));
      inc.update(std::span<const u8>(msg).subspan(head + mid));
      EXPECT_EQ(to_hex(inc.finalize()), to_hex(poly1305_ref26(key, msg)))
          << "head=" << head << " mid=" << mid;
    }
  }
  // All-0xff messages under the maximal r and an all-0xff s, the largest
  // accumulator and tag carries either implementation can see: over
  // several 64-byte groups the four-block sums come closest to their bound.
  std::vector<u8> all_ff(32, 0xff);
  for (size_t len : {size_t{15}, size_t{16}, size_t{17}, size_t{64},
                     size_t{65}, size_t{127}, size_t{128}, size_t{192},
                     size_t{256}, size_t{320}, size_t{1024}, size_t{4096}}) {
    std::vector<u8> msg(len, 0xff);
    EXPECT_EQ(to_hex(Poly1305::mac(all_ff, msg)),
              to_hex(poly1305_ref26(all_ff, msg)))
        << "len=" << len;
  }
}

// The tag of msg through the scalar code alone, on any CPU: update()
// pieces of 15 whole blocks stay below the core's 16-block threshold.
std::array<u8, 16> poly1305_scalar(std::span<const u8> key,
                                   std::span<const u8> msg) {
  Poly1305 p(key);
  for (size_t off = 0; off < msg.size(); off += 240) {
    p.update(msg.subspan(off, std::min<size_t>(240, msg.size() - off)));
  }
  return p.finalize();
}

// The tag of msg with its first `pre` whole blocks absorbed by Ref26, the
// largest multiple of eight of the whole blocks after them by the 8-lane
// core, called directly, and the rest by Ref26 again: the core starts
// from Ref26's accumulator, nonzero for pre > 0, and hands its own back.
std::array<u8, 16> poly1305_via_x8_core(std::span<const u8> key,
                                        std::span<const u8> msg,
                                        size_t pre) {
  using poly1305_cores::kX8Blocks;
  Ref26 ref(key);
  // r^1..r^8 from Ref26's own multiply, (h + 0)·r from h = 1, with one
  // more carry pass so every limb is at most 2^26.
  u64 rpow[kX8Blocks][5];
  {
    Ref26 pw(key);
    pw.h[0] = 1;
    const u8 zero[16] = {0};
    for (size_t k = 0; k < kX8Blocks; ++k) {
      pw.block(zero, 0);
      u64* p = rpow[k];
      for (int i = 0; i < 5; ++i) p[i] = pw.h[i];
      u64 c = 0;
      for (int i = 1; i < 5; ++i) {
        p[i] += c;
        c = p[i] >> 26;
        p[i] &= 0x3ffffff;
      }
      p[0] += c * 5;
      p[1] += p[0] >> 26;
      p[0] &= 0x3ffffff;
    }
  }
  const size_t whole = msg.size() / 16;
  pre = std::min(pre, whole);
  size_t b = 0;
  for (; b < pre; ++b) ref.block(msg.data() + 16 * b, 1);
  const size_t core = (whole - pre) / kX8Blocks * kX8Blocks;
  if (core > 0) {
    u64 h[5];
    for (int i = 0; i < 5; ++i) h[i] = ref.h[i];
    poly1305_cores::blocks_x8(h, rpow, msg.data() + 16 * b, core);
    for (int i = 0; i < 5; ++i) {
      EXPECT_LE(h[i], u64{1} << 26) << "limb " << i;
      ref.h[i] = static_cast<u32>(h[i]);
    }
    b += core;
  }
  for (; b < whole; ++b) ref.block(msg.data() + 16 * b, 1);
  return ref.finish(msg.subspan(16 * whole));
}

TEST(Poly1305Test, X8CoreMatchesScalarAndRef26) {
  if (!cpu_has_avx512f()) {
    GTEST_SKIP() << "CPU lacks AVX-512F; the x8 core cannot run here";
  }
  EXPECT_STREQ(Poly1305::core_name(), "x8-avx512");
  std::mt19937_64 rng(8);
  auto random_bytes = [&](size_t n) {
    std::vector<u8> b(n);
    for (auto& x : b) x = static_cast<u8>(rng());
    return b;
  };
  std::vector<size_t> lens;
  for (size_t len = 0; len <= 4096; len += len < 512 ? 1 : 13) {
    lens.push_back(len);
  }
  // bulk's explicit share (32,797 B of ciphertext) and the 41 KiB one.
  lens.push_back(32797);
  lens.push_back(40965);
  const std::vector<u8> all_ff(32, 0xff);
  for (size_t len : lens) {
    for (int trial = 0; trial < 3; ++trial) {
      const auto key = trial == 0 ? all_ff : random_bytes(32);
      const auto msg =
          trial == 0 ? std::vector<u8>(len, 0xff) : random_bytes(len);
      const auto want = poly1305_ref26(key, msg);
      ASSERT_EQ(to_hex(poly1305_scalar(key, msg)), to_hex(want))
          << "scalar len=" << len << " trial=" << trial;
      // From h = 0, then from Ref26's h after 1..9 blocks.
      const size_t pre = trial == 0 ? 0 : 1 + rng() % 9;
      EXPECT_EQ(to_hex(poly1305_via_x8_core(key, msg, pre)), to_hex(want))
          << "core len=" << len << " trial=" << trial << " pre=" << pre;
      EXPECT_EQ(to_hex(Poly1305::mac(key, msg)), to_hex(want))
          << "mac len=" << len << " trial=" << trial;
      // Through the streaming API at random split points: the core takes
      // over from whatever h the pieces before it left.
      Poly1305 inc(key);
      size_t off = 0;
      for (int piece = static_cast<int>(rng() % 5); piece > 0; --piece) {
        size_t n = len == off ? 0 : rng() % (len - off + 1);
        inc.update(std::span<const u8>(msg).subspan(off, n));
        off += n;
      }
      inc.update(std::span<const u8>(msg).subspan(off));
      EXPECT_EQ(to_hex(inc.finalize()), to_hex(want))
          << "split len=" << len << " trial=" << trial;
    }
  }
}

// The core's accumulator can come back at or above 2^130, which the
// conversion to 44/44/42-bit limbs must wrap around times 5. With r = 1,
// the 16 blocks below sum to 16·2^128 + 4·(2^128 - 1) = 2^132 + 2^130 - 4;
// the core's carries fold that to 2^130 + 16, one past the largest value
// below 2^130 whose limbs fit. On CPUs without the core this is a plain
// scalar vector.
TEST(Poly1305Test, CoreAccumulatorPast2To130Wraps) {
  std::vector<u8> key(32, 0);
  key[0] = 1;
  std::vector<u8> msg(16 * 16, 0);
  std::fill(msg.begin(), msg.begin() + 4 * 16, 0xff);
  EXPECT_EQ(to_hex(Poly1305::mac(key, msg)), to_hex(poly1305_ref26(key, msg)));
  // h = 2^130 + 16 = 21 (mod p), and s = 0.
  EXPECT_EQ(to_hex(Poly1305::mac(key, msg)),
            "15000000000000000000000000000000");
}

TEST(Poly1305Test, ConcurrentFirstUseOfCore) {
  // Run as its own process (one ctest per gtest case), these macs are the
  // process's first: the core is picked while four threads race to use
  // it, and each must still get the reference tag.
  std::vector<u8> key(32), msg(32797);
  for (size_t i = 0; i < key.size(); ++i) key[i] = static_cast<u8>(i * 7 + 1);
  for (size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<u8>(i * 131 + 7);
  const auto want = to_hex(poly1305_ref26(key, msg));
  std::vector<std::string> got(4);
  std::vector<std::thread> threads;
  for (auto& g : got) {
    threads.emplace_back([&key, &msg, &g] {
      g = to_hex(Poly1305::mac(key, msg));
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& g : got) EXPECT_EQ(want, g);
}

TEST(Poly1305Test, TagsEqualIsConstantTimeCompare) {
  std::vector<u8> a{1, 2, 3}, b{1, 2, 3}, c{1, 2, 4};
  EXPECT_TRUE(tags_equal(a, b));
  EXPECT_FALSE(tags_equal(a, c));
  EXPECT_FALSE(tags_equal(a, std::span<const u8>(b.data(), 2)));
}

// ---------- AEAD ----------

TEST(AeadTest, Rfc8439Vector) {
  auto key = from_hex(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  auto nonce = from_hex("070000004041424344454647");
  auto aad = from_hex("50515253c0c1c2c3c4c5c6c7");
  std::string pt =
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.";
  auto sealed = Aead::seal(key, nonce, aad, as_bytes(pt));
  EXPECT_EQ(to_hex(sealed),
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
            "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
            "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
            "3ff4def08e4b7a9de576d26586cec64b6116"
            "1ae10b594f09e26a7e902ecbd0600691");
  auto opened = Aead::open(key, nonce, aad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(std::string(opened->begin(), opened->end()), pt);
}

TEST(AeadTest, TamperedCiphertextRejected) {
  auto key = from_hex(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  auto nonce = from_hex("070000004041424344454647");
  std::string pt = "attack at dawn";
  auto sealed = Aead::seal(key, nonce, {}, as_bytes(pt));
  for (size_t i = 0; i < sealed.size(); ++i) {
    auto bad = sealed;
    bad[i] ^= 1;
    EXPECT_FALSE(Aead::open(key, nonce, {}, bad).has_value()) << "byte " << i;
  }
  // Wrong AAD also rejected.
  u8 aad[1] = {0};
  EXPECT_FALSE(Aead::open(key, nonce, aad, sealed).has_value());
  // Truncated below tag size rejected.
  EXPECT_FALSE(
      Aead::open(key, nonce, {}, std::span<const u8>(sealed.data(), 10))
          .has_value());
}

TEST(AeadTest, SealInPlaceMatchesSeal) {
  // The RFC 8439 §2.8.2 vector, sealed where it lies.
  auto key = from_hex(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  auto nonce = from_hex("070000004041424344454647");
  auto aad = from_hex("50515253c0c1c2c3c4c5c6c7");
  std::string pt =
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.";
  std::vector<u8> buf(pt.begin(), pt.end());
  buf.resize(pt.size() + Aead::kTagLen);
  Aead::seal_in_place(key, nonce, aad, buf);
  EXPECT_EQ(to_hex(buf), to_hex(Aead::seal(key, nonce, aad, as_bytes(pt))));
  EXPECT_EQ(to_hex(std::span<const u8>(buf).last(Aead::kTagLen)),
            "1ae10b594f09e26a7e902ecbd0600691");

  // Random keys, nonces, AAD and lengths around the core thresholds.
  std::mt19937_64 rng(2808);
  auto random_bytes = [&](size_t n) {
    std::vector<u8> b(n);
    for (auto& x : b) x = static_cast<u8>(rng());
    return b;
  };
  for (size_t len : {size_t{0}, size_t{1}, size_t{15}, size_t{16},
                     size_t{255}, size_t{256}, size_t{1024}, size_t{1041},
                     size_t{4099 * 8 + 5}}) {
    const auto k = random_bytes(Aead::kKeyLen);
    const auto n = random_bytes(Aead::kNonceLen);
    const auto a = random_bytes(rng() % 40);
    const auto p = random_bytes(len);
    std::vector<u8> in_place = p;
    in_place.resize(len + Aead::kTagLen, 0xa5);  // the tag overwrites these
    Aead::seal_in_place(k, n, a, in_place);
    EXPECT_EQ(to_hex(in_place), to_hex(Aead::seal(k, n, a, p))) << len;
    auto opened = Aead::open(k, n, a, in_place);
    ASSERT_TRUE(opened.has_value()) << len;
    EXPECT_TRUE(*opened == p) << len;
  }
  std::vector<u8> short_buf(Aead::kTagLen - 1);
  EXPECT_THROW(Aead::seal_in_place(key, nonce, {}, short_buf),
               std::invalid_argument);
}

TEST(AeadTest, BulkSealMatchesScalarConstruction) {
  // A 41 KiB blob (a bulk submission's explicit share) takes the x16, x4
  // and scalar keystream paths. Rebuild its RFC 8439 ciphertext and tag
  // from scalar ChaCha20::block output and Poly1305 alone.
  auto key = from_hex(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  auto nonce = from_hex("070000004041424344454647");
  auto aad = from_hex("50515253c0c1c2c3c4c5c6c7");
  std::vector<u8> pt(41 * 1024 + 37);
  for (size_t i = 0; i < pt.size(); ++i) pt[i] = static_cast<u8>(i * 131 + 7);

  auto ks = reference_keystream(key, 1, nonce,
                                pt.size() / ChaCha20::kBlockLen + 1);
  std::vector<u8> want(pt.size());
  for (size_t i = 0; i < pt.size(); ++i) want[i] = pt[i] ^ ks[i];
  auto otk = reference_keystream(key, 0, nonce, 1);
  Poly1305 mac(std::span<const u8>(otk).first(32));
  const u8 zeros[16] = {0};
  auto pad = [&](size_t n) { return std::span<const u8>(zeros, -n % 16); };
  mac.update(aad).update(pad(aad.size()));
  mac.update(want).update(pad(want.size()));
  u8 lens[16];
  for (int i = 0; i < 8; ++i) {
    lens[i] = static_cast<u8>(static_cast<u64>(aad.size()) >> (8 * i));
    lens[8 + i] = static_cast<u8>(static_cast<u64>(want.size()) >> (8 * i));
  }
  auto tag = mac.update(lens).finalize();
  want.insert(want.end(), tag.begin(), tag.end());

  auto sealed = Aead::seal(key, nonce, aad, pt);
  EXPECT_EQ(to_hex(want), to_hex(sealed));
  auto opened = Aead::open(key, nonce, aad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(*opened == pt);
  sealed[20000] ^= 0x01;
  EXPECT_FALSE(Aead::open(key, nonce, aad, sealed).has_value());
}

// ---------- SHA-256 / HMAC / HKDF ----------

TEST(Sha256Test, FipsVectors) {
  EXPECT_EQ(to_hex(Sha256::digest(as_bytes(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(Sha256::digest(as_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(to_hex(Sha256::digest(as_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string msg(1000, 'x');
  Sha256 inc;
  for (size_t i = 0; i < msg.size(); i += 77) {
    inc.update(as_bytes(msg.substr(i, 77)));
  }
  EXPECT_EQ(to_hex(inc.finalize()), to_hex(Sha256::digest(as_bytes(msg))));
}

TEST(HmacTest, Rfc4231Case1) {
  std::vector<u8> key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha256(key, as_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ(to_hex(hmac_sha256(as_bytes("Jefe"),
                               as_bytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HkdfTest, Rfc5869Case1) {
  std::vector<u8> ikm(22, 0x0b);
  auto salt = from_hex("000102030405060708090a0b0c");
  auto info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  auto okm = hkdf_sha256(salt, ikm, info, 42);
  EXPECT_EQ(to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

// ---------- SecureRng ----------

TEST(SecureRngTest, DeterministicAndUnbiasedBound) {
  SecureRng a(1), b(1), c(2);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
  SecureRng r(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
  EXPECT_THROW(r.next_below(0), std::invalid_argument);
}

TEST(SecureRngTest, FieldElementsAreCanonical) {
  SecureRng r(4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(r.field_element<Fp64>().to_u64(), Fp64::kP);
  }
}

// ---------- secp256k1 ----------

TEST(Secp256k1Test, GeneratorOnCurveAndKnownDouble) {
  auto g = ec::Point::generator();
  // 2G, known value.
  auto g2 = g.dbl();
  u8 xb[32];
  g2.affine_x().to_u256().to_bytes_be(xb);
  EXPECT_EQ(to_hex(xb),
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5");
  g2.affine_y().to_u256().to_bytes_be(xb);
  EXPECT_EQ(to_hex(xb),
            "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a");
}

TEST(Secp256k1Test, OrderAnnihilatesGenerator) {
  auto g = ec::Point::generator();
  // (n-1)*G + G == infinity
  auto n_minus_1 = ec::Scalar::zero() - ec::Scalar::one();
  auto p = g.mul(n_minus_1) + g;
  EXPECT_TRUE(p.is_infinity());
}

TEST(Secp256k1Test, GroupLaws) {
  SecureRng rng(7);
  auto g = ec::Point::generator();
  auto random_scalar = [&rng] {
    u8 b[32];
    rng.fill(b);
    return ec::Scalar::from_u256(ec::U256::from_bytes_be(b));
  };
  for (int i = 0; i < 8; ++i) {
    auto a = random_scalar();
    auto b = random_scalar();
    // (a+b)G == aG + bG
    EXPECT_TRUE(g.mul(a + b) == g.mul(a) + g.mul(b));
    // a(bG) == (ab)G
    EXPECT_TRUE(g.mul(b).mul(a) == g.mul(a * b));
    // double_mul correctness
    auto q = g.mul(b);
    EXPECT_TRUE(ec::Point::double_mul(a, g, b, q) == g.mul(a) + q.mul(b));
  }
}

TEST(Secp256k1Test, AddEdgeCases) {
  auto g = ec::Point::generator();
  EXPECT_TRUE((g + ec::Point::infinity()) == g);
  EXPECT_TRUE((ec::Point::infinity() + g) == g);
  EXPECT_TRUE((g + (-g)).is_infinity());
  EXPECT_TRUE((g + g) == g.dbl());
  EXPECT_TRUE(g.mul(ec::Scalar::zero()).is_infinity());
  EXPECT_TRUE(g.mul(ec::Scalar::one()) == g);
}

TEST(Secp256k1Test, SerializationRoundTrip) {
  SecureRng rng(9);
  auto g = ec::Point::generator();
  for (int i = 0; i < 8; ++i) {
    u8 b[32];
    rng.fill(b);
    auto p = g.mul(ec::Scalar::from_u256(ec::U256::from_bytes_be(b)));
    auto enc = p.to_bytes();
    auto dec = ec::Point::from_bytes(enc);
    ASSERT_TRUE(dec.has_value());
    EXPECT_TRUE(*dec == p);
  }
  // Infinity round-trips.
  auto inf_enc = ec::Point::infinity().to_bytes();
  auto inf_dec = ec::Point::from_bytes(inf_enc);
  ASSERT_TRUE(inf_dec.has_value());
  EXPECT_TRUE(inf_dec->is_infinity());
  // Garbage rejected.
  std::vector<u8> bad(33, 0xFF);
  EXPECT_FALSE(ec::Point::from_bytes(bad).has_value());
}

TEST(Secp256k1Test, FixedBaseTableMatchesMul) {
  SecureRng rng(11);
  auto g = ec::Point::generator();
  ec::FixedBaseTable table(g);
  for (int i = 0; i < 8; ++i) {
    u8 b[32];
    rng.fill(b);
    auto k = ec::Scalar::from_u256(ec::U256::from_bytes_be(b));
    EXPECT_TRUE(table.mul(k) == g.mul(k));
  }
}

TEST(Secp256k1Test, ScalarFromBytesWideMatchesModularReduction) {
  // 2^256 mod n equals from_bytes_wide(2^256).
  u8 wide[64] = {0};
  wide[31] = 1;  // big-endian: value = 2^256
  auto s = ec::Scalar::from_bytes_wide(wide);
  // 2^256 mod n = 2^256 - n (since n < 2^256 < 2n).
  auto expect = ec::Scalar::zero() -
                ec::Scalar::from_u256(ec::U256::from_u64(0)) +
                (ec::Scalar::zero() - ec::Scalar::one()) + ec::Scalar::one();
  // Direct computation: 2^256 - n as U256 arithmetic (2^256 - n = ~n + 1).
  ec::U256 n = ec::Scalar::order();
  ec::U256 neg{};
  for (int i = 0; i < 4; ++i) neg.w[i] = ~n.w[i];
  u64 carry = 1;
  for (int i = 0; i < 4 && carry; ++i) {
    neg.w[i] += carry;
    carry = (neg.w[i] == 0) ? 1 : 0;
  }
  (void)expect;
  EXPECT_TRUE(s == ec::Scalar::from_u256(neg));
}

// ---------- Pedersen + OR proofs ----------

TEST(PedersenTest, HashToCurveIsOnCurveAndDeterministic) {
  auto h1 = ec::hash_to_curve("test/label");
  auto h2 = ec::hash_to_curve("test/label");
  EXPECT_TRUE(h1 == h2);
  auto h3 = ec::hash_to_curve("test/other");
  EXPECT_FALSE(h1 == h3);
}

TEST(PedersenTest, CommitmentsAreHomomorphic) {
  const auto& params = ec::PedersenParams::instance();
  auto x1 = ec::Scalar::from_u64(10), r1 = ec::Scalar::from_u64(111);
  auto x2 = ec::Scalar::from_u64(32), r2 = ec::Scalar::from_u64(222);
  auto c1 = params.commit(x1, r1);
  auto c2 = params.commit(x2, r2);
  EXPECT_TRUE((c1 + c2) == params.commit(x1 + x2, r1 + r2));
}

TEST(SchnorrOrTest, CompletenessForBothBits) {
  const auto& params = ec::PedersenParams::instance();
  SecureRng rng(13);
  for (int bit : {0, 1}) {
    auto cb = ec::prove_bit(params, bit, rng);
    EXPECT_TRUE(ec::verify_bit(params, cb.commitment, cb.proof)) << bit;
  }
}

TEST(SchnorrOrTest, CommitmentToTwoFailsVerification) {
  const auto& params = ec::PedersenParams::instance();
  SecureRng rng(17);
  // Forge: take a valid proof for bit 1 but shift the commitment to open
  // to 2. The proof must no longer verify.
  auto cb = ec::prove_bit(params, 1, rng);
  auto bad_commitment = cb.commitment + params.g();
  EXPECT_FALSE(ec::verify_bit(params, bad_commitment, cb.proof));
}

TEST(SchnorrOrTest, TamperedProofRejected) {
  const auto& params = ec::PedersenParams::instance();
  SecureRng rng(19);
  auto cb = ec::prove_bit(params, 0, rng);
  auto tampered = cb.proof;
  tampered.s0 = tampered.s0 + ec::Scalar::one();
  EXPECT_FALSE(ec::verify_bit(params, cb.commitment, tampered));
  tampered = cb.proof;
  tampered.c1 = tampered.c1 + ec::Scalar::one();
  EXPECT_FALSE(ec::verify_bit(params, cb.commitment, tampered));
}

TEST(SchnorrOrTest, ProofSerializationRoundTrip) {
  const auto& params = ec::PedersenParams::instance();
  SecureRng rng(23);
  auto cb = ec::prove_bit(params, 1, rng);
  auto bytes = cb.proof.to_bytes();
  EXPECT_EQ(bytes.size(), ec::BitProof::kSerializedLen);
  auto parsed = ec::BitProof::from_bytes(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(ec::verify_bit(params, cb.commitment, *parsed));
}

}  // namespace
}  // namespace prio
