#include "crypto/chacha20.h"

#include <bit>
#include <cstring>

#include "crypto/chacha20_cores.h"
#include "util/common.h"
#include "util/cpu.h"

namespace prio {
namespace {

inline u32 load32_le(const u8* p) {
  return static_cast<u32>(p[0]) | static_cast<u32>(p[1]) << 8 |
         static_cast<u32>(p[2]) << 16 | static_cast<u32>(p[3]) << 24;
}

// One 32-bit store, not four byte stores: GCC turns the byte form of the
// multi-block cores' lane extracts into a long byte-shuffle sequence.
inline void store32_le(u8* p, u32 x) {
  if constexpr (std::endian::native == std::endian::big) {
    x = __builtin_bswap32(x);
  }
  std::memcpy(p, &x, sizeof(x));
}

// The ChaCha double round over 16 words. W is u32 in the scalar block and
// an N-lane generic vector (GCC/Clang vector extensions) in the multi-block
// cores, where each ChaCha op is one SIMD op across N blocks. Everything is
// always_inline and takes vectors by reference only, so the vector copies
// exist only inside the blocks_x4 and blocks_x16 wrappers, the x16 copy is
// compiled for the wrapper's AVX-512 target, and no 64-byte vector crosses
// a default-target call boundary (-Wpsabi warns on that even when the call
// is inlined).
template <class W>
[[gnu::always_inline]] inline void rotl32(W& x, int n) {
  x = (x << n) | (x >> (32 - n));
}

template <class W>
[[gnu::always_inline]] inline void quarter_round(W& a, W& b, W& c, W& d) {
  a += b; d ^= a; rotl32(d, 16);
  c += d; b ^= c; rotl32(b, 12);
  a += b; d ^= a; rotl32(d, 8);
  c += d; b ^= c; rotl32(b, 7);
}

template <class W>
[[gnu::always_inline]] inline void double_round(W x[16]) {
  quarter_round(x[0], x[4], x[8], x[12]);
  quarter_round(x[1], x[5], x[9], x[13]);
  quarter_round(x[2], x[6], x[10], x[14]);
  quarter_round(x[3], x[7], x[11], x[15]);
  quarter_round(x[0], x[5], x[10], x[15]);
  quarter_round(x[1], x[6], x[11], x[12]);
  quarter_round(x[2], x[7], x[8], x[13]);
  quarter_round(x[3], x[4], x[9], x[14]);
}

// Builds the 16-word input state of RFC 8439 section 2.3.
inline void init_state(u32 state[16], const u8* key, u32 counter,
                       const u8* nonce) {
  state[0] = 0x61707865;  // "expa"
  state[1] = 0x3320646e;  // "nd 3"
  state[2] = 0x79622d32;  // "2-by"
  state[3] = 0x6b206574;  // "te k"
  for (int i = 0; i < 8; ++i) state[4 + i] = load32_le(key + 4 * i);
  state[12] = counter;
  for (int i = 0; i < 3; ++i) state[13 + i] = load32_le(nonce + 4 * i);
}

template <size_t N>
struct Lanes {
  typedef u32 type __attribute__((vector_size(4 * N)));
};

// N keystream blocks (counters counter..counter+N-1, mod 2^32) in
// lane-interleaved form: word j of block l is lane l of x[j]. The scalar
// ChaCha20::block stays the reference; tests/test_crypto.cc checks every
// core against it block by block.
template <size_t N>
[[gnu::always_inline]] inline void blocks_xn(const u8* key, u32 counter,
                                             const u8* nonce, u8* out) {
  using V = typename Lanes<N>::type;
  u32 state[16];
  init_state(state, key, counter, nonce);
  V in[16];
  for (int j = 0; j < 16; ++j) in[j] = V{} + state[j];
  for (size_t l = 0; l < N; ++l) in[12][l] = counter + static_cast<u32>(l);
  V x[16];
  for (int j = 0; j < 16; ++j) x[j] = in[j];
  for (int round = 0; round < 10; ++round) double_round(x);
  for (int j = 0; j < 16; ++j) x[j] += in[j];
  for (size_t l = 0; l < N; ++l) {
    for (int j = 0; j < 16; ++j) {
      store32_le(out + ChaCha20::kBlockLen * l + 4 * j, x[j][l]);
    }
  }
}

// Writes `blocks` keystream blocks from `counter` on to `out`: sixteen at a
// time through the AVX-512 core where the CPU has it, then four at a time,
// then one at a time. Returns the counter after the last block.
u32 keystream_blocks(const u8* key, u32 counter, const u8* nonce, u8* out,
                     size_t blocks) {
  using namespace chacha20_cores;
  if (cpu_has_avx512f()) {
    for (; blocks >= kX16Blocks; blocks -= kX16Blocks) {
      blocks_x16(key, counter, nonce, out);
      counter += kX16Blocks;
      out += kX16Blocks * ChaCha20::kBlockLen;
    }
  }
  for (; blocks >= kX4Blocks; blocks -= kX4Blocks) {
    blocks_x4(key, counter, nonce, out);
    counter += kX4Blocks;
    out += kX4Blocks * ChaCha20::kBlockLen;
  }
  for (; blocks > 0; --blocks) {
    ChaCha20::block({key, ChaCha20::kKeyLen}, counter++,
                    {nonce, ChaCha20::kNonceLen},
                    {out, ChaCha20::kBlockLen});
    out += ChaCha20::kBlockLen;
  }
  return counter;
}

}  // namespace

namespace chacha20_cores {

// SSE2 is in the x86-64 baseline, so the 4-lane core needs no target
// attribute; the 16-lane one is compiled for AVX-512F alone, whatever the
// build's -march, and runs only where cpu_has_avx512f() says the CPU has
// it.
void blocks_x4(const u8* key, u32 counter, const u8* nonce, u8* out) {
  blocks_xn<kX4Blocks>(key, counter, nonce, out);
}

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("avx512f")))
#endif
void blocks_x16(const u8* key, u32 counter, const u8* nonce, u8* out) {
  blocks_xn<kX16Blocks>(key, counter, nonce, out);
}

}  // namespace chacha20_cores

void ChaCha20::block(std::span<const u8> key, u32 counter,
                     std::span<const u8> nonce, std::span<u8> out) {
  require(key.size() == kKeyLen, "ChaCha20: key must be 32 bytes");
  require(nonce.size() == kNonceLen, "ChaCha20: nonce must be 12 bytes");
  require(out.size() == kBlockLen, "ChaCha20: output must be 64 bytes");

  u32 state[16];
  init_state(state, key.data(), counter, nonce.data());

  u32 x[16];
  std::memcpy(x, state, sizeof(x));
  for (int round = 0; round < 10; ++round) double_round(x);
  for (int i = 0; i < 16; ++i) store32_le(out.data() + 4 * i, x[i] + state[i]);
}

const char* ChaCha20::core_name() {
  return cpu_has_avx512f() ? "x16-avx512" : "x4";
}

void ChaCha20::xor_stream(std::span<const u8> key, u32 counter,
                          std::span<const u8> nonce, std::span<u8> data) {
  require(key.size() == kKeyLen, "ChaCha20: key must be 32 bytes");
  require(nonce.size() == kNonceLen, "ChaCha20: nonce must be 12 bytes");
  // Up to one x16 core call of keystream per pass; the last pass rounds
  // its (partial) tail up to whole blocks.
  u8 ks[chacha20_cores::kX16Blocks * kBlockLen];
  for (size_t off = 0; off < data.size();) {
    const size_t n = std::min(data.size() - off, sizeof(ks));
    counter = keystream_blocks(key.data(), counter, nonce.data(), ks,
                               (n + kBlockLen - 1) / kBlockLen);
    for (size_t i = 0; i < n; ++i) data[off + i] ^= ks[i];
    off += n;
  }
}

// The buffer starts empty, so a first fill_blocks() call runs block 0 on
// the multi-block cores instead of through buf_.
ChaChaPrg::ChaChaPrg(std::span<const u8> seed32)
    : pos_(ChaCha20::kBlockLen), counter_(0) {
  require(seed32.size() == ChaCha20::kKeyLen, "ChaChaPrg: seed must be 32 bytes");
  std::memcpy(key_.data(), seed32.data(), seed32.size());
  nonce_.fill(0);
}

void ChaChaPrg::refill() {
  ChaCha20::block(key_, counter_++, nonce_, buf_);
  pos_ = 0;
}

void ChaChaPrg::fill(std::span<u8> out) {
  size_t off = 0;
  while (off < out.size()) {
    if (pos_ == buf_.size()) refill();
    size_t n = std::min(out.size() - off, buf_.size() - pos_);
    std::memcpy(out.data() + off, buf_.data() + pos_, n);
    pos_ += n;
    off += n;
  }
}

void ChaChaPrg::fill_blocks(std::span<u8> out) {
  if (out.empty()) return;  // keep memcpy away from a null span
  size_t off = 0;
  // Drain any buffered bytes first so the stream position matches fill().
  if (pos_ < buf_.size()) {
    size_t n = std::min(out.size(), buf_.size() - pos_);
    std::memcpy(out.data(), buf_.data() + pos_, n);
    pos_ += n;
    off += n;
  }
  // Whole blocks go straight into the caller's buffer: no memcpy, no
  // per-8-byte round-trips through buf_, and the widest core that fits.
  const size_t blocks = (out.size() - off) / ChaCha20::kBlockLen;
  counter_ = keystream_blocks(key_.data(), counter_, nonce_.data(),
                              out.data() + off, blocks);
  off += blocks * ChaCha20::kBlockLen;
  if (off < out.size()) {
    refill();
    size_t n = out.size() - off;
    std::memcpy(out.data() + off, buf_.data(), n);
    pos_ = n;
  }
}

u64 ChaChaPrg::next_u64() {
  u8 buf[8];
  fill(buf);
  u64 v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<u64>(buf[i]) << (8 * i);
  return v;
}

}  // namespace prio
