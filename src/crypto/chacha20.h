// ChaCha20 stream cipher (RFC 8439) and a counter-mode PRG built on it.
//
// Prio uses ChaCha20 in two places:
//  * the PRG share-compression optimization of Appendix I, where s-1 of the
//    s additive shares are expanded from 32-byte seeds, and
//  * the ChaCha20-Poly1305 AEAD that seals client->server submissions (our
//    stand-in for NaCl's "box").
//
// Bulk keystream (xor_stream, ChaChaPrg::fill_blocks) runs through
// multi-block cores chosen once per process: 16 blocks per call under
// AVX-512F where the CPU has it, whatever the build's -march, then 4 per
// call (SSE2, the x86-64 baseline), then the scalar block() for the rest.
// Every core is bit-identical to block(), so the choice never changes a
// byte on disk or on the wire; core_name() says which one runs.
#pragma once

#include <array>
#include <span>

#include "util/common.h"

namespace prio {

class ChaCha20 {
 public:
  static constexpr size_t kKeyLen = 32;
  static constexpr size_t kNonceLen = 12;
  static constexpr size_t kBlockLen = 64;

  // Computes one 64-byte keystream block (RFC 8439 §2.3).
  static void block(std::span<const u8> key, u32 counter,
                    std::span<const u8> nonce, std::span<u8> out);

  // XORs `data` in place with the keystream starting at block `counter`.
  static void xor_stream(std::span<const u8> key, u32 counter,
                         std::span<const u8> nonce, std::span<u8> data);

  // The widest multi-block core this process runs: "x16-avx512" or "x4".
  static const char* core_name();
};

// Deterministic expanding PRG: an endless ChaCha20 keystream under a fixed
// seed. Used to expand secret-share seeds and to derive per-submission
// randomness; NOT a general-purpose RNG (see SecureRng in rng.h).
class ChaChaPrg {
 public:
  explicit ChaChaPrg(std::span<const u8> seed32);

  // Fills `out` with the next keystream bytes.
  void fill(std::span<u8> out);

  // Bulk path: produces exactly the same byte stream as fill(), but whole
  // 64-byte keystream blocks are generated directly into `out` instead of
  // round-tripping through the internal one-block buffer, through the
  // widest core the request fills. The two entry points share the stream
  // position, so they can be interleaved freely.
  void fill_blocks(std::span<u8> out);

  u64 next_u64();

 private:
  void refill();

  std::array<u8, ChaCha20::kKeyLen> key_;
  std::array<u8, ChaCha20::kNonceLen> nonce_;
  std::array<u8, ChaCha20::kBlockLen> buf_{};
  size_t pos_;
  u32 counter_;
};

}  // namespace prio
