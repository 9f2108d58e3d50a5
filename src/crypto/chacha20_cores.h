// The multi-block ChaCha20 cores behind ChaCha20::xor_stream and
// ChaChaPrg::fill_blocks. Internal to src/crypto/: callers outside it use
// those two entry points (and ChaCha20::core_name()), which pick the
// widest core the CPU supports on their own. Declared here so
// tests/test_crypto.cc can check each core against ChaCha20::block.
#pragma once

#include <cstddef>

#include "util/common.h"

namespace prio::chacha20_cores {

inline constexpr size_t kX4Blocks = 4;
inline constexpr size_t kX16Blocks = 16;

// Writes the keystream blocks at counters counter, counter+1, ...
// (mod 2^32) under a 32-byte key and a 12-byte nonce to
// out[0 .. 64 * blocks), byte-identical to ChaCha20::block at each counter.
void blocks_x4(const u8* key, u32 counter, const u8* nonce, u8* out);

// The 16-block core, compiled for AVX-512F. Call it only when
// cpu_has_avx512f() (util/cpu.h) is true; on any other CPU it faults with
// an illegal instruction.
void blocks_x16(const u8* key, u32 counter, const u8* nonce, u8* out);

}  // namespace prio::chacha20_cores
