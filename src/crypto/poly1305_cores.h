// The 8-lane Poly1305 block core behind Poly1305::update. Internal to
// src/crypto/: callers outside it use Poly1305 (and Poly1305::core_name()),
// which hands the core long runs of whole blocks on its own. Declared here
// so tests/test_crypto.cc can check the core against an independent
// reference.
#pragma once

#include <cstddef>

#include "util/common.h"

namespace prio::poly1305_cores {

// Blocks per lane-parallel step: one block per 64-bit lane of a 512-bit
// register.
inline constexpr size_t kX8Blocks = 8;

// Absorbs `blocks` whole 16-byte message blocks at `m` (a nonzero multiple
// of kX8Blocks, each with the 2^128 bit set) into the accumulator h:
// h <- (...((h + m_0)·r + m_1)·r + ... + m_{n-1})·r mod 2^130 - 5, up to
// the residue. Lane l holds blocks l, l + 8, l + 16, ...; each step is one
// h·r^8 + m per lane, and at the end lane l is multiplied by r^(8-l) and
// the lanes are summed.
//
// h is five base-2^26 limbs, each below 2^27 on entry; on return every
// limb is below 2^26 except limb 1, at most 2^26. rpow[k-1] is r^k
// (k = 1..8) in five base-2^26 limbs, each at most 2^26.
//
// Compiled for AVX-512F. Call it only when cpu_has_avx512f() (util/cpu.h)
// is true; on any other CPU it faults with an illegal instruction.
void blocks_x8(u64 h[5], const u64 rpow[kX8Blocks][5], const u8* m,
               size_t blocks);

}  // namespace prio::poly1305_cores
