// The AVX-512F kernel behind NttDomain<Fp64>::coset_from_evals
// (poly/ntt.h). Callers go through NttDomain, which checks sizes, counts
// the multiplications and runs this only where cpu_has_avx512f()
// (util/cpu.h) holds; on any other CPU it faults with an illegal
// instruction.
#pragma once

#include <cstddef>

#include "field/fp64.h"

namespace prio::ntt_avx512 {

// The kernel works on 16-element blocks; smaller domains use the scalar
// kernel.
inline constexpr size_t kMinSize = 16;

// NttDomain<Fp64>'s fused coset transform on a[0 .. n), n a power of two
// >= kMinSize, with that domain's tables: the per-stage inverse and
// forward twiddles (stage h at [h, 2h)) and the twist.
void coset_from_evals(Fp64* a, size_t n, const Fp64* inv_stage,
                      const Fp64* twist, const Fp64* fwd_stage);

}  // namespace prio::ntt_avx512
