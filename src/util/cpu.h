// Run-time CPU feature probe for the kernels compiled for a wider target
// than the build's -march: ChaCha20's 16-block core (crypto/chacha20.cc),
// Poly1305's 8-lane core (crypto/poly1305_avx512.cc) and the Fp64 coset
// NTT (poly/ntt_avx512.cc). Each is picked at run time, so one portable
// binary runs them where the CPU has AVX-512F and falls back elsewhere; no
// build flag chooses.
#pragma once

namespace prio {

// True iff this CPU (and OS) runs AVX-512F code. __builtin_cpu_supports
// also checks that the OS saves the AVX-512 register state (XCR0). A
// function-local static: probed once per process, thread-safe, and never
// read before the CPU model is.
inline bool cpu_has_avx512f() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool kHas = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") != 0;
  }();
  return kHas;
#else
  return false;
#endif
}

}  // namespace prio
