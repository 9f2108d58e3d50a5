// A random arithmetic circuit for the SNIP suites: test_kernels pins the
// verifier engine against the reference on it, test_snip the prover
// against an independent two-domain prover.
#pragma once

#include <vector>

#include "circuit/circuit.h"
#include "crypto/rng.h"

namespace prio::test {

// Random circuit over every gate kind. Operands are drawn from all earlier
// wires, so wires fan out and mul gates take mul outputs. The outputs mix
// mul outputs, affine wires and a constant-only chain (a wire only
// server 0's constants reach).
template <PrimeField F>
Circuit<F> random_circuit(SecureRng& rng, size_t n_inputs, size_t n_gates) {
  CircuitBuilder<F> b(n_inputs);
  std::vector<u32> wires;
  for (size_t i = 0; i < n_inputs; ++i) wires.push_back(b.input(i));
  auto pick = [&]() { return wires[rng.next_below(wires.size())]; };
  for (size_t g = 0; g < n_gates; ++g) {
    switch (rng.next_below(5)) {
      case 0: wires.push_back(b.add(pick(), pick())); break;
      case 1: wires.push_back(b.sub(pick(), pick())); break;
      case 2: wires.push_back(b.mul(pick(), pick())); break;
      case 3: wires.push_back(b.mul_const(pick(), rng.field_element<F>())); break;
      case 4: wires.push_back(b.constant(rng.field_element<F>())); break;
    }
  }
  // At least two mul gates, the second reading the first's output.
  wires.push_back(b.mul(pick(), pick()));
  wires.push_back(b.mul(wires.back(), pick()));
  b.assert_zero(wires.back());
  const u32 c = b.add(b.constant(rng.field_element<F>()),
                      b.mul_const(b.constant(rng.field_element<F>()),
                                  rng.field_element<F>()));
  b.assert_zero(c);
  b.assert_zero(b.sub(pick(), c));
  for (size_t o = rng.next_below(4); o > 0; --o) b.assert_zero(pick());
  return b.build();
}

}  // namespace prio::test
