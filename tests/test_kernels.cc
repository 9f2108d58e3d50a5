// Equivalence tests for the bulk field kernels (field/kernels.h) and the
// allocation-free SNIP verification engine (SnipVerifier): every kernel
// must compute exactly the same field elements as the scalar reference
// implementation, on random spans and on boundary values, and the engine
// must produce bit-identical SnipLocalState to the legacy
// snip_local_check on random circuits.

#include <gtest/gtest.h>

#include "circuit/circuit.h"
#include "crypto/rng.h"
#include "field/kernels.h"
#include "poly/lagrange.h"
#include "snip/snip.h"

namespace prio {
namespace {

template <typename F>
class KernelTest : public ::testing::Test {};

using FieldTypes = ::testing::Types<Fp64, Fp128>;
TYPED_TEST_SUITE(KernelTest, FieldTypes);

template <PrimeField F>
std::vector<F> random_vec(SecureRng& rng, size_t n) {
  std::vector<F> v(n);
  for (auto& x : v) x = rng.field_element<F>();
  return v;
}

// Boundary elements: 0, 1, p-1, and values at/above 2^63 (the sign bit of
// a u64, where branchless comparisons are easiest to get wrong).
template <PrimeField F>
std::vector<F> boundary_elems() {
  return {F::zero(),
          F::one(),
          F::zero() - F::one(),                    // p - 1
          F::from_u64(1ull << 63),                 // 2^63
          F::from_u64((1ull << 63) + 1),
          F::from_u64(~u64{0}),                    // 2^64 - 1 (reduced)
          F::from_u64(0xFFFFFFFF00000000ull)};
}

// Builds a length-n vector cycling through the boundary elements.
template <PrimeField F>
std::vector<F> boundary_vec(size_t n, size_t phase) {
  auto elems = boundary_elems<F>();
  std::vector<F> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = elems[(i + phase) % elems.size()];
  return v;
}

// The spans the kernels see in production: empty, scalar tails (1..7),
// exact SIMD widths, Lagrange-row lengths, and odd lengths.
const size_t kLens[] = {0, 1, 2, 3, 4, 5, 7, 8, 16, 63, 64, 255, 256, 325};

template <PrimeField F>
void check_all_ops(const std::vector<F>& a, const std::vector<F>& b) {
  const size_t n = a.size();
  std::vector<F> out(n), ref(n);

  kernels::vec_add<F>(a, b, out);
  for (size_t i = 0; i < n; ++i) ref[i] = a[i] + b[i];
  EXPECT_EQ(out, ref);

  kernels::vec_sub<F>(a, b, out);
  for (size_t i = 0; i < n; ++i) ref[i] = a[i] - b[i];
  EXPECT_EQ(out, ref);

  kernels::vec_mul<F>(a, b, out);
  for (size_t i = 0; i < n; ++i) ref[i] = a[i] * b[i];
  EXPECT_EQ(out, ref);

  std::vector<F> inplace = a;
  kernels::vec_sub_inplace<F>(std::span<F>(inplace), b);
  for (size_t i = 0; i < n; ++i) ref[i] = a[i] - b[i];
  EXPECT_EQ(inplace, ref);

  inplace = a;
  kernels::vec_add_inplace<F>(std::span<F>(inplace), b);
  for (size_t i = 0; i < n; ++i) ref[i] = a[i] + b[i];
  EXPECT_EQ(inplace, ref);

  const F alpha = n > 0 ? b[0] : F::from_u64(3);
  std::vector<F> y = a;
  kernels::vec_axpy<F>(alpha, b, std::span<F>(y));
  for (size_t i = 0; i < n; ++i) ref[i] = a[i] + alpha * b[i];
  EXPECT_EQ(y, ref);

  // Lazy-reduction inner product vs the scalar accumulate-and-reduce
  // reference from poly/lagrange.h.
  EXPECT_EQ(kernels::inner_product<F>(a, b),
            inner_product(a, std::span<const F>(b)));
}

TYPED_TEST(KernelTest, MatchScalarReferenceOnRandomSpans) {
  using F = TypeParam;
  SecureRng rng(1);
  for (size_t n : kLens) {
    auto a = random_vec<F>(rng, n);
    auto b = random_vec<F>(rng, n);
    check_all_ops<F>(a, b);
  }
}

TYPED_TEST(KernelTest, MatchScalarReferenceOnBoundaryValues) {
  using F = TypeParam;
  for (size_t n : kLens) {
    for (size_t phase = 0; phase < 4; ++phase) {
      check_all_ops<F>(boundary_vec<F>(n, phase),
                       boundary_vec<F>(n, phase + 3));
    }
  }
}

TYPED_TEST(KernelTest, InnerProductMaxMagnitudeAccumulation) {
  using F = TypeParam;
  // All-(p-1) vectors maximize every 128-bit partial product, stressing
  // the overflow-counting lanes of the Fp64 lazy-reduction path.
  for (size_t n : {1, 4, 5, 1000, 1023}) {
    std::vector<F> a(n, F::zero() - F::one());
    F expect = F::zero();
    for (size_t i = 0; i < n; ++i) expect += a[i] * a[i];
    EXPECT_EQ(kernels::inner_product<F>(a, a), expect) << n;
  }
}

TEST(Fp64Reduce, BranchlessReduce128Boundaries) {
  // from_u128 is the public entry to reduce128; cross-check the branchless
  // version against plain u128 long division on the corner cases of every
  // internal fold (borrow on lo - hi_hi, overflow on t + s, final
  // conditional subtract).
  const u128 p = Fp64::kP;
  const u128 cases[] = {0,
                        1,
                        p - 1,
                        p,
                        p + 1,
                        (u128{1} << 64) - 1,
                        u128{1} << 64,
                        (u128{1} << 64) + 1,
                        (u128{1} << 96) - 1,
                        u128{1} << 96,
                        (u128{1} << 96) + 1,
                        u128{0xFFFFFFFFull} << 96,
                        ~u128{0} - 1,
                        ~u128{0}};
  for (u128 x : cases) {
    EXPECT_EQ(Fp64::from_u128(x).to_u64(), static_cast<u64>(x % p));
  }
  SecureRng rng(2);
  for (int i = 0; i < 2000; ++i) {
    u128 x = (static_cast<u128>(rng.next_u64()) << 64) | rng.next_u64();
    EXPECT_EQ(Fp64::from_u128(x).to_u64(), static_cast<u64>(x % p));
  }
}

// ---------------------------------------------------------------------------
// Engine regression: SnipVerifier must be bit-identical to the legacy path.
// ---------------------------------------------------------------------------

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
  wires.push_back(b.mul(pick(), pick()));  // ensure at least one mul gate
  b.assert_zero(wires.back());
  b.assert_zero(pick());
  return b.build();
}

template <PrimeField F>
void expect_states_identical(const SnipLocalState<F>& a,
                             const SnipLocalState<F>& b) {
  EXPECT_EQ(a.d_share, b.d_share);
  EXPECT_EQ(a.e_share, b.e_share);
  EXPECT_EQ(a.a_share, b.a_share);
  EXPECT_EQ(a.b_share, b.b_share);
  EXPECT_EQ(a.c_share, b.c_share);
  EXPECT_EQ(a.rh_share, b.rh_share);
  EXPECT_EQ(a.out_combo, b.out_combo);
}

TYPED_TEST(KernelTest, SnipVerifierMatchesLegacyOnRandomCircuits) {
  using F = TypeParam;
  SecureRng rng(7);
  const size_t kServers = 3;
  for (int trial = 0; trial < 6; ++trial) {
    const size_t n_inputs = 1 + rng.next_below(8);
    const size_t n_gates = 1 + rng.next_below(24);
    Circuit<F> circuit = random_circuit<F>(rng, n_inputs, n_gates);
    SnipProver<F> prover(&circuit);
    VerificationContext<F> ctx(&circuit, kServers, 1000 + trial);
    SnipVerifier<F> verifier(&circuit);  // one scratch reused throughout

    for (int sub = 0; sub < 3; ++sub) {
      auto x = random_vec<F>(rng, n_inputs);  // validity is irrelevant here
      auto ext = prover.build_extended_input(x, rng);
      auto shares = share_vector<F>(ext, kServers, rng);
      for (size_t i = 0; i < kServers; ++i) {
        auto legacy =
            snip_local_check(ctx, i, std::span<const F>(shares[i]));
        auto engine =
            verifier.local_check(ctx, i, std::span<const F>(shares[i]));
        expect_states_identical(legacy, engine);

        // The landing-buffer entry point must agree as well.
        std::copy(shares[i].begin(), shares[i].end(),
                  verifier.ext_buffer().begin());
        expect_states_identical(legacy, verifier.local_check(ctx, i));
      }
      // r rotates between submissions, as the real refresh schedule does.
      if (sub == 1) ctx.refresh();
    }
  }
}

TYPED_TEST(KernelTest, SnipVerifierAcceptsThroughWholeProtocol) {
  using F = TypeParam;
  // End-to-end sanity on the bits circuit: engine-computed local states
  // drive the same four-round protocol to the same accept decision.
  SecureRng rng(9);
  const size_t kServers = 3, kBits = 8;
  CircuitBuilder<F> b(kBits);
  for (size_t i = 0; i < kBits; ++i) b.assert_bit(b.input(i));
  Circuit<F> circuit = b.build();
  SnipProver<F> prover(&circuit);
  VerificationContext<F> ctx(&circuit, kServers, 77);
  SnipVerifier<F> verifier(&circuit);

  for (int valid = 0; valid <= 1; ++valid) {
    std::vector<F> x(kBits, F::one());
    if (!valid) x[2] = F::from_u64(5);
    auto ext = prover.build_extended_input(x, rng);
    auto shares = share_vector<F>(ext, kServers, rng);

    std::vector<SnipLocalState<F>> states;
    for (size_t i = 0; i < kServers; ++i) {
      states.push_back(
          verifier.local_check(ctx, i, std::span<const F>(shares[i])));
    }
    EXPECT_EQ(snip_decide(ctx, std::span<const SnipLocalState<F>>(states)),
              valid == 1);
  }
}

}  // namespace
}  // namespace prio
