// Equivalence tests for the bulk field kernels (field/kernels.h) and the
// allocation-free SNIP verification engine (SnipVerifier): every kernel
// must compute exactly the same field elements as the scalar reference
// implementation, on random spans and on boundary values, and the engine
// must produce bit-identical SnipLocalState to the legacy
// snip_local_check on random circuits and on every catalogue AFE.

#include <gtest/gtest.h>

#include "afe/registry.h"
#include "circuit/circuit.h"
#include "crypto/rng.h"
#include "field/kernels.h"
#include "poly/lagrange.h"
#include "random_circuit.h"
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
  std::vector<F> ref(n);

  std::vector<F> inplace = a;
  kernels::vec_sub_inplace<F>(std::span<F>(inplace), b);
  for (size_t i = 0; i < n; ++i) ref[i] = a[i] - b[i];
  EXPECT_EQ(inplace, ref);

  inplace = a;
  kernels::vec_add_inplace<F>(std::span<F>(inplace), b);
  for (size_t i = 0; i < n; ++i) ref[i] = a[i] + b[i];
  EXPECT_EQ(inplace, ref);

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
void expect_states_identical(const SnipLocalState<F>& a,
                             const SnipLocalState<F>& b) {
  EXPECT_EQ(a.f_r, b.f_r);
  EXPECT_EQ(a.g_r, b.g_r);
  EXPECT_EQ(a.h_r, b.h_r);
  EXPECT_EQ(a.out_combo, b.out_combo);
}

// The engine's composed rows against the reference, which evaluates every
// wire: every server index, across several refreshes of r.
TYPED_TEST(KernelTest, SnipVerifierMatchesLegacyOnRandomCircuits) {
  using F = TypeParam;
  SecureRng rng(7);
  const size_t kServers = 3;
  for (int trial = 0; trial < 24; ++trial) {
    const size_t n_inputs = 1 + rng.next_below(trial < 12 ? 8 : 64);
    const size_t n_gates =
        1 + rng.next_below(trial < 12 ? 24 : 400);  // up to a few hundred
    Circuit<F> circuit = test::random_circuit<F>(rng, n_inputs, n_gates);
    SnipProver<F> prover(&circuit);
    VerificationContext<F> ctx(&circuit, kServers, 1000 + trial);
    SnipVerifier<F> verifier(&circuit);  // one scratch reused throughout

    for (int refresh = 0; refresh < 4; ++refresh) {
      for (int sub = 0; sub < 2; ++sub) {
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
      }
      ctx.refresh();  // r rotates, as the real refresh schedule does
    }
  }
}

// The rollback/restore replay draws every r but builds the rows once; it
// must land on exactly the state of the same context refreshed k times.
TYPED_TEST(KernelTest, ReplayedContextEqualsRefreshedContext) {
  using F = TypeParam;
  SecureRng rng(8);
  Circuit<F> circuit = test::random_circuit<F>(rng, 6, 60);
  VerificationContext<F> refreshed(&circuit, 3, 555);
  for (u64 k = 1; k <= 5; ++k) {
    VerificationContext<F> replayed(&circuit, 3, 555);
    replayed.refresh();  // any state; the replay rewinds the schedule
    replayed.replay_refreshes(k);
    EXPECT_EQ(replayed.r(), refreshed.r()) << k;
    EXPECT_EQ(replayed.out_coeffs(), refreshed.out_coeffs()) << k;
    EXPECT_EQ(replayed.row_n(), refreshed.row_n()) << k;
    EXPECT_EQ(replayed.row_2n(), refreshed.row_2n()) << k;
    EXPECT_EQ(replayed.f_row(), refreshed.f_row()) << k;
    EXPECT_EQ(replayed.g_row(), refreshed.g_row()) << k;
    EXPECT_EQ(replayed.out_row(), refreshed.out_row()) << k;
    refreshed.refresh();
  }
}

// Every catalogue AFE's Valid circuit: the engine equals the reference on
// honest shares and on shares of a tampered proof, and the whole protocol
// run on engine states accepts the first and rejects the second.
TYPED_TEST(KernelTest, SnipVerifierMatchesLegacyOnEveryCatalogueAfe) {
  using F = TypeParam;
  const size_t kServers = 3;
  for (const auto& text : afe::catalogue_specs()) {
    afe::with_afe<F>(afe::parse_afe_spec(text), [&](const auto& a,
                                                    const afe::AfeSpec&) {
      SecureRng rng(21);
      const Circuit<F>& circuit = a.valid_circuit();
      SnipProver<F> prover(&circuit);
      VerificationContext<F> ctx(&circuit, kServers, 4242);
      SnipVerifier<F> verifier(&circuit);
      const SnipLayout& lay = prover.layout();
      for (u64 cid = 0; cid < 4; ++cid) {
        auto ext = prover.build_extended_input(
            a.encode(afe::sample_input(a, cid)), rng);
        for (int honest = 1; honest >= 0; --honest) {
          if (!honest) {
            // Tamper one proof element: f(0), g(0) or a point of h.
            ext[lay.off_f0() + rng.next_below(2 + lay.h_len)] += F::one();
          }
          auto shares = share_vector<F>(ext, kServers, rng);
          std::vector<SnipLocalState<F>> states;
          for (size_t i = 0; i < kServers; ++i) {
            states.push_back(
                verifier.local_check(ctx, i, std::span<const F>(shares[i])));
            expect_states_identical(
                snip_local_check(ctx, i, std::span<const F>(shares[i])),
                states.back());
          }
          EXPECT_EQ(
              snip_decide(std::span<const SnipLocalState<F>>(states)),
              honest == 1)
              << text << " cid " << cid;
        }
        ctx.refresh();
      }
      return 0;
    });
  }
}

TYPED_TEST(KernelTest, SnipVerifierAcceptsThroughWholeProtocol) {
  using F = TypeParam;
  // End-to-end sanity on the bits circuit: engine-computed local states,
  // summed as the batch leader sums them, reach the same accept decision.
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
    EXPECT_EQ(snip_decide(std::span<const SnipLocalState<F>>(states)),
              valid == 1);
  }
}

}  // namespace
}  // namespace prio
