// SNIP protocol tests: completeness over random valid inputs, soundness
// against a malicious-client fuzzer that perturbs every part of the proof,
// zero-knowledge smoke checks, and the Beaver-MPC (Prio-MPC) variant.

#include <gtest/gtest.h>

#include <string>

#include "afe/registry.h"
#include "circuit/circuit.h"
#include "crypto/rng.h"
#include "random_circuit.h"
#include "snip/mpc.h"
#include "snip/snip.h"

namespace prio {
namespace {

// Valid circuit: every input is a bit. (The paper's running example.)
template <PrimeField F>
Circuit<F> bits_circuit(size_t n) {
  CircuitBuilder<F> b(n);
  for (size_t i = 0; i < n; ++i) b.assert_bit(b.input(i));
  return b.build();
}

template <typename F>
class SnipTest : public ::testing::Test {};

using FieldTypes = ::testing::Types<Fp64, Fp128>;
TYPED_TEST_SUITE(SnipTest, FieldTypes);

TYPED_TEST(SnipTest, CompletenessOnValidInputs) {
  using F = TypeParam;
  SecureRng rng(1);
  for (size_t L : {1, 2, 7, 32}) {
    auto circuit = bits_circuit<F>(L);
    SnipProver<F> prover(&circuit);
    VerificationContext<F> ctx(&circuit, 3, /*shared_seed=*/99);
    for (int trial = 0; trial < 5; ++trial) {
      std::vector<F> x;
      for (size_t i = 0; i < L; ++i) x.push_back(F::from_u64(rng.next_u64() & 1));
      auto ext = prover.build_extended_input(x, rng);
      auto shares = share_vector<F>(ext, 3, rng);
      EXPECT_TRUE(snip_verify_all(ctx, shares)) << "L=" << L;
    }
  }
}

TYPED_TEST(SnipTest, RejectsOutOfRangeInputs) {
  using F = TypeParam;
  SecureRng rng(2);
  auto circuit = bits_circuit<F>(8);
  SnipProver<F> prover(&circuit);
  VerificationContext<F> ctx(&circuit, 2, 7);
  // A cheating client submits x with a non-bit entry but otherwise builds
  // the proof honestly (the "encrypt 2 instead of 1" attack from §1).
  std::vector<F> x(8, F::one());
  x[3] = F::from_u64(2);
  auto ext = prover.build_extended_input(x, rng);
  auto shares = share_vector<F>(ext, 2, rng);
  EXPECT_FALSE(snip_verify_all(ctx, shares));
}

TYPED_TEST(SnipTest, SoundnessUnderProofFuzzing) {
  using F = TypeParam;
  SecureRng rng(3);
  const size_t L = 4;
  auto circuit = bits_circuit<F>(L);
  SnipProver<F> prover(&circuit);
  VerificationContext<F> ctx(&circuit, 2, 11);
  const SnipLayout& lay = prover.layout();

  std::vector<F> x(L, F::one());
  x[0] = F::from_u64(5);  // invalid input

  // The adversary perturbs every single component of the extended vector
  // (h points, f(0), g(0), even x itself) trying to slip the invalid x
  // past the servers. All attempts must fail.
  int accepted = 0, attempts = 0;
  auto base = prover.build_extended_input(x, rng);
  for (size_t pos = 0; pos < lay.total_len(); ++pos) {
    auto ext = base;
    ext[pos] += F::from_u64(1 + (rng.next_u64() % 1000));
    // x itself fuzzed: input might become valid; skip those rare cases.
    if (circuit.is_valid(std::span<const F>(ext.data(), L))) continue;
    auto shares = share_vector<F>(ext, 2, rng);
    ++attempts;
    accepted += snip_verify_all(ctx, shares) ? 1 : 0;
  }
  EXPECT_GT(attempts, 0);
  EXPECT_EQ(accepted, 0);
}

// Runs one extended input through the reference check (snip_verify_all)
// and through the engine + snip_decide; returns how many of the two
// accepted it.
template <PrimeField F>
int accepts_of_both_checks(const VerificationContext<F>& ctx,
                           SnipVerifier<F>& verifier,
                           const std::vector<F>& ext, SecureRng& rng) {
  auto shares = share_vector<F>(ext, ctx.num_servers(), rng);
  std::vector<SnipLocalState<F>> states;
  for (size_t j = 0; j < shares.size(); ++j) {
    states.push_back(
        verifier.local_check(ctx, j, std::span<const F>(shares[j])));
  }
  return (snip_verify_all(ctx, shares) ? 1 : 0) +
         (snip_decide(std::span<const SnipLocalState<F>>(states)) ? 1 : 0);
}

// f(0) and g(0) are what mask f-hat(r) and g-hat(r) when they are opened.
// A client that ships f(0) or g(0) off from the values h was built from
// (on a valid input, so only the proof can fail) moves F * G away from H
// by lambda_0(r) * G (resp. F), nonzero off the domain: both checks
// reject.
TYPED_TEST(SnipTest, TamperedFZeroOrGZeroRejected) {
  using F = TypeParam;
  SecureRng rng(4);
  auto circuit = bits_circuit<F>(4);
  SnipProver<F> prover(&circuit);
  VerificationContext<F> ctx(&circuit, 3, 13);
  SnipVerifier<F> verifier(&circuit);
  const SnipLayout& lay = prover.layout();
  std::vector<F> x(4, F::one());
  int accepted = 0;
  for (size_t pos : {lay.off_f0(), lay.off_g0()}) {
    for (int trial = 0; trial < 10; ++trial) {
      auto ext = prover.build_extended_input(x, rng);
      ASSERT_EQ(accepts_of_both_checks(ctx, verifier, ext, rng), 2);
      ext[pos] += F::from_u64(1 + trial);
      accepted += accepts_of_both_checks(ctx, verifier, ext, rng);
    }
  }
  EXPECT_EQ(accepted, 0);
}

// A valid input whose h claims a different output for one multiplication
// gate (its even point 2(1+t)) -- e.g. to steer which value the servers
// aggregate: h no longer equals f * g and the identity test catches it,
// in both checks, for every gate.
TYPED_TEST(SnipTest, TamperedGateHPointRejected) {
  using F = TypeParam;
  SecureRng rng(5);
  auto circuit = bits_circuit<F>(3);
  SnipProver<F> prover(&circuit);
  VerificationContext<F> ctx(&circuit, 3, 17);
  SnipVerifier<F> verifier(&circuit);
  const SnipLayout& lay = prover.layout();
  std::vector<F> x(3, F::one());
  int accepted = 0;
  for (size_t t = 0; t < lay.num_mul; ++t) {
    for (int trial = 0; trial < 5; ++trial) {
      auto ext = prover.build_extended_input(x, rng);
      ext[lay.off_h() + 2 * (1 + t)] += F::from_u64(1 + trial);
      accepted += accepts_of_both_checks(ctx, verifier, ext, rng);
    }
  }
  EXPECT_EQ(accepted, 0);
}

// A bits_circuit(16) proof drops 15 known zeros of h, so its shipped h
// ends in an odd-points-only tail that a random tamper over
// bits_circuit(3) (which drops nothing) never reaches. Every tail point,
// tampered in turn, must be rejected by the reference check and the
// engine alike.
TYPED_TEST(SnipTest, WrongHInTheOddOnlyTailRejected) {
  using F = TypeParam;
  SecureRng rng(13);
  auto circuit = bits_circuit<F>(16);
  SnipProver<F> prover(&circuit);
  VerificationContext<F> ctx(&circuit, 3, 19);
  SnipVerifier<F> verifier(&circuit);
  const SnipLayout& lay = prover.layout();
  const size_t tail = 2 * lay.num_mul + 2;
  ASSERT_EQ(lay.h_len - tail, 15u);
  std::vector<F> x(16, F::one());
  int accepted = 0;
  for (size_t i = tail; i < lay.h_len; ++i) {
    ASSERT_EQ(lay.h_point(i) % 2, 1u) << i;
    auto ext = prover.build_extended_input(x, rng);
    ext[lay.off_h() + i] += F::from_u64(1 + (rng.next_u64() % 1000));
    accepted += accepts_of_both_checks(ctx, verifier, ext, rng);
  }
  EXPECT_EQ(accepted, 0);
}

// The shipped layout pinned against an independent prover that ships all 2N
// points of h, with the same RNG draws (u0, v0). It
// evaluates f and g on the whole 2N domain with two size-2N transforms, a
// different route from SnipProver's coset NTT.
template <PrimeField F>
std::vector<F> full_h_extended_input(const Circuit<F>& circuit,
                                     std::span<const F> x, SecureRng& rng) {
  const size_t n = next_pow2(circuit.num_mul_gates() + 1);
  std::vector<F> wires = circuit.evaluate(x);
  std::vector<F> left, right;
  circuit.mul_gate_inputs(wires, &left, &right);
  std::vector<F> f(n, F::zero()), g(n, F::zero());
  const F u0 = rng.field_element<F>();
  const F v0 = rng.field_element<F>();
  f[0] = u0;
  g[0] = v0;
  for (size_t t = 0; t < left.size(); ++t) {
    f[1 + t] = left[t];
    g[1 + t] = right[t];
  }
  NttDomain<F> dom_n(n), dom_2n(2 * n);
  dom_n.inverse(f);
  dom_n.inverse(g);
  f.resize(2 * n, F::zero());
  g.resize(2 * n, F::zero());
  dom_2n.forward(f);
  dom_2n.forward(g);
  std::vector<F> ext(x.begin(), x.end());
  ext.push_back(u0);
  ext.push_back(v0);
  for (size_t d = 0; d < 2 * n; ++d) ext.push_back(f[d] * g[d]);
  return ext;
}

// The prover's extended input against full_h_extended_input's, on one
// circuit, input and RNG seed: bit-identical once h's known zeros (its
// even points 2t, t = M+1..N-1) are dropped from the full vector, every
// dropped point zero, h_point mapping each shipped index to its domain
// point, and h-hat(r) over the shipped points equal to the full 2N-point
// sum.
template <PrimeField F>
void expect_shipped_h_is_full_h(const Circuit<F>& circuit,
                                std::span<const F> x, u64 seed,
                                const std::string& what) {
  SCOPED_TRACE(what + " seed=" + std::to_string(seed));
  SnipProver<F> prover(&circuit);
  VerificationContext<F> ctx(&circuit, 2, 43);
  const SnipLayout& lay = prover.layout();
  const size_t m = lay.num_mul, n = lay.n;
  ASSERT_EQ(lay.h_len, n + m + 1);
  // M+1 a power of two: nothing is dropped and the layout is the full one.
  if (m + 1 == n) {
    EXPECT_EQ(lay.h_len, 2 * n);
  }

  SecureRng rng_new(seed), rng_full(seed);
  const auto ext = prover.build_extended_input(x, rng_new);
  const auto full = full_h_extended_input<F>(circuit, x, rng_full);
  ASSERT_EQ(full.size(), lay.total_len() + (2 * n - lay.h_len));

  std::vector<F> expect;
  std::vector<size_t> shipped;
  for (size_t i = 0; i < full.size(); ++i) {
    const bool in_h = i >= lay.off_h() && i < lay.off_h() + 2 * n;
    const size_t d = i - lay.off_h();
    if (in_h && d % 2 == 0 && d / 2 > m) {
      EXPECT_TRUE(full[i].is_zero()) << "d=" << d;
      continue;
    }
    if (in_h) shipped.push_back(d);
    expect.push_back(full[i]);
  }
  EXPECT_EQ(ext, expect);
  ASSERT_EQ(shipped.size(), lay.h_len);
  for (size_t i = 0; i < lay.h_len; ++i) {
    EXPECT_EQ(lay.h_point(i), shipped[i]) << "i=" << i;
  }

  const auto full_row = lagrange_eval_row(NttDomain<F>(2 * n), ctx.r());
  EXPECT_EQ(inner_product(ctx.row_2n(), std::span<const F>(ext).subspan(
                                            lay.off_h(), lay.h_len)),
            inner_product(full_row, std::span<const F>(full).subspan(
                                        lay.off_h(), 2 * n)));
}

// The prover takes h's even points from the values it holds and its odd
// points from a size-N coset NTT; the reference evaluates f and g on the
// whole 2N domain. Pinned on bits circuits, on random circuits (the
// generator and sizes of KernelTest.SnipVerifierMatchesLegacyOnRandomCircuits)
// and on the bench workloads' circuits, several RNG seeds each.
TYPED_TEST(SnipTest, ShippedHIsFullHWithoutItsKnownZeros) {
  using F = TypeParam;
  for (size_t L : {3, 7, 16}) {
    const auto circuit = bits_circuit<F>(L);
    SecureRng pick(L);
    std::vector<F> x;
    for (size_t i = 0; i < L; ++i) x.push_back(F::from_u64(pick.next_u64() & 1));
    expect_shipped_h_is_full_h<F>(circuit, x, 100 + L,
                                  "bits L=" + std::to_string(L));
  }
  SecureRng rng(7);
  for (int trial = 0; trial < 24; ++trial) {
    const size_t n_inputs = 1 + rng.next_below(trial < 12 ? 8 : 64);
    const size_t n_gates = 1 + rng.next_below(trial < 12 ? 24 : 400);
    const auto circuit = test::random_circuit<F>(rng, n_inputs, n_gates);
    for (u64 seed : {1, 2, 3}) {
      std::vector<F> x(n_inputs);
      for (auto& v : x) v = rng.field_element<F>();
      expect_shipped_h_is_full_h<F>(circuit, x, seed,
                                    "random trial " + std::to_string(trial));
    }
  }
  for (const char* spec : {"bitvec_sum:len=1024", "bitvec_sum:len=32",
                           "linreg:bits=14,dims=8"}) {
    afe::with_afe<F>(
        afe::parse_afe_spec(spec), [&](const auto& a, const afe::AfeSpec&) {
          for (u64 cid : {0, 1, 2}) {
            const std::vector<F> x = a.encode(afe::sample_input(a, cid));
            expect_shipped_h_is_full_h<F>(a.valid_circuit(), x, 100 + cid,
                                          spec);
          }
          return 0;
        });
  }
}

TYPED_TEST(SnipTest, WorksWithCompressedShares) {
  using F = TypeParam;
  SecureRng rng(6);
  auto circuit = bits_circuit<F>(16);
  SnipProver<F> prover(&circuit);
  VerificationContext<F> ctx(&circuit, 5, 23);
  std::vector<F> x(16, F::zero());
  x[5] = F::one();
  auto ext = prover.build_extended_input(x, rng);
  auto cs = share_vector_compressed<F>(ext, 5, rng);
  std::vector<std::vector<F>> shares;
  for (const auto& seed : cs.seeds) {
    shares.push_back(expand_share_seed<F>(seed, ext.size()));
  }
  shares.push_back(cs.explicit_share);
  EXPECT_TRUE(snip_verify_all(ctx, shares));
}

TYPED_TEST(SnipTest, AffineOnlyCircuitStillChecked) {
  using F = TypeParam;
  // Circuit with zero mul gates: x0 + x1 == 10. Output check alone.
  CircuitBuilder<F> b(2);
  b.assert_equals(b.add(b.input(0), b.input(1)), F::from_u64(10));
  auto circuit = b.build();
  ASSERT_EQ(circuit.num_mul_gates(), 0u);
  SnipProver<F> prover(&circuit);
  VerificationContext<F> ctx(&circuit, 2, 29);
  SecureRng rng(7);
  std::vector<F> good = {F::from_u64(4), F::from_u64(6)};
  std::vector<F> bad = {F::from_u64(4), F::from_u64(7)};
  auto ext_good = prover.build_extended_input(good, rng);
  auto ext_bad = prover.build_extended_input(bad, rng);
  EXPECT_TRUE(snip_verify_all(ctx, share_vector<F>(ext_good, 2, rng)));
  EXPECT_FALSE(snip_verify_all(ctx, share_vector<F>(ext_bad, 2, rng)));
}

TYPED_TEST(SnipTest, RefreshChangesQueryPoint) {
  using F = TypeParam;
  auto circuit = bits_circuit<F>(4);
  VerificationContext<F> ctx(&circuit, 2, 31);
  F r1 = ctx.r();
  ctx.refresh();
  F r2 = ctx.r();
  EXPECT_NE(r1, r2);
  // Still verifies after refresh.
  SecureRng rng(8);
  SnipProver<F> prover(&circuit);
  std::vector<F> x(4, F::one());
  auto ext = prover.build_extended_input(x, rng);
  EXPECT_TRUE(snip_verify_all(ctx, share_vector<F>(ext, 2, rng)));
}

// Zero-knowledge smoke test of the opened values: for x = 0 and x = 1
// alike, the summed F = f-hat(r) and G = g-hat(r) scatter (f(0) and g(0)
// mask them), H == F * G and O == 0 -- the (U, V, U*V, 0) distribution a
// simulator produces without x.
TYPED_TEST(SnipTest, BroadcastValuesDoNotDependOnInput) {
  using F = TypeParam;
  auto circuit = bits_circuit<F>(2);
  SnipProver<F> prover(&circuit);
  VerificationContext<F> ctx(&circuit, 2, 37);
  SecureRng rng(9);

  // Low bytes of the opened F and G over 64 proofs of x.
  auto run_opened = [&](std::vector<F> x) {
    std::vector<u64> fs, gs;
    for (int i = 0; i < 64; ++i) {
      auto ext = prover.build_extended_input(x, rng);
      auto shares = share_vector<F>(ext, 2, rng);
      SnipLocalState<F> total =
          snip_local_check(ctx, 0, std::span<const F>(shares[0]));
      total += snip_local_check(ctx, 1, std::span<const F>(shares[1]));
      EXPECT_EQ(total.f_r * total.g_r, total.h_r);
      EXPECT_TRUE(total.out_combo.is_zero());
      u8 buf[F::kByteLen];
      total.f_r.to_bytes(buf);
      fs.push_back(buf[0]);  // low byte as a crude histogram key
      total.g_r.to_bytes(buf);
      gs.push_back(buf[0]);
    }
    return std::pair{fs, gs};
  };

  // Each sequence should look scattered: more than 32 distinct low bytes
  // out of 64 draws with overwhelming probability if uniform.
  auto distinct = [](std::vector<u64> v) {
    std::sort(v.begin(), v.end());
    return std::unique(v.begin(), v.end()) - v.begin();
  };
  for (u64 bit : {0, 1}) {
    const auto [fs, gs] = run_opened({F::from_u64(bit), F::from_u64(bit)});
    EXPECT_GT(distinct(fs), 32) << "x = " << bit;
    EXPECT_GT(distinct(gs), 32) << "x = " << bit;
  }
}

// ---------- Prio-MPC (Beaver evaluation at the servers) ----------

TYPED_TEST(SnipTest, BeaverMpcEvaluatesCircuit) {
  using F = TypeParam;
  SecureRng rng(10);
  const size_t L = 8, s = 3;
  auto circuit = bits_circuit<F>(L);

  std::vector<F> x;
  for (size_t i = 0; i < L; ++i) x.push_back(F::from_u64(i % 2));

  auto triples = make_beaver_triples<F>(circuit.num_mul_gates(), rng);
  auto x_shares = share_vector<F>(x, s, rng);
  auto t_shares = share_vector<F>(triples, s, rng);

  std::vector<BeaverMpcSession<F>> sessions;
  sessions.reserve(s);
  for (size_t i = 0; i < s; ++i) {
    sessions.emplace_back(&circuit, s, i, x_shares[i], t_shares[i]);
  }
  while (!sessions[0].done()) {
    std::vector<std::pair<F, F>> totals;
    for (size_t i = 0; i < s; ++i) {
      auto msgs = sessions[i].round_messages();
      if (totals.empty()) totals.assign(msgs.size(), {F::zero(), F::zero()});
      for (size_t j = 0; j < msgs.size(); ++j) {
        totals[j].first += msgs[j].first;
        totals[j].second += msgs[j].second;
      }
    }
    for (size_t i = 0; i < s; ++i) sessions[i].resolve_round(totals);
  }
  // Sum output shares: all outputs must be zero for a valid input.
  std::vector<F> outs(circuit.outputs().size(), F::zero());
  for (size_t i = 0; i < s; ++i) {
    auto o = sessions[i].output_shares();
    for (size_t j = 0; j < o.size(); ++j) outs[j] += o[j];
  }
  for (const auto& o : outs) EXPECT_TRUE(o.is_zero());
}

TYPED_TEST(SnipTest, BeaverMpcCatchesInvalidInput) {
  using F = TypeParam;
  SecureRng rng(11);
  const size_t L = 4, s = 2;
  auto circuit = bits_circuit<F>(L);
  std::vector<F> x(L, F::from_u64(7));  // not bits

  auto triples = make_beaver_triples<F>(circuit.num_mul_gates(), rng);
  auto x_shares = share_vector<F>(x, s, rng);
  auto t_shares = share_vector<F>(triples, s, rng);
  std::vector<BeaverMpcSession<F>> sessions;
  for (size_t i = 0; i < s; ++i) {
    sessions.emplace_back(&circuit, s, i, x_shares[i], t_shares[i]);
  }
  while (!sessions[0].done()) {
    std::vector<std::pair<F, F>> totals;
    for (size_t i = 0; i < s; ++i) {
      auto msgs = sessions[i].round_messages();
      if (totals.empty()) totals.assign(msgs.size(), {F::zero(), F::zero()});
      for (size_t j = 0; j < msgs.size(); ++j) {
        totals[j].first += msgs[j].first;
        totals[j].second += msgs[j].second;
      }
    }
    for (size_t i = 0; i < s; ++i) sessions[i].resolve_round(totals);
  }
  bool any_nonzero = false;
  std::vector<F> outs(circuit.outputs().size(), F::zero());
  for (size_t i = 0; i < s; ++i) {
    auto o = sessions[i].output_shares();
    for (size_t j = 0; j < o.size(); ++j) outs[j] += o[j];
  }
  for (const auto& o : outs) any_nonzero = any_nonzero || !o.is_zero();
  EXPECT_TRUE(any_nonzero);
}

TYPED_TEST(SnipTest, TripleCheckCircuitGuardsMpcTriples) {
  using F = TypeParam;
  SecureRng rng(12);
  auto triples = make_beaver_triples<F>(5, rng);
  auto check = make_triple_check_circuit<F>(5);
  EXPECT_TRUE(check.is_valid(triples));
  triples[2] += F::one();  // corrupt one c
  EXPECT_FALSE(check.is_valid(triples));

  // And the SNIP over the triple-check circuit rejects the bad triples.
  SnipProver<F> prover(&check);
  VerificationContext<F> ctx(&check, 2, 41);
  auto ext = prover.build_extended_input(triples, rng);
  EXPECT_FALSE(snip_verify_all(ctx, share_vector<F>(ext, 2, rng)));
}

}  // namespace
}  // namespace prio
