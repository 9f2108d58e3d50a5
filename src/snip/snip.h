// Secret-shared non-interactive proofs (SNIPs) -- the core contribution of
// the Prio paper (Section 4), with all three Appendix I optimizations:
//
//  1. PRG share compression happens one layer up (share/share.h): the whole
//     extended submission (x || proof) is one flat vector in F^k that can be
//     split with seeds.
//  2. Verification without interpolation: gate t lives at the domain point
//     w^t of a power-of-two root-of-unity domain, the client ships h in
//     point-value form on the double domain, and the servers evaluate
//     f-hat, g-hat, h-hat at the fixed secret point r with precomputed
//     Lagrange rows (Theta(M) multiplications, no FFT on the server).
//  3. Valid circuits have zero-valued outputs and the servers test a random
//     linear combination of all outputs against zero.
//
// Protocol recap. The client evaluates Valid(x), forms the lowest-degree
// polynomials f, g through the left/right inputs of the M multiplication
// gates (randomized at the extra point w^0 for zero knowledge), computes
// h = f*g, and sends each server additive shares of
//
//     pi = ( f(0), g(0), h, a, b, c )        with  a*b = c  (Beaver triple).
//
// Each server locally reconstructs shares of every wire value (mul-gate
// outputs come from h's even points), evaluates its shares of f-hat, g-hat,
// h-hat at r, and the servers run one Beaver multiplication to obtain
// additive shares of  sigma = r * (f-hat(r) * g-hat(r) - h-hat(r)).  They
// publish sigma shares plus shares of the combined output wires and accept
// iff both sums are zero. Soundness error <= (2N+1)/(|F| - 2N) per query
// point (Appendix D.1); zero-knowledge is information-theoretic (D.2).
//
// This module is transport-agnostic: it computes the values each server
// must broadcast, and the pipeline in src/core moves them over the
// simulated network.
#pragma once

#include <vector>

#include "circuit/circuit.h"
#include "crypto/rng.h"
#include "field/kernels.h"
#include "poly/lagrange.h"
#include "poly/ntt.h"
#include "share/share.h"

namespace prio {

// Offsets of the proof fields inside the flat extended submission vector
//   [ x (L) | f(0) | g(0) | h (2N points) | a | b | c ].
struct SnipLayout {
  size_t input_len = 0;  // L
  size_t num_mul = 0;    // M
  size_t n = 0;          // next_pow2(M + 1): size of the f/g domain
  size_t h_len = 0;      // 2N: h is shipped in point-value form

  static SnipLayout for_circuit_dims(size_t input_len, size_t num_mul) {
    SnipLayout l;
    l.input_len = input_len;
    l.num_mul = num_mul;
    l.n = next_pow2(num_mul + 1);
    l.h_len = 2 * l.n;
    return l;
  }

  size_t off_f0() const { return input_len; }
  size_t off_g0() const { return input_len + 1; }
  size_t off_h() const { return input_len + 2; }
  size_t off_a() const { return input_len + 2 + h_len; }
  size_t off_b() const { return off_a() + 1; }
  size_t off_c() const { return off_a() + 2; }
  size_t total_len() const { return input_len + 2 + h_len + 3; }
};

// ---------------------------------------------------------------------------
// Prover (client side)
// ---------------------------------------------------------------------------

template <PrimeField F>
class SnipProver {
 public:
  explicit SnipProver(const Circuit<F>* circuit)
      : circuit_(circuit),
        layout_(SnipLayout::for_circuit_dims(circuit->num_inputs(),
                                             circuit->num_mul_gates())),
        dom_n_(layout_.n),
        dom_2n_(layout_.h_len) {}

  const SnipLayout& layout() const { return layout_; }

  // Builds the flat extended submission (x || proof). The caller splits it
  // into per-server shares with share_vector() or share_vector_compressed().
  std::vector<F> build_extended_input(std::span<const F> x,
                                      SecureRng& rng) const {
    require(x.size() == layout_.input_len, "SnipProver: input length");
    const size_t n = layout_.n;

    // Wire values and the mul-gate input sequences u_t, v_t.
    std::vector<F> wires = circuit_->evaluate(x);
    std::vector<F> left, right;
    circuit_->mul_gate_inputs(wires, &left, &right);

    // f and g through (w^0 -> random), (w^t -> gate t inputs), 0-padded.
    F u0 = rng.field_element<F>();
    F v0 = rng.field_element<F>();
    std::vector<F> f_evals(n, F::zero()), g_evals(n, F::zero());
    f_evals[0] = u0;
    g_evals[0] = v0;
    for (size_t t = 0; t < left.size(); ++t) {
      f_evals[1 + t] = left[t];
      g_evals[1 + t] = right[t];
    }

    // Interpolate (inverse NTT), then evaluate on the double-size domain
    // and multiply pointwise: h = f * g in point-value form. O(M log M).
    dom_n_.inverse(f_evals);  // now coefficients
    dom_n_.inverse(g_evals);
    f_evals.resize(2 * n, F::zero());
    g_evals.resize(2 * n, F::zero());
    dom_2n_.forward(f_evals);  // now evaluations on the 2N domain
    dom_2n_.forward(g_evals);
    std::vector<F> h_points(2 * n);
    for (size_t i = 0; i < 2 * n; ++i) h_points[i] = f_evals[i] * g_evals[i];

    // Beaver triple.
    F a = rng.field_element<F>();
    F b = rng.field_element<F>();
    F c = a * b;

    std::vector<F> ext;
    ext.reserve(layout_.total_len());
    ext.insert(ext.end(), x.begin(), x.end());
    ext.push_back(u0);
    ext.push_back(v0);
    ext.insert(ext.end(), h_points.begin(), h_points.end());
    ext.push_back(a);
    ext.push_back(b);
    ext.push_back(c);
    return ext;
  }

 private:
  const Circuit<F>* circuit_;
  SnipLayout layout_;
  NttDomain<F> dom_n_;
  NttDomain<F> dom_2n_;
};

// ---------------------------------------------------------------------------
// Verification context (secret state shared by the servers)
// ---------------------------------------------------------------------------

// The servers share a secret evaluation point r plus random output-wire
// combination coefficients, derived from a common seed the clients never
// see. Per Appendix I, r is reused across a batch of Q submissions and
// resampled periodically; the Lagrange rows for r are precomputed here once
// per refresh.
template <PrimeField F>
class VerificationContext {
 public:
  VerificationContext(const Circuit<F>* circuit, size_t num_servers,
                      u64 shared_seed)
      : circuit_(circuit),
        layout_(SnipLayout::for_circuit_dims(circuit->num_inputs(),
                                             circuit->num_mul_gates())),
        num_servers_(num_servers),
        dom_n_(layout_.n),
        dom_2n_(layout_.h_len),
        rng_(shared_seed) {
    require(num_servers >= 2, "VerificationContext: need >= 2 servers");
    s_inv_ = F::from_u64(num_servers).inv();
    refresh();
  }

  // Resamples r and the output coefficients; rebuilds the Lagrange rows.
  void refresh() {
    do {
      r_ = rng_.field_element<F>();
    } while (in_domain(r_));
    row_n_ = lagrange_eval_row(dom_n_, r_);
    row_2n_ = lagrange_eval_row(dom_2n_, r_);
    out_coeffs_.resize(circuit_->outputs().size());
    for (F& c : out_coeffs_) c = rng_.field_element<F>();
    since_refresh_ = 0;
  }

  // Batch-friendly refresh policy. r may be reused for at most
  // `refresh_every` submissions; the pipelines track submissions since the
  // last refresh here rather than testing processed % refresh_every, which
  // silently skips the boundary when a batch of Q crosses it.
  size_t submissions_since_refresh() const { return since_refresh_; }
  void note_submissions(size_t count) { since_refresh_ += count; }
  // Restores the refresh-window position after an aborted batch attempt
  // (server/node.h rolls a failed distributed batch back to its pre-batch
  // state so the mesh can retry it after a peer restart).
  void set_submissions_since_refresh(size_t count) { since_refresh_ = count; }
  bool refresh_due(size_t refresh_every, size_t upcoming = 1) const {
    return since_refresh_ + upcoming > refresh_every;
  }

  const Circuit<F>& circuit() const { return *circuit_; }
  const SnipLayout& layout() const { return layout_; }
  size_t num_servers() const { return num_servers_; }
  const F& r() const { return r_; }
  const F& s_inv() const { return s_inv_; }
  const std::vector<F>& row_n() const { return row_n_; }
  const std::vector<F>& row_2n() const { return row_2n_; }
  const std::vector<F>& out_coeffs() const { return out_coeffs_; }

 private:
  bool in_domain(const F& r) const {
    // r must avoid the 2N domain (h-hat row would divide by zero and the
    // gate points must stay hidden for zero knowledge).
    F x = r;
    for (size_t m = 1; m < layout_.h_len; m <<= 1) x *= x;
    return x == F::one();
  }

  const Circuit<F>* circuit_;
  SnipLayout layout_;
  size_t num_servers_;
  NttDomain<F> dom_n_;
  NttDomain<F> dom_2n_;
  SecureRng rng_;
  F r_;
  F s_inv_;
  std::vector<F> row_n_;
  std::vector<F> row_2n_;
  std::vector<F> out_coeffs_;
  size_t since_refresh_ = 0;
};

// ---------------------------------------------------------------------------
// Verifier (server side)
// ---------------------------------------------------------------------------

// Values a server derives locally from its share of the extended submission.
// d_share/e_share are broadcast in round 1; sigma + out_combo in round 2.
template <PrimeField F>
struct SnipLocalState {
  F d_share, e_share;       // [f-hat(r)] - [a],  [r*g-hat(r)] - [b]
  F a_share, b_share, c_share;
  F rh_share;               // [r * h-hat(r)]
  F out_combo;              // sum_j coeff_j * [output_j]
};

// Round-1 local computation. `ext_share` is this server's share of the
// extended submission vector; `server_index` selects who carries constants.
template <PrimeField F>
SnipLocalState<F> snip_local_check(const VerificationContext<F>& ctx,
                                   size_t server_index,
                                   std::span<const F> ext_share) {
  const SnipLayout& lay = ctx.layout();
  require(ext_share.size() == lay.total_len(), "snip_local_check: length");
  const Circuit<F>& circuit = ctx.circuit();

  std::span<const F> x = ext_share.subspan(0, lay.input_len);
  std::span<const F> h = ext_share.subspan(lay.off_h(), lay.h_len);

  // Shares of mul-gate outputs are h at even domain points: gate t (1-based
  // point index) sits at w_{2N}^{2(1+t)} = w_N^{1+t}.
  std::vector<F> mul_outputs(lay.num_mul);
  for (size_t t = 0; t < lay.num_mul; ++t) mul_outputs[t] = h[2 * (1 + t)];

  std::vector<F> wires =
      circuit.eval_shares(x, mul_outputs, /*first_server=*/server_index == 0);

  // Shares of f/g evaluations over the size-N domain.
  std::vector<F> f_evals(lay.n, F::zero()), g_evals(lay.n, F::zero());
  f_evals[0] = ext_share[lay.off_f0()];
  g_evals[0] = ext_share[lay.off_g0()];
  std::vector<F> left, right;
  circuit.mul_gate_inputs(wires, &left, &right);
  for (size_t t = 0; t < left.size(); ++t) {
    f_evals[1 + t] = left[t];
    g_evals[1 + t] = right[t];
  }

  F f_r = inner_product(ctx.row_n(), std::span<const F>(f_evals));
  F g_r = inner_product(ctx.row_n(), std::span<const F>(g_evals));
  F h_r = inner_product(ctx.row_2n(), h);

  SnipLocalState<F> st;
  st.a_share = ext_share[lay.off_a()];
  st.b_share = ext_share[lay.off_b()];
  st.c_share = ext_share[lay.off_c()];
  st.d_share = f_r - st.a_share;
  st.e_share = ctx.r() * g_r - st.b_share;
  st.rh_share = ctx.r() * h_r;

  st.out_combo = F::zero();
  std::vector<F> outs = circuit.output_values(wires);
  for (size_t j = 0; j < outs.size(); ++j) {
    st.out_combo += ctx.out_coeffs()[j] * outs[j];
  }
  return st;
}

// ---------------------------------------------------------------------------
// Batch verification engine
// ---------------------------------------------------------------------------

// Allocation-free round-1 engine: a SnipVerifier owns every scratch buffer
// the local check needs (wires, f/g evaluation tables, mul-gate outputs
// and left/right input rows, plus an extended-share landing buffer for the
// decrypt/expand step), sized once from the circuit and reused for every
// submission in a batch. The pipelines keep one SnipVerifier per worker
// thread, so the steady-state per-submission cost is zero heap
// allocations, and the three evaluate-at-r inner products run through the
// lazy-reduction kernels (field/kernels.h).
//
// local_check computes bit-identical SnipLocalState to the reference
// snip_local_check free function below (tests/test_kernels.cc holds the
// regression), so routing a pipeline through the engine can never change
// an accept/reject decision.
template <PrimeField F>
class SnipVerifier {
 public:
  explicit SnipVerifier(const Circuit<F>* circuit)
      : layout_(SnipLayout::for_circuit_dims(circuit->num_inputs(),
                                             circuit->num_mul_gates())),
        ext_(layout_.total_len(), F::zero()),
        wires_(circuit->num_wires(), F::zero()),
        mul_outputs_(layout_.num_mul, F::zero()),
        left_(layout_.num_mul, F::zero()),
        right_(layout_.num_mul, F::zero()),
        // Slots past 1 + num_mul are the zero padding of the f/g tables;
        // local_check rewrites only the prefix, so they stay zero for the
        // lifetime of the verifier.
        f_evals_(layout_.n, F::zero()),
        g_evals_(layout_.n, F::zero()) {}

  const SnipLayout& layout() const { return layout_; }

  // Landing buffer for this submission's extended-share vector: the
  // decrypt/expand step writes straight into it (open_sealed_share_into),
  // then local_check() with no span argument reads it back -- no
  // intermediate vector between expansion and verification.
  std::span<F> ext_buffer() { return ext_; }

  SnipLocalState<F> local_check(const VerificationContext<F>& ctx,
                                size_t server_index) {
    return local_check(ctx, server_index, std::span<const F>(ext_));
  }

  SnipLocalState<F> local_check(const VerificationContext<F>& ctx,
                                size_t server_index,
                                std::span<const F> ext_share) {
    const SnipLayout& lay = ctx.layout();
    require(lay.total_len() == layout_.total_len() && lay.n == layout_.n,
            "SnipVerifier: context/circuit mismatch");
    require(ext_share.size() == lay.total_len(), "SnipVerifier: length");
    const Circuit<F>& circuit = ctx.circuit();

    std::span<const F> x = ext_share.subspan(0, lay.input_len);
    std::span<const F> h = ext_share.subspan(lay.off_h(), lay.h_len);

    // Shares of mul-gate outputs are h at even domain points (gate t sits
    // at w_{2N}^{2(1+t)} = w_N^{1+t}).
    for (size_t t = 0; t < lay.num_mul; ++t) mul_outputs_[t] = h[2 * (1 + t)];
    circuit.eval_shares_into(x, mul_outputs_, /*first_server=*/server_index == 0,
                             std::span<F>(wires_));

    f_evals_[0] = ext_share[lay.off_f0()];
    g_evals_[0] = ext_share[lay.off_g0()];
    circuit.mul_gate_inputs_into(wires_, std::span<F>(left_),
                                 std::span<F>(right_));
    for (size_t t = 0; t < left_.size(); ++t) {
      f_evals_[1 + t] = left_[t];
      g_evals_[1 + t] = right_[t];
    }

    F f_r = kernels::inner_product<F>(ctx.row_n(), f_evals_);
    F g_r = kernels::inner_product<F>(ctx.row_n(), g_evals_);
    F h_r = kernels::inner_product<F>(ctx.row_2n(), h);

    SnipLocalState<F> st;
    st.a_share = ext_share[lay.off_a()];
    st.b_share = ext_share[lay.off_b()];
    st.c_share = ext_share[lay.off_c()];
    st.d_share = f_r - st.a_share;
    st.e_share = ctx.r() * g_r - st.b_share;
    st.rh_share = ctx.r() * h_r;

    st.out_combo = F::zero();
    const std::vector<u32>& outs = circuit.outputs();
    for (size_t j = 0; j < outs.size(); ++j) {
      st.out_combo += ctx.out_coeffs()[j] * wires_[outs[j]];
    }
    return st;
  }

 private:
  SnipLayout layout_;
  std::vector<F> ext_;
  std::vector<F> wires_;
  std::vector<F> mul_outputs_;
  std::vector<F> left_;
  std::vector<F> right_;
  std::vector<F> f_evals_;
  std::vector<F> g_evals_;
};

// Round-2: each server computes its sigma share from the publicly summed
// d and e (Beaver multiplication, Appendix C.2).
template <PrimeField F>
F snip_sigma_share(const VerificationContext<F>& ctx,
                   const SnipLocalState<F>& st, const F& d_total,
                   const F& e_total) {
  return d_total * e_total * ctx.s_inv() + d_total * st.b_share +
         e_total * st.a_share + st.c_share - st.rh_share;
}

// Final decision from the published sums. Accept iff sigma == 0 (polynomial
// identity test passed) and the combined outputs are 0 (Valid(x) holds).
template <PrimeField F>
bool snip_accept(const F& sigma_total, const F& out_combo_total) {
  return sigma_total.is_zero() && out_combo_total.is_zero();
}

// ---------------------------------------------------------------------------
// Whole-protocol convenience driver (in-process, used by tests and the
// client-time benchmarks; the networked protocol lives in server/node.h).
// ---------------------------------------------------------------------------

// Rounds 1-4 over every server's local state at once.
template <PrimeField F>
bool snip_decide(const VerificationContext<F>& ctx,
                 std::span<const SnipLocalState<F>> states) {
  F d = F::zero(), e = F::zero();
  for (const auto& st : states) {
    d += st.d_share;
    e += st.e_share;
  }
  F sigma = F::zero(), out = F::zero();
  for (const auto& st : states) {
    sigma += snip_sigma_share(ctx, st, d, e);
    out += st.out_combo;
  }
  return snip_accept(sigma, out);
}

template <PrimeField F>
bool snip_verify_all(const VerificationContext<F>& ctx,
                     const std::vector<std::vector<F>>& ext_shares) {
  const size_t s = ext_shares.size();
  require(s == ctx.num_servers(), "snip_verify_all: share count");
  std::vector<SnipLocalState<F>> states;
  states.reserve(s);
  for (size_t i = 0; i < s; ++i) {
    states.push_back(snip_local_check(ctx, i, std::span<const F>(ext_shares[i])));
  }
  return snip_decide(ctx, std::span<const SnipLocalState<F>>(states));
}

}  // namespace prio
