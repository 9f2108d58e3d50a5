// Secret-shared non-interactive proofs (SNIPs) -- the core contribution of
// the Prio paper (Section 4), with all three Appendix I optimizations:
//
//  1. PRG share compression happens one layer up (share/share.h): the whole
//     extended submission (x || proof) is one flat vector in F^k that can be
//     split with seeds.
//  2. Verification without interpolation: gate t lives at the domain point
//     w^t of a power-of-two root-of-unity domain, the client ships h in
//     point-value form on the double domain -- every point except the
//     N-1-M points where the zero padding of f and g makes h zero
//     (SnipLayout) -- and the servers evaluate f-hat, g-hat, h-hat at the
//     fixed secret point r with precomputed Lagrange rows (Theta(M)
//     multiplications, no FFT on the server). Once r is fixed, every
//     round-1 value is a fixed linear function of the server's share, so
//     the rows are composed with the circuit's affine wiring once per r
//     (VerificationContext::refresh) and the local check is four inner
//     products: f-hat(r), g-hat(r) and the output combination against the
//     composed rows, h-hat(r) against row_2n, the weights of the shipped
//     h points (SnipVerifier).
//  3. Valid circuits have zero-valued outputs and the servers test a random
//     linear combination of all outputs against zero.
//
// Protocol recap. The client evaluates Valid(x), forms the lowest-degree
// polynomials f, g through the left/right inputs of the M multiplication
// gates (randomized at the extra point w^0 for zero knowledge, zero at the
// padding points w^t, t = M+1..N-1), computes h = f*g, and sends each
// server additive shares of
//
//     pi = ( f(0), g(0), h, a, b, c )        with  a*b = c  (Beaver triple),
//
// where h is the N+M+1 points of f*g on the 2N domain that are not known
// zeros. Each server locally reconstructs shares of every wire value
// (mul-gate outputs come from h's even points), evaluates its shares of
// f-hat, g-hat, h-hat at r (h-hat taking the unshipped points as zero), and
// the servers run one Beaver multiplication to obtain additive shares of
// sigma = r * (f-hat(r) * g-hat(r) - h-hat(r)).  They publish sigma shares
// plus shares of the combined output wires and accept iff both sums are
// zero.
//
// Soundness and zero knowledge. A proof in this format is exactly a proof
// with all 2N points of h whose dropped points are zero: the servers'
// h-hat(r) is the same Lagrange sum over the 2N domain with those terms
// zero. So every cheating strategy against this check is one against the
// full-h check, and the soundness error stays <= (2N+1)/(|F| - 2N) per
// query point (Appendix D.1). Each server's share is a subset of its
// full-h share, so zero knowledge stays information-theoretic (D.2).
//
// This module is transport-agnostic: it computes the values each server
// must broadcast, and the pipeline in src/core moves them over the
// simulated network.
#pragma once

#include <algorithm>
#include <array>
#include <vector>

#include "circuit/circuit.h"
#include "crypto/rng.h"
#include "field/kernels.h"
#include "poly/lagrange.h"
#include "poly/ntt.h"
#include "share/share.h"

namespace prio {

// Offsets of the proof fields inside the flat extended submission vector
//   [ x (L) | f(0) | g(0) | h (N+M+1 points) | a | b | c ].
//
// h = f*g is given in point-value form on the 2N domain, but f and g are
// zero-padded at w_N^t for t = M+1..N-1, so h vanishes at the 2N-domain
// even points 2t for those t and the servers know those N-1-M values
// without reading them. Only the other N+M+1 points are shipped: domain
// points 0..2M+1 in order, then the odd points 2M+3, 2M+5, ..., 2N-1
// (h_point maps a shipped index to its domain point). Gate t's output, the
// domain point 2(1+t), is therefore shipped at off_h() + 2(1+t). When M+1
// is a power of two nothing is dropped and h_len = 2N.
struct SnipLayout {
  size_t input_len = 0;  // L
  size_t num_mul = 0;    // M
  size_t n = 0;          // next_pow2(M + 1): size of the f/g domain
  size_t h_len = 0;      // N + M + 1: the shipped points of h

  static SnipLayout for_circuit_dims(size_t input_len, size_t num_mul) {
    SnipLayout l;
    l.input_len = input_len;
    l.num_mul = num_mul;
    l.n = next_pow2(num_mul + 1);
    l.h_len = l.n + num_mul + 1;
    return l;
  }

  // The 2N-domain point of shipped h point i (0 <= i < h_len).
  size_t h_point(size_t i) const {
    return i <= 2 * num_mul + 1 ? i : 2 * i - 2 * num_mul - 1;
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
        dom_2n_(2 * layout_.n) {}

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

    // h = f * g at the shipped points of the 2N domain. Its even point 2k
    // is w_N^k, where f and g are the values above (u0, v0 and the gate
    // inputs), so those points are products the client already holds. Its
    // odd points w_2N * w_N^k form a coset of the N domain, which a coset
    // NTT reaches: four size-N transforms in all, O(M log M).
    const std::vector<F> f_odd = coset_evals(f_evals);
    const std::vector<F> g_odd = coset_evals(g_evals);
    std::vector<F> h_points(layout_.h_len);
    for (size_t i = 0; i < layout_.h_len; ++i) {
      const size_t d = layout_.h_point(i);
      h_points[i] = d % 2 == 0 ? f_evals[d / 2] * g_evals[d / 2]
                               : f_odd[d / 2] * g_odd[d / 2];
    }

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
  // The evaluations on the N domain of a polynomial of degree < N, mapped
  // to its evaluations at w_2N * w_N^k (the 2N domain's odd points):
  // interpolate, twist coefficient i by w_2N^i, and transform forward.
  std::vector<F> coset_evals(const std::vector<F>& evals) const {
    std::vector<F> a = evals;
    dom_n_.inverse(a);
    for (size_t i = 1; i < a.size(); ++i) a[i] *= dom_2n_.root(i);
    dom_n_.forward(a);
    return a;
  }

  const Circuit<F>* circuit_;
  SnipLayout layout_;
  NttDomain<F> dom_n_;
  NttDomain<F> dom_2n_;  // only its roots: the twist w_2N^i
};

// ---------------------------------------------------------------------------
// Verification context (secret state shared by the servers)
// ---------------------------------------------------------------------------

// One weight row of the composed local check, over the share prefix
// [x | f(0) | g(0) | h]: the value is <weights, share> plus `constant` on
// server 0 only (the circuit's constants ride on the first server's
// share). The weights are zero outside [lo, hi), so only that span is read.
template <PrimeField F>
struct CheckRow {
  std::vector<F> weights;
  size_t lo = 0, hi = 0;
  F constant = F::zero();

  F eval(std::span<const F> share, bool first_server) const {
    const F v = kernels::inner_product<F>(
        std::span<const F>(weights).subspan(lo, hi - lo),
        share.subspan(lo, hi - lo));
    return first_server ? v + constant : v;
  }

  // Narrows [lo, hi) to the nonzero weights.
  void trim() {
    auto nonzero = [](const F& v) { return !v.is_zero(); };
    const auto first = std::find_if(weights.begin(), weights.end(), nonzero);
    const auto last =
        std::find_if(weights.rbegin(), weights.rend(), nonzero).base();
    lo = first < last ? static_cast<size_t>(first - weights.begin()) : 0;
    hi = first < last ? static_cast<size_t>(last - weights.begin()) : 0;
  }

  bool operator==(const CheckRow&) const = default;
};

// The servers share a secret evaluation point r plus random output-wire
// combination coefficients, derived from a common seed the clients never
// see. Per Appendix I, r is reused across a batch of Q submissions and
// resampled periodically; the Lagrange rows for r, and the check rows
// composed from them, are built here once per refresh.
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
        dom_2n_(2 * layout_.n),
        seed_(shared_seed),
        rng_(shared_seed) {
    require(num_servers >= 2, "VerificationContext: need >= 2 servers");
    s_inv_ = F::from_u64(num_servers).inv();
    refresh();
  }

  // Resamples r and the output coefficients; rebuilds the rows.
  void refresh() {
    draw();
    build_rows();
  }

  // Rewinds the seeded schedule to its `count`-th refresh (the
  // constructor's is the first): repeats every draw of r and the
  // coefficients but builds the rows once, for the last. The result equals
  // a fresh context refreshed count - 1 times; the abort rollback and the
  // snapshot restore (server/node.h) replay through here.
  void replay_refreshes(u64 count) {
    require(count >= 1, "VerificationContext: replay of zero refreshes");
    rng_ = SecureRng(seed_);
    for (u64 i = 0; i < count; ++i) draw();
    build_rows();
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
  // The composed rows: f-hat(r), g-hat(r) and the output-wire
  // combination, each as a function of one server's share. h-hat(r) needs
  // no composition: it is row_2n against the share's h points.
  const CheckRow<F>& f_row() const { return f_row_; }
  const CheckRow<F>& g_row() const { return g_row_; }
  const CheckRow<F>& out_row() const { return out_row_; }

 private:
  F pow_2n(const F& r) const {
    F x = r;
    for (size_t m = 1; m < dom_2n_.size(); m <<= 1) x *= x;
    return x;
  }

  bool in_domain(const F& r) const {
    // r must avoid the 2N domain (h-hat row would divide by zero and the
    // gate points must stay hidden for zero knowledge).
    return pow_2n(r) == F::one();
  }

  void draw() {
    do {
      r_ = rng_.field_element<F>();
    } while (in_domain(r_));
    out_coeffs_.resize(circuit_->outputs().size());
    for (F& c : out_coeffs_) c = rng_.field_element<F>();
    since_refresh_ = 0;
  }

  // Composes the Lagrange rows with the circuit's affine wiring. Each wire
  // share is an affine function of the share prefix (inputs read x,
  // mul-gate outputs read h's even points, constants ride on server 0), so
  // the f-hat(r), g-hat(r) and output-combination functionals are pulled
  // back through the gates in reverse order: a wire's weight is final once
  // every later gate that reads it has passed it on. The factor r of
  // r * g-hat(r) and r * h-hat(r) is applied per check, one multiplication
  // each, rather than to every row weight at each refresh.
  void build_rows() {
    row_n_ = lagrange_eval_row(dom_n_, r_);
    build_row_2n();
    const std::vector<Gate<F>>& gates = circuit_->gates();
    const std::vector<u32>& muls = circuit_->mul_gates();
    const std::vector<u32>& outs = circuit_->outputs();
    constexpr size_t kFns = 3;  // f-hat(r), g-hat(r), output combination
    const std::array<CheckRow<F>*, kFns> rows{&f_row_, &g_row_, &out_row_};
    for (CheckRow<F>* row : rows) {
      row->weights.assign(layout_.off_a(), F::zero());
      row->constant = F::zero();
    }
    f_row_.weights[layout_.off_f0()] = row_n_[0];
    g_row_.weights[layout_.off_g0()] = row_n_[0];
    // adj[kFns * w + k]: weight of wire w in functional k.
    std::vector<F> adj(kFns * gates.size(), F::zero());
    for (size_t t = 0; t < muls.size(); ++t) {
      const Gate<F>& m = gates[muls[t]];
      adj[kFns * m.a] += row_n_[1 + t];
      adj[kFns * m.b + 1] += row_n_[1 + t];
    }
    for (size_t j = 0; j < outs.size(); ++j) {
      adj[kFns * outs[j] + 2] += out_coeffs_[j];
    }
    size_t t = muls.size();
    for (size_t i = gates.size(); i-- > 0;) {
      const Gate<F>& gate = gates[i];
      if (gate.op == GateOp::kMul) --t;
      const F* a = &adj[kFns * i];
      F* left = &adj[kFns * gate.a];
      F* right = &adj[kFns * gate.b];
      for (size_t k = 0; k < kFns; ++k) {
        if (a[k].is_zero()) continue;
        switch (gate.op) {
          case GateOp::kInput: rows[k]->weights[gate.a] += a[k]; break;
          case GateOp::kConst: rows[k]->constant += a[k] * gate.constant; break;
          case GateOp::kAdd:
            left[k] += a[k];
            right[k] += a[k];
            break;
          case GateOp::kSub:
            left[k] += a[k];
            right[k] -= a[k];
            break;
          case GateOp::kMul:
            rows[k]->weights[layout_.off_h() + 2 * (1 + t)] += a[k];
            break;
          case GateOp::kMulConst: left[k] += a[k] * gate.constant; break;
        }
      }
    }
    for (CheckRow<F>* row : rows) row->trim();
  }

  // The Lagrange weights at r of the shipped h points only: the 2N-domain
  // weight c_d = Z(r) * w^d / (2N * (r - w^d)) with Z(r) = r^(2N) - 1,
  // for d = h_point(i). The dropped points carry h = 0, so they contribute
  // nothing to h-hat(r) and their weights are never formed.
  void build_row_2n() {
    const size_t m = layout_.h_len;
    row_2n_.resize(m);
    for (size_t i = 0; i < m; ++i) {
      row_2n_[i] = r_ - dom_2n_.root(layout_.h_point(i));
    }
    batch_invert(row_2n_);
    const F zn = (pow_2n(r_) - F::one()) * F::from_u64(dom_2n_.size()).inv();
    for (size_t i = 0; i < m; ++i) {
      row_2n_[i] *= zn * dom_2n_.root(layout_.h_point(i));
    }
  }

  const Circuit<F>* circuit_;
  SnipLayout layout_;
  size_t num_servers_;
  NttDomain<F> dom_n_;
  NttDomain<F> dom_2n_;
  u64 seed_;
  SecureRng rng_;
  F r_;
  F s_inv_;
  std::vector<F> row_n_;
  std::vector<F> row_2n_;
  std::vector<F> out_coeffs_;
  CheckRow<F> f_row_, g_row_, out_row_;
  size_t since_refresh_ = 0;
};

// ---------------------------------------------------------------------------
// Verifier (server side)
// ---------------------------------------------------------------------------

// Values a server derives locally from its share of the extended submission.
// d_share/e_share are sent in round 1; sigma + out_combo in round 3
// (server/node.h).
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
  // point index) sits at w_{2N}^{2(1+t)} = w_N^{1+t}, shipped at index
  // 2(1+t) of h (SnipLayout).
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

// Allocation-free round-1 engine. With r fixed, the local check is four
// inner products of the server's share, through the lazy-reduction kernel
// (field/kernels.h): against the context's three composed rows
// (VerificationContext::f_row etc.), each over its nonzero span, and
// against row_2n for h-hat(r). No wire is evaluated per submission. A
// SnipVerifier owns only an extended-share landing buffer for the
// decrypt/expand step, sized once from the circuit, so the steady-state
// per-submission cost is zero heap allocations.
//
// local_check computes bit-identical SnipLocalState to the reference
// snip_local_check free function above (tests/test_kernels.cc holds the
// regression), so routing a pipeline through the engine can never change
// an accept/reject decision.
template <PrimeField F>
class SnipVerifier {
 public:
  explicit SnipVerifier(const Circuit<F>* circuit)
      : layout_(SnipLayout::for_circuit_dims(circuit->num_inputs(),
                                             circuit->num_mul_gates())),
        ext_(layout_.total_len(), F::zero()) {}

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
                                std::span<const F> ext_share) const {
    const SnipLayout& lay = ctx.layout();
    require(lay.total_len() == layout_.total_len() && lay.n == layout_.n,
            "SnipVerifier: context/circuit mismatch");
    require(ext_share.size() == lay.total_len(), "SnipVerifier: length");
    const bool first = server_index == 0;
    SnipLocalState<F> st;
    st.a_share = ext_share[lay.off_a()];
    st.b_share = ext_share[lay.off_b()];
    st.c_share = ext_share[lay.off_c()];
    const F h_r = kernels::inner_product<F>(
        ctx.row_2n(), ext_share.subspan(lay.off_h(), lay.h_len));
    st.d_share = ctx.f_row().eval(ext_share, first) - st.a_share;
    st.e_share = ctx.r() * ctx.g_row().eval(ext_share, first) - st.b_share;
    st.rh_share = ctx.r() * h_r;
    st.out_combo = ctx.out_row().eval(ext_share, first);
    return st;
  }

 private:
  SnipLayout layout_;
  std::vector<F> ext_;
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
