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
//     local-check value is a fixed linear function of the server's share,
//     so the rows are composed with the circuit's affine wiring once per r
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
//     pi = ( f(0), g(0), h )
//
// where h is the N+M+1 points of f*g on the 2N domain that are not known
// zeros. Each server locally reconstructs shares of every wire value
// (mul-gate outputs come from h's even points) and evaluates its shares of
// F = f-hat(r), G = g-hat(r), H = h-hat(r) (h-hat taking the unshipped
// points as zero) and of O, the random combination of the output wires.
// The servers sum the four shares and accept iff F * G == H and O == 0.
//
// Zero knowledge. The paper's servers run a Beaver multiplication so they
// learn only sigma = r * (F*G - H); opening F, G and H in the clear hides
// x just as well (the "strong HVZK" check of fully linear PCPs: Boneh,
// Boyle, Corrigan-Gibbs, Gilboa, Ishai, CRYPTO 2019). F is the Lagrange
// sum lambda_0(r) * f(0) + (terms in x), and lambda_0(r) != 0 because
// r avoids the N domain (VerificationContext rejects any r with
// r^(2N) = 1, which covers it). So with f(0) and g(0) fresh and uniform, F
// and G are uniform and independent of x, and for an honest client H =
// F*G and O = 0: the opened tuple is (U, V, U*V, 0), simulatable without
// x. Each server's share of a value is the total minus the others', so
// the shares add nothing. The one condition the argument adds: a proof is
// opened at most once. Two openings of one (f(0), g(0)) under different
// points r reveal a linear combination of wire values, so the servers
// never send values for a submission their replay floor has passed, and
// every committed batch advances the floor past each submission it
// announced, accepted or not (server/node.h).
//
// Soundness. If h != f*g as polynomials, f*g - h is nonzero of degree
// <= 2N-1, so it vanishes at the uniform r (drawn from F minus the 2N
// domain) with probability <= (2N-1)/(|F| - 2N); a nonzero output passes
// the random combination with probability 1/|F|. A proof in the shipped
// format is exactly a proof with all 2N points of h whose dropped points
// are zero: the servers' h-hat(r) is the same Lagrange sum over the 2N
// domain with those terms zero, so every cheating strategy against this
// check is one against the full-h check.
//
// This module is transport-agnostic: it computes the values each server
// must send, and ServerNode (server/node.h) moves them over the mesh.
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
//   [ x (L) | f(0) | g(0) | h (N+M+1 points) ].
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
  size_t total_len() const { return input_len + 2 + h_len; }
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
        dom_n_(layout_.n) {}

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

    // f and g through (w^0 -> random), (w^t -> gate t inputs), 0-padded,
    // and their copies mapped to the coset: one buffer [f | g | f^ | g^] of
    // n points each.
    F u0 = rng.field_element<F>();
    F v0 = rng.field_element<F>();
    std::vector<F> polys(4 * n, F::zero());
    const std::span<F> f(polys.data(), n), g(polys.data() + n, n),
        f_odd(polys.data() + 2 * n, n), g_odd(polys.data() + 3 * n, n);
    f[0] = u0;
    g[0] = v0;
    std::copy(left.begin(), left.end(), f.begin() + 1);
    std::copy(right.begin(), right.end(), g.begin() + 1);

    // h = f * g at the shipped points of the 2N domain. Its even point 2k
    // is w_N^k, where f and g are the values above (u0, v0 and the gate
    // inputs), so those points are products the client already holds. Its
    // odd points w_2N * w_N^k form a coset of the N domain, which one fused
    // coset transform per polynomial reaches (NttDomain::coset_from_evals:
    // a size-N inverse and forward transform with the twist between them),
    // O(M log M) in all.
    std::copy(f.begin(), f.end(), f_odd.begin());
    std::copy(g.begin(), g.end(), g_odd.begin());
    dom_n_.coset_from_evals(f_odd);
    dom_n_.coset_from_evals(g_odd);

    // ext = x || u0 || v0 || h, with h written in place: its first 2M + 2
    // points are points 0..2M+1 of the 2N domain, even and odd in turn;
    // the rest are the odd points after them (SnipLayout::h_point).
    const size_t m = layout_.num_mul;
    std::vector<F> ext(layout_.total_len());
    std::copy(x.begin(), x.end(), ext.begin());
    ext[layout_.off_f0()] = u0;
    ext[layout_.off_g0()] = v0;
    F* h = ext.data() + layout_.off_h();
    for (size_t k = 0; k <= m; ++k) {
      h[2 * k] = f[k] * g[k];
      h[2 * k + 1] = f_odd[k] * g_odd[k];
    }
    for (size_t i = 2 * m + 2; i < layout_.h_len; ++i) {
      h[i] = f_odd[i - m - 1] * g_odd[i - m - 1];
    }
    return ext;
  }

 private:
  const Circuit<F>* circuit_;
  SnipLayout layout_;
  NttDomain<F> dom_n_;
};

// ---------------------------------------------------------------------------
// Verification context (secret state shared by the servers)
// ---------------------------------------------------------------------------

// One weight row of the composed local check, over the share
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
    // r must avoid the 2N domain: the h-hat row would divide by zero, and
    // off the N domain lambda_0(r) != 0, which the zero-knowledge argument
    // needs (f(0) and g(0) must mask f-hat(r) and g-hat(r)).
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
  // every later gate that reads it has passed it on.
  void build_rows() {
    row_n_ = lagrange_eval_row(dom_n_, r_);
    build_row_2n();
    const std::vector<Gate<F>>& gates = circuit_->gates();
    const std::vector<u32>& muls = circuit_->mul_gates();
    const std::vector<u32>& outs = circuit_->outputs();
    constexpr size_t kFns = 3;  // f-hat(r), g-hat(r), output combination
    const std::array<CheckRow<F>*, kFns> rows{&f_row_, &g_row_, &out_row_};
    for (CheckRow<F>* row : rows) {
      row->weights.assign(layout_.total_len(), F::zero());
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
  std::vector<F> row_n_;
  std::vector<F> row_2n_;
  std::vector<F> out_coeffs_;
  CheckRow<F> f_row_, g_row_, out_row_;
  size_t since_refresh_ = 0;
};

// ---------------------------------------------------------------------------
// Verifier (server side)
// ---------------------------------------------------------------------------

// A server's shares of the four values the check opens (server/node.h
// ships them to the batch leader), or, summed over every server, the
// values themselves.
template <PrimeField F>
struct SnipLocalState {
  F f_r = F::zero();        // [f-hat(r)]
  F g_r = F::zero();        // [g-hat(r)]
  F h_r = F::zero();        // [h-hat(r)]
  F out_combo = F::zero();  // sum_j coeff_j * [output_j]

  SnipLocalState& operator+=(const SnipLocalState& o) {
    f_r += o.f_r;
    g_r += o.g_r;
    h_r += o.h_r;
    out_combo += o.out_combo;
    return *this;
  }
};

// The reference local check: evaluates every wire of the circuit on the
// share. `ext_share` is this server's share of the extended submission
// vector; `server_index` selects who carries constants.
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

  SnipLocalState<F> st;
  st.f_r = inner_product(ctx.row_n(), std::span<const F>(f_evals));
  st.g_r = inner_product(ctx.row_n(), std::span<const F>(g_evals));
  st.h_r = inner_product(ctx.row_2n(), h);
  std::vector<F> outs = circuit.output_values(wires);
  for (size_t j = 0; j < outs.size(); ++j) {
    st.out_combo += ctx.out_coeffs()[j] * outs[j];
  }
  return st;
}

// ---------------------------------------------------------------------------
// Batch verification engine
// ---------------------------------------------------------------------------

// Allocation-free local check. With r fixed, it is four inner products of
// the server's share, through the lazy-reduction kernel (field/kernels.h):
// against the context's three composed rows (VerificationContext::f_row
// etc.), each over its nonzero span, and against row_2n for h-hat(r). No
// wire is evaluated per submission. A SnipVerifier owns only an
// extended-share landing buffer for the decrypt/expand step, sized once
// from the circuit, so the steady-state per-submission cost is zero heap
// allocations.
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
    st.f_r = ctx.f_row().eval(ext_share, first);
    st.g_r = ctx.g_row().eval(ext_share, first);
    st.h_r = kernels::inner_product<F>(
        ctx.row_2n(), ext_share.subspan(lay.off_h(), lay.h_len));
    st.out_combo = ctx.out_row().eval(ext_share, first);
    return st;
  }

 private:
  SnipLayout layout_;
  std::vector<F> ext_;
};

// The decision on the opened values (every server's local state summed):
// accept iff f-hat(r) * g-hat(r) == h-hat(r) (the polynomial identity
// test) and the combined outputs are 0 (Valid(x) holds).
template <PrimeField F>
bool snip_accept(const SnipLocalState<F>& total) {
  return total.f_r * total.g_r == total.h_r && total.out_combo.is_zero();
}

// ---------------------------------------------------------------------------
// Whole-protocol convenience driver (in-process, used by tests and the
// client-time benchmarks; the networked protocol lives in server/node.h).
// ---------------------------------------------------------------------------

// Sums every server's local state and decides.
template <PrimeField F>
bool snip_decide(std::span<const SnipLocalState<F>> states) {
  SnipLocalState<F> total;
  for (const auto& st : states) total += st;
  return snip_accept(total);
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
  return snip_decide(std::span<const SnipLocalState<F>>(states));
}

}  // namespace prio
