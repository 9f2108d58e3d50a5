// Radix-2 number-theoretic transforms over the root-of-unity domains of the
// Prio fields.
//
// The SNIP construction (Section 4.2 + Appendix I of the paper) places the
// t-th multiplication gate at the domain point w^t, so "interpolate the wire
// polynomials f and g" is one inverse NTT each. The prover then needs
// h = f*g on the double-size domain. Its even points are the size-n
// domain, where f and g are already known; its odd points are the coset
// w_2n * <w_n>. coset_from_evals takes a polynomial's values on the n
// domain to its values on that coset in one fused transform:
//
//  1. a decimation-in-frequency inverse transform (Gentleman-Sande) takes
//     the natural-order values to n times the coefficients, in
//     bit-reversed order;
//  2. one multiply per element by twist[j] = w_2n^rev(j) / n scales
//     coefficient rev(j) by 1/n and by w_2n^rev(j);
//  3. a decimation-in-time forward transform (Cooley-Tukey) takes the
//     bit-reversed, twisted coefficients to natural-order values.
//
// There is no bit-reversal pass and no separate 1/n or twist pass:
// n log n + n multiplications, against n log n + 2n - 1 for inverse(),
// twist, forward(). Each stage reads its twiddles contiguously from a
// per-stage table. Fp64 also has an AVX-512F kernel for this schedule
// (poly/ntt_avx512.h), picked at run time; every other field, and every
// CPU without AVX-512F, runs the scalar one. forward() and inverse() are
// the plain iterative transforms behind a bit-reversal pass, kept as the
// reference the tests hold coset_from_evals to. This is the FFT fast path
// the paper implements in C on top of FLINT; here it is self-contained.
#pragma once

#include <concepts>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "field/field.h"
#include "field/opcount.h"
#include "poly/ntt_avx512.h"
#include "util/common.h"
#include "util/cpu.h"

namespace prio {

// Precomputed twiddle factors for a fixed power-of-two domain size.
//
// The O(n) root/inverse-root tables are built once per (field, size) in a
// process-wide cache and shared by every NttDomain instance: a deployment
// constructs one SnipProver plus one VerificationContext per server, each
// wanting the same two domains, and rebuilding the twiddles per instance
// was pure waste. Instances hold a shared_ptr, so the tables are immutable
// and safe to read from any number of threads.
template <PrimeField F>
class NttDomain {
 public:
  // n must be a power of two with n <= 2^F::kTwoAdicity.
  explicit NttDomain(size_t n) : n_(n), log_n_(log2_exact(n)) {
    require(n >= 1 && next_pow2(n) == n, "NttDomain: size must be a power of two");
    require(log_n_ <= F::kTwoAdicity, "NttDomain: size exceeds field 2-adicity");
    tables_ = shared_tables(n_, log_n_);
  }

  size_t size() const { return n_; }

  // w^i for the domain generator w (n is a power of two, so i mod n is a
  // mask, not a division).
  const F& root(size_t i) const { return tables_->roots[i & (n_ - 1)]; }

  // In-place forward transform: coefficients -> evaluations, i.e.
  // a[i] <- sum_j a[j] * w^(ij).
  void forward(std::vector<F>& a) const { transform(a, tables_->roots); }

  // In-place inverse transform: evaluations -> coefficients.
  void inverse(std::vector<F>& a) const {
    transform(a, tables_->inv_roots);
    for (F& x : a) x *= tables_->n_inv;
  }

  // In place, natural order in and out: the values of a polynomial of
  // degree < n at w_2n * w^k, k = 0..n-1 (the odd points of the 2n
  // domain), from its values at w^k. Equal to inverse(), then scaling
  // coefficient i by w_2n^i, then forward(). Needs 2n <= 2^F::kTwoAdicity.
  void coset_from_evals(std::span<F> a) const {
    if constexpr (std::same_as<F, Fp64>) {
      if (cpu_has_avx512f()) return coset_from_evals_avx512(a);
    }
    coset_from_evals_scalar(a);
  }

  // The kernel coset_from_evals runs for this field on this CPU.
  static const char* coset_core_name() {
    return std::same_as<F, Fp64> && cpu_has_avx512f() ? "avx512" : "scalar";
  }

  // The two kernels behind coset_from_evals, for tests and benches that
  // pin one. The scalar one serves every field.
  void coset_from_evals_scalar(std::span<F> a) const {
    check_coset_input(a);
    const Tables& t = *tables_;
    for (size_t h = n_ / 2; h >= 1; h /= 2) {
      for (size_t i = 0; i < n_; i += 2 * h) {
        for (size_t j = 0; j < h; ++j) {
          const F u = a[i + j], v = a[i + j + h];
          a[i + j] = u + v;
          a[i + j + h] = (u - v) * t.inv_stage[h + j];
        }
      }
    }
    for (size_t i = 0; i < n_; ++i) a[i] *= t.twist[i];
    for (size_t h = 1; h < n_; h *= 2) {
      for (size_t i = 0; i < n_; i += 2 * h) {
        for (size_t j = 0; j < h; ++j) {
          const F u = a[i + j], v = a[i + j + h] * t.fwd_stage[h + j];
          a[i + j] = u + v;
          a[i + j + h] = u - v;
        }
      }
    }
  }

  // Fp64's 8-lane kernel. Call it only where cpu_has_avx512f(); below
  // ntt_avx512::kMinSize points it runs the scalar kernel. It counts the
  // scalar kernel's n log n + n multiplications, once per call.
  void coset_from_evals_avx512(std::span<F> a) const
    requires std::same_as<F, Fp64>
  {
    if (n_ < ntt_avx512::kMinSize) return coset_from_evals_scalar(a);
    check_coset_input(a);
    const Tables& t = *tables_;
    ntt_avx512::coset_from_evals(a.data(), n_, t.inv_stage.data(),
                                 t.twist.data(), t.fwd_stage.data());
    opcount::bump_field_mul(n_ * static_cast<u64>(log_n_) + n_);
  }

 private:
  struct Tables {
    std::vector<F> roots;
    std::vector<F> inv_roots;
    F n_inv;
    // coset_from_evals's tables (empty when 2n exceeds the 2-adicity).
    // The stage of half-length h reads its h twiddles at [h, 2h):
    // fwd_stage[h + j] = w_2h^j and inv_stage[h + j] = w_2h^-j.
    std::vector<F> fwd_stage;
    std::vector<F> inv_stage;
    std::vector<F> twist;  // twist[j] = w_2n^rev(j) / n
  };

  void check_coset_input(std::span<F> a) const {
    require(a.size() == n_, "NttDomain: input size mismatch");
    require(!tables_->twist.empty(),
            "NttDomain: coset of a size at the field's 2-adicity");
  }

  static std::shared_ptr<const Tables> shared_tables(size_t n, int log_n) {
    static std::mutex mu;
    static std::unordered_map<size_t, std::shared_ptr<const Tables>> cache;
    std::lock_guard<std::mutex> lock(mu);
    auto it = cache.find(n);
    if (it != cache.end()) return it->second;
    auto t = std::make_shared<Tables>();
    F w = F::root_of_unity(log_n);
    t->roots.resize(n);
    t->inv_roots.resize(n);
    t->roots[0] = F::one();
    for (size_t i = 1; i < n; ++i) t->roots[i] = t->roots[i - 1] * w;
    for (size_t i = 0; i < n; ++i) t->inv_roots[i] = t->roots[(n - i) % n];
    t->n_inv = F::from_u64(n).inv();
    if (log_n < F::kTwoAdicity) {
      t->fwd_stage.resize(n);
      t->inv_stage.resize(n);
      for (size_t h = 1; h < n; h *= 2) {
        for (size_t j = 0; j < h; ++j) {
          t->fwd_stage[h + j] = t->roots[j * (n / (2 * h))];
          t->inv_stage[h + j] = t->inv_roots[j * (n / (2 * h))];
        }
      }
      const F w_2n = F::root_of_unity(log_n + 1);
      std::vector<F> pow_2n(n);
      pow_2n[0] = F::one();
      for (size_t i = 1; i < n; ++i) pow_2n[i] = pow_2n[i - 1] * w_2n;
      t->twist.resize(n);
      for (size_t j = 0; j < n; ++j) {
        size_t rev = 0;
        for (int b = 0; b < log_n; ++b) rev |= ((j >> b) & 1) << (log_n - 1 - b);
        t->twist[j] = pow_2n[rev] * t->n_inv;
      }
    }
    cache.emplace(n, t);
    return t;
  }

  void transform(std::vector<F>& a, const std::vector<F>& roots) const {
    require(a.size() == n_, "NttDomain: input size mismatch");
    // Bit-reversal permutation.
    for (size_t i = 1, j = 0; i < n_; ++i) {
      size_t bit = n_ >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      if (i < j) std::swap(a[i], a[j]);
    }
    for (size_t len = 2; len <= n_; len <<= 1) {
      size_t step = n_ / len;
      for (size_t i = 0; i < n_; i += len) {
        for (size_t j = 0; j < len / 2; ++j) {
          const F& w = roots[j * step];
          F u = a[i + j];
          F v = a[i + j + len / 2] * w;
          a[i + j] = u + v;
          a[i + j + len / 2] = u - v;
        }
      }
    }
  }

  size_t n_;
  int log_n_;
  std::shared_ptr<const Tables> tables_;
};

}  // namespace prio
