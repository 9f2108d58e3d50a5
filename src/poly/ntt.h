// Radix-2 number-theoretic transform over the root-of-unity domains of the
// Prio fields.
//
// The SNIP construction (Section 4.2 + Appendix I of the paper) places the
// t-th multiplication gate at the domain point w^t, so "interpolate the wire
// polynomials f and g" is one inverse NTT each. The prover then needs
// h = f*g on the double-size domain. Its even points are the size-n
// domain, where f and g are already known; its odd points are the coset
// w_2n * <w_n>, which a coset NTT reaches: scale coefficient i by w_2n^i
// and run a size-n forward transform (SnipProver). This is the FFT fast
// path the paper implements in C on top of FLINT; here it is a
// self-contained iterative Cooley-Tukey transform.
#pragma once

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "field/field.h"
#include "util/common.h"

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

 private:
  struct Tables {
    std::vector<F> roots;
    std::vector<F> inv_roots;
    F n_inv;
  };

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
