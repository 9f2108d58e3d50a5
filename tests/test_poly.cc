// NTT and Lagrange-row tests, cross-checked against the O(n^2) classical
// Lagrange reference implementation, and the fused coset transform's two
// kernels, each cross-checked against inverse -> twist -> forward.

#include <gtest/gtest.h>

#include <functional>
#include <random>

#include "field/opcount.h"
#include "poly/lagrange.h"
#include "poly/ntt.h"
#include "util/cpu.h"

namespace prio {
namespace {

template <PrimeField F>
std::vector<F> random_poly(size_t n, std::mt19937_64& rng) {
  std::vector<F> out(n);
  for (auto& x : out) x = random_field_element<F>(rng);
  return out;
}

template <typename F>
class NttTest : public ::testing::Test {};

using FieldTypes = ::testing::Types<Fp64, Fp128>;
TYPED_TEST_SUITE(NttTest, FieldTypes);

TYPED_TEST(NttTest, ForwardMatchesNaiveEvaluation) {
  using F = TypeParam;
  std::mt19937_64 rng(1);
  for (size_t n : {1, 2, 4, 8, 32}) {
    NttDomain<F> dom(n);
    auto coeffs = random_poly<F>(n, rng);
    auto evals = coeffs;
    dom.forward(evals);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(evals[i], poly_eval(coeffs, dom.root(i))) << "n=" << n << " i=" << i;
    }
  }
}

TYPED_TEST(NttTest, RoundTrip) {
  using F = TypeParam;
  std::mt19937_64 rng(2);
  for (size_t n : {1, 2, 16, 64, 256}) {
    NttDomain<F> dom(n);
    auto coeffs = random_poly<F>(n, rng);
    auto work = coeffs;
    dom.forward(work);
    dom.inverse(work);
    EXPECT_EQ(work, coeffs) << "n=" << n;
  }
}

TYPED_TEST(NttTest, ConvolutionMultipliesPolynomials) {
  using F = TypeParam;
  std::mt19937_64 rng(3);
  const size_t n = 16;
  NttDomain<F> dom2(2 * n);
  auto a = random_poly<F>(n, rng);
  auto b = random_poly<F>(n, rng);
  // Schoolbook product.
  std::vector<F> ref(2 * n, F::zero());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) ref[i + j] += a[i] * b[j];
  }
  // NTT product.
  std::vector<F> fa(a), fb(b);
  fa.resize(2 * n, F::zero());
  fb.resize(2 * n, F::zero());
  dom2.forward(fa);
  dom2.forward(fb);
  for (size_t i = 0; i < 2 * n; ++i) fa[i] *= fb[i];
  dom2.inverse(fa);
  EXPECT_EQ(fa, ref);
}

TYPED_TEST(NttTest, RejectsBadSizes) {
  using F = TypeParam;
  EXPECT_THROW(NttDomain<F>(3), std::invalid_argument);
  if constexpr (F::kTwoAdicity + 1 < 64) {
    EXPECT_THROW(NttDomain<F>(static_cast<size_t>(1) << (F::kTwoAdicity + 1)),
                 std::invalid_argument);
  }
}

TYPED_TEST(NttTest, LagrangeRowEvaluatesFromPointValues) {
  using F = TypeParam;
  std::mt19937_64 rng(4);
  for (size_t n : {1, 2, 8, 64}) {
    NttDomain<F> dom(n);
    auto coeffs = random_poly<F>(n, rng);
    auto evals = coeffs;
    dom.forward(evals);
    // Random off-domain point.
    F r;
    for (;;) {
      r = random_field_element<F>(rng);
      F x = r;
      for (size_t m = 1; m < n; m <<= 1) x *= x;
      if (!(x == F::one())) break;
    }
    auto row = lagrange_eval_row(dom, r);
    EXPECT_EQ(inner_product(row, std::span<const F>(evals)),
              poly_eval(coeffs, r))
        << "n=" << n;
  }
}

TYPED_TEST(NttTest, LagrangeRowRejectsDomainPoint) {
  using F = TypeParam;
  NttDomain<F> dom(8);
  EXPECT_THROW(lagrange_eval_row(dom, dom.root(3)), std::invalid_argument);
}

TYPED_TEST(NttTest, BatchInvertMatchesScalarInvert) {
  using F = TypeParam;
  std::mt19937_64 rng(5);
  auto xs = random_poly<F>(33, rng);
  for (auto& x : xs) {
    if (x.is_zero()) x = F::one();
  }
  auto inverted = xs;
  batch_invert(inverted);
  for (size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(inverted[i], xs[i].inv());
  }
}

TYPED_TEST(NttTest, ClassicInterpolationAgrees) {
  using F = TypeParam;
  std::mt19937_64 rng(6);
  // Interpolate through 6 arbitrary distinct points and re-evaluate.
  std::vector<F> xs, ys;
  for (u64 i = 0; i < 6; ++i) {
    xs.push_back(F::from_u64(i * 7 + 1));
    ys.push_back(random_field_element<F>(rng));
  }
  auto coeffs = lagrange_interpolate(xs, ys);
  for (size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(poly_eval(coeffs, xs[i]), ys[i]);
  }
}

// What coset_from_evals must equal: interpolate, scale coefficient i by
// w_2n^i, evaluate.
template <PrimeField F>
std::vector<F> coset_reference(std::vector<F> a) {
  const NttDomain<F> dom(a.size()), dom_2n(2 * a.size());
  dom.inverse(a);
  for (size_t i = 0; i < a.size(); ++i) a[i] *= dom_2n.root(i);
  dom.forward(a);
  return a;
}

// A value in the top half of the field's range: [2^63, p) for Fp64, where
// the kernels' carry and borrow corrections fire most.
template <PrimeField F>
F high_value(std::mt19937_64& rng) {
  if constexpr (std::same_as<F, Fp64>) {
    for (;;) {
      const u64 x = rng() | (u64{1} << 63);
      if (x < Fp64::kP) return Fp64::from_u64(x);
    }
  } else {
    return -F::from_u64(rng());
  }
}

template <PrimeField F>
using CosetKernel = std::function<void(const NttDomain<F>&, std::span<F>)>;

// One kernel against coset_reference at every power-of-two size from 1 to
// 4096, on random values, all p - 1, top-half values and the prover's
// shape (M + 1 nonzero values, then zeros).
template <PrimeField F>
void expect_coset_kernel_matches_reference(const CosetKernel<F>& kernel) {
  std::mt19937_64 rng(7);
  for (size_t n = 1; n <= 4096; n *= 2) {
    const NttDomain<F> dom(n);
    std::vector<std::pair<std::string, std::vector<F>>> inputs;
    inputs.emplace_back("random", random_poly<F>(n, rng));
    inputs.emplace_back("p-1", std::vector<F>(n, F::zero() - F::one()));
    std::vector<F> high(n);
    for (F& x : high) x = high_value<F>(rng);
    inputs.emplace_back("high", high);
    for (size_t nonzero : {size_t{1}, n / 2 + 1, n}) {
      std::vector<F> padded(n, F::zero());
      for (size_t i = 0; i < nonzero; ++i) {
        padded[i] = random_field_element<F>(rng);
      }
      inputs.emplace_back("padded " + std::to_string(nonzero), padded);
    }
    for (const auto& [what, in] : inputs) {
      std::vector<F> out = in;
      kernel(dom, out);
      EXPECT_EQ(out, coset_reference(in)) << "n=" << n << " " << what;
    }
  }
}

TYPED_TEST(NttTest, CosetScalarKernelMatchesReference) {
  using F = TypeParam;
  expect_coset_kernel_matches_reference<F>(
      [](const NttDomain<F>& dom, std::span<F> a) {
        dom.coset_from_evals_scalar(a);
      });
}

TYPED_TEST(NttTest, CosetRejectsWrongSize) {
  using F = TypeParam;
  std::vector<F> a(7);
  EXPECT_THROW(NttDomain<F>(8).coset_from_evals(a), std::invalid_argument);
}

TEST(NttAvx512Test, CosetKernelMatchesReference) {
  if (!cpu_has_avx512f()) GTEST_SKIP() << "CPU lacks AVX-512F";
  expect_coset_kernel_matches_reference<Fp64>(
      [](const NttDomain<Fp64>& dom, std::span<Fp64> a) {
        dom.coset_from_evals_avx512(a);
      });
}

// Both kernels count n log n + n multiplications, so bench_table2 prints
// the same counts on either.
TEST(NttAvx512Test, KernelsCountTheSameMultiplications) {
  if (!cpu_has_avx512f()) GTEST_SKIP() << "CPU lacks AVX-512F";
  std::mt19937_64 rng(8);
  for (size_t n : {8, 16, 2048}) {
    const NttDomain<Fp64> dom(n);
    std::vector<Fp64> a = random_poly<Fp64>(n, rng), b = a;
    u64 scalar_muls = 0, avx512_muls = 0;
    {
      OpCountScope scope;
      dom.coset_from_evals_scalar(a);
      scalar_muls = scope.delta().field_mul;
    }
    {
      OpCountScope scope;
      dom.coset_from_evals_avx512(b);
      avx512_muls = scope.delta().field_mul;
    }
    EXPECT_EQ(scalar_muls, n * log2_exact(n) + n) << "n=" << n;
    EXPECT_EQ(avx512_muls, scalar_muls) << "n=" << n;
    EXPECT_EQ(a, b) << "n=" << n;
  }
}

}  // namespace
}  // namespace prio
