// Table 9 reproduction: throughput (client requests/s) of a five-server
// cluster running private d-dimensional least-squares regression, for
// d = 2..12, under: no privacy / no robustness / Prio. Also prints the
// privacy cost (NoPriv/NoRob), the robustness cost (NoRob/Prio) and the
// total cost (NoPriv/Prio), matching the paper's columns.
//
// Paper's numbers (global 5-server cluster):
//   d=2:  14688 / 2687 / 2608  (priv 5.5x, robust 1.0x, total 5.6x)
//   d=12: 15189 / 2547 / 1312  (priv 6.0x, robust 1.9x, total 11.6x)
// Expected shape: privacy costs ~5-6x, robustness 1-2x growing with d.

#include <cstdio>

#include "afe/linreg.h"
#include "baseline/no_privacy.h"
#include "baseline/no_robustness.h"
#include "bench_util.h"
#include "core/deployment.h"

namespace prio {
namespace {

using F = Fp64;

afe::LinearRegression<F>::Input example(size_t d, u64 seed) {
  afe::LinearRegression<F>::Input in;
  for (size_t i = 0; i < d; ++i) in.x.push_back((seed * 31 + i * 7) % 16384);
  in.y = (seed * 17) % 16384;
  return in;
}

struct Rates {
  double no_priv, no_rob, prio;
};

Rates measure(size_t d, int n) {
  Rates r{};
  afe::LinearRegression<F> afe(d, 14);
  {
    baseline::NoPrivacyDeployment<F, afe::LinearRegression<F>> dep(&afe, 1);
    std::vector<std::vector<u8>> blobs;
    for (int i = 0; i < 4 * n; ++i) {
      blobs.push_back(dep.client_upload(example(d, i), i));
    }
    for (int i = 0; i < 4 * n; ++i) dep.process_submission(i, blobs[i]);
    r.no_priv = 4 * n / (dep.clocks().max_busy_us() / 1e6);
  }
  {
    baseline::NoRobustnessDeployment<F, afe::LinearRegression<F>> dep(&afe, 5,
                                                                      1);
    SecureRng rng(1);
    std::vector<std::vector<std::vector<u8>>> blobs;
    for (int i = 0; i < 2 * n; ++i) {
      blobs.push_back(dep.client_upload(example(d, i), i, rng));
    }
    for (int i = 0; i < 2 * n; ++i) dep.process_submission(i, blobs[i]);
    r.no_rob = 2 * n / (dep.clocks().max_busy_us() / 1e6);
  }
  {
    // One batch: streaming clients keep the servers compute-bound, so the
    // per-round messaging amortizes over the batch.
    PrioDeployment<F, afe::LinearRegression<F>> dep(&afe, {.num_servers = 5});
    SecureRng rng(2);
    std::vector<Submission> subs;
    for (int i = 0; i < n; ++i) {
      subs.push_back(
          {static_cast<u64>(i), dep.client_upload(example(d, i), i, rng)});
    }
    dep.clocks().reset();
    dep.process_batch(subs);
    require(dep.accepted() == static_cast<size_t>(n),
            "bench_table9: honest submissions rejected");
    r.prio = n / (dep.clocks().max_busy_us() / 1e6);
  }
  return r;
}

}  // namespace
}  // namespace prio

int main() {
  using namespace prio;
  benchutil::header(
      "Table 9: 5-server throughput, d-dim private regression (reqs/s)");
  const int n = benchutil::full_mode() ? 128 : 48;
  std::printf("%4s %10s %10s %10s | %10s %12s %10s\n", "d", "NoPriv", "NoRob",
              "Prio", "Priv.cost", "Robust.cost", "Tot.cost");
  for (size_t d = 2; d <= 12; d += 2) {
    auto r = measure(d, n);
    std::printf("%4zu %10.0f %10.0f %10.0f | %9.1fx %11.1fx %9.1fx\n", d,
                r.no_priv, r.no_rob, r.prio, r.no_priv / r.no_rob,
                r.no_rob / r.prio, r.no_priv / r.prio);
  }
  std::printf(
      "\nShape check vs paper Table 9: robustness cost grows with d and the\n"
      "total cost with it. NOTE: the paper's ~5.5x privacy cost is dominated\n"
      "by WAN coordination across five datacenters, which a compute-time\n"
      "simulation cannot exhibit; our NoPriv/NoRob ratio is ~1x. The\n"
      "robustness cost (NoRob vs Prio), which is the paper's contribution,\n"
      "shows the right shape. See EXPERIMENTS.md.\n");
  return 0;
}
