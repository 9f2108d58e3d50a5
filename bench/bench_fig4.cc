// Figure 4 reproduction: server throughput (submissions/s) vs submission
// length L, for the five schemes of Section 6.1:
//
//   No privacy    -- one server, sealed plaintext uploads
//   No robustness -- 5-server secret sharing, no proofs
//   Prio          -- SNIP verification (this paper)
//   Prio-MPC      -- server-side Valid evaluation (Section 4.4)
//   NIZK          -- per-component discrete-log OR proofs
//
// Workload: each client submits a vector of L zero/one integers; the
// servers sum the vectors. Throughput = submissions / max per-server busy
// time (clients stream over persistent connections in the paper, so the
// pipeline is compute-bound). Expected shape: No privacy >= No robustness
// >= Prio ~ Prio-MPC >> NIZK, with Prio within ~5x of no-privacy and NIZK
// 1-2 orders of magnitude below.

#include <cstdio>

#include "afe/bitvec_sum.h"
#include "baseline/nizk.h"
#include "baseline/no_privacy.h"
#include "baseline/no_robustness.h"
#include "bench_util.h"
#include "core/deployment.h"
#include "core/mpc_deployment.h"

namespace prio {
namespace {

using F = Fp64;

std::vector<u8> make_bits(size_t l) {
  std::vector<u8> bits(l);
  for (size_t i = 0; i < l; ++i) bits[i] = static_cast<u8>(i & 1);
  return bits;
}

double rate_no_privacy(size_t l, int n) {
  afe::BitVectorSum<F> afe(l);
  baseline::NoPrivacyDeployment<F, afe::BitVectorSum<F>> dep(&afe, 1);
  auto bits = make_bits(l);
  std::vector<std::vector<u8>> blobs;
  for (int i = 0; i < n; ++i) blobs.push_back(dep.client_upload(bits, i));
  for (int i = 0; i < n; ++i) dep.process_submission(i, blobs[i]);
  return n / (dep.clocks().max_busy_us() / 1e6);
}

double rate_no_robustness(size_t l, int n, size_t s = 5) {
  afe::BitVectorSum<F> afe(l);
  baseline::NoRobustnessDeployment<F, afe::BitVectorSum<F>> dep(&afe, s, 1);
  SecureRng rng(1);
  auto bits = make_bits(l);
  std::vector<std::vector<std::vector<u8>>> blobs;
  for (int i = 0; i < n; ++i) blobs.push_back(dep.client_upload(bits, i, rng));
  for (int i = 0; i < n; ++i) dep.process_submission(i, blobs[i]);
  // BusyClock tracks each simulated server separately; throughput is work
  // over the busiest server's time (the servers run in parallel for real).
  return n / (dep.clocks().max_busy_us() / 1e6);
}

// The servers exchange real sealed frames, so a batch of one would be
// dominated by per-round messaging at small L; streaming clients keep the
// pipeline compute-bound, so the n submissions run as one batch.
double rate_prio(size_t l, int n, size_t s = 5) {
  afe::BitVectorSum<F> afe(l);
  PrioDeployment<F, afe::BitVectorSum<F>> dep(&afe, {.num_servers = s});
  SecureRng rng(2);
  auto bits = make_bits(l);
  std::vector<Submission> subs;
  for (int i = 0; i < n; ++i) {
    subs.push_back({static_cast<u64>(i), dep.client_upload(bits, i, rng)});
  }
  dep.clocks().reset();
  dep.process_batch(subs);
  return n / (dep.clocks().max_busy_us() / 1e6);
}

double rate_prio_mpc(size_t l, int n, size_t s = 5) {
  afe::BitVectorSum<F> afe(l);
  PrioMpcDeployment<F, afe::BitVectorSum<F>> dep(&afe, {.num_servers = s});
  SecureRng rng(3);
  auto bits = make_bits(l);
  std::vector<std::vector<std::vector<u8>>> blobs;
  for (int i = 0; i < n; ++i) blobs.push_back(dep.client_upload(bits, i, rng));
  dep.clocks().reset();
  for (int i = 0; i < n; ++i) dep.process_submission(i, blobs[i]);
  return n / (dep.clocks().max_busy_us() / 1e6);
}

double rate_nizk(size_t l, int n, size_t s = 5) {
  afe::BitVectorSum<F> afe(l);
  baseline::NizkDeployment<F> dep(&afe, s);
  SecureRng rng(4);
  auto bits = make_bits(l);
  std::vector<baseline::NizkDeployment<F>::Upload> ups;
  for (int i = 0; i < n; ++i) ups.push_back(dep.client_upload(bits, rng));
  dep.clocks().reset();
  for (int i = 0; i < n; ++i) dep.process_submission(i, ups[i]);
  return n / (dep.clocks().max_busy_us() / 1e6);
}

}  // namespace
}  // namespace prio

int main() {
  using namespace prio;
  benchutil::header("Figure 4: throughput vs submission length (subs/s)");
  const bool full = benchutil::full_mode();
  const size_t max_log = full ? 16 : 12;
  const size_t nizk_max_log = full ? 10 : 8;
  std::printf("%8s %12s %14s %12s %12s %12s\n", "L", "NoPrivacy",
              "NoRobustness", "Prio", "Prio-MPC", "NIZK");
  for (size_t lg = 4; lg <= max_log; lg += 2) {
    size_t l = size_t{1} << lg;
    int n = l >= 4096 ? 4 : 16;
    double np = rate_no_privacy(l, 4 * n);
    double nr = rate_no_robustness(l, n);
    double pr = rate_prio(l, n);
    double pm = rate_prio_mpc(l, std::max(2, n / 4));
    double nz;
    char nz_buf[32];
    if (lg <= nizk_max_log) {
      nz = rate_nizk(l, 2);
      std::snprintf(nz_buf, sizeof(nz_buf), "%12.2f", nz);
    } else {
      // NIZK cost is linear in L: extrapolate from the largest measured
      // point (marked with *), as running it would take minutes.
      nz = rate_nizk(size_t{1} << nizk_max_log, 2) /
           static_cast<double>(l >> nizk_max_log);
      std::snprintf(nz_buf, sizeof(nz_buf), "%11.2f*", nz);
    }
    std::printf("%8zu %12.1f %14.1f %12.1f %12.1f %s\n", l, np, nr, pr, pm,
                nz_buf);
  }
  std::printf(
      "\n(* = extrapolated linearly from the largest measured NIZK point.)\n"
      "Shape check vs paper Fig. 4: Prio within ~5x of no-privacy across\n"
      "lengths; NIZK more than an order of magnitude below Prio.\n");
  return 0;
}
