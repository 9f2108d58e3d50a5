// Quickstart: privately count how many app users have a medical condition
// (the motivating example of Section 3), end to end.
//
//   $ ./examples/quickstart
//
// Three servers, 1000 clients each holding one private bit. As long as one
// server is honest, no server learns any individual bit; the published
// output is only the total count. A malicious client who tries to submit
// the value 50 instead of a bit is caught by the SNIP check and rejected.

#include <cstdio>

#include "afe/sum.h"
#include "core/client.h"
#include "core/deployment.h"

using namespace prio;

int main() {
  using F = Fp64;

  // An AFE for summing 1-bit integers: Encode/Valid/Decode (Section 5).
  afe::IntegerSum<F> afe(/*bits=*/1);

  // Three servers; privacy holds if at least one of them is honest.
  DeploymentOptions opts;
  opts.num_servers = 3;
  PrioDeployment<F, afe::IntegerSum<F>> deployment(&afe, opts);

  SecureRng rng = SecureRng::from_os_entropy();

  // 1000 clients upload secret-shared, SNIP-proved submissions.
  u64 truth = 0;
  for (u64 client = 0; client < 1000; ++client) {
    u64 bit = (client % 7 == 0) ? 1 : 0;  // ~14% have the condition
    truth += bit;
    auto blobs = deployment.client_upload(bit, client, rng);
    bool ok = deployment.process_submission(client, blobs);
    if (!ok) std::printf("client %llu unexpectedly rejected\n",
                         static_cast<unsigned long long>(client));
  }

  // A malicious client tries to add 50 to the count by submitting an
  // out-of-range "bit". Its submission is syntactically well-formed at the
  // transport layer, but the SNIP proves Valid(x) over secret shares and
  // the servers reject it without ever seeing the value 50.
  {
    PrioClient<F, afe::IntegerSum<F>> evil(&afe, opts.num_servers,
                                           opts.master_seed);  // same keys
    std::vector<F> bogus = {F::from_u64(50), F::from_u64(0)};
    auto blobs = evil.upload_encoding(bogus, 5000, rng);
    bool accepted = deployment.process_submission(5000, blobs);
    std::printf("malicious submission accepted? %s\n",
                accepted ? "YES (bug!)" : "no (rejected by SNIP)");
  }

  u64 count = static_cast<u64>(deployment.publish());
  std::printf("clients accepted : %zu\n", deployment.accepted());
  std::printf("published count  : %llu (ground truth %llu)\n",
              static_cast<unsigned long long>(count),
              static_cast<unsigned long long>(truth));
  return count == truth ? 0 : 1;
}
