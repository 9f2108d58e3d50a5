// Anonymous survey (Section 6.2): aggregate responses to a sensitive
// 434-question true/false survey (modeled on the California Psychological
// Inventory) without any server seeing an individual response sheet.
//
// Demonstrates: the bit-vector-sum AFE, five servers, malicious clients
// trying to stuff multiple votes into one question, and decoding
// per-question tallies.

#include <cstdio>

#include "afe/bitvec_sum.h"
#include "core/client.h"
#include "core/deployment.h"

using namespace prio;

int main() {
  using F = Fp64;
  constexpr size_t kQuestions = 434;
  constexpr size_t kRespondents = 40;

  afe::BitVectorSum<F> afe(kQuestions);
  DeploymentOptions opts;
  opts.num_servers = 5;
  PrioDeployment<F, afe::BitVectorSum<F>> deployment(&afe, opts);

  SecureRng rng(2026);
  std::vector<u64> truth(kQuestions, 0);

  for (u64 client = 0; client < kRespondents; ++client) {
    std::vector<u8> answers(kQuestions);
    for (size_t q = 0; q < kQuestions; ++q) {
      answers[q] = static_cast<u8>((client * 31 + q * 7) % 3 == 0);
      truth[q] += answers[q];
    }
    bool ok = deployment.process_submission(
        client, deployment.client_upload(answers, client, rng));
    if (!ok) std::printf("respondent %llu rejected?!\n",
                         static_cast<unsigned long long>(client));
  }

  // Ballot stuffing: a client submits 10 instead of a 0/1 answer.
  {
    PrioClient<F, afe::BitVectorSum<F>> evil(&afe, opts.num_servers,
                                             opts.master_seed);
    std::vector<F> stuffed(kQuestions, F::zero());
    stuffed[0] = F::from_u64(10);
    bool accepted = deployment.process_submission(
        999, evil.upload_encoding(stuffed, 999, rng));
    std::printf("ballot-stuffing submission: %s\n",
                accepted ? "ACCEPTED (bug!)" : "rejected");
  }

  auto tallies = deployment.publish();
  bool exact = tallies == truth;
  std::printf("respondents accepted : %zu\n", deployment.accepted());
  std::printf("first five tallies   : %llu %llu %llu %llu %llu\n",
              static_cast<unsigned long long>(tallies[0]),
              static_cast<unsigned long long>(tallies[1]),
              static_cast<unsigned long long>(tallies[2]),
              static_cast<unsigned long long>(tallies[3]),
              static_cast<unsigned long long>(tallies[4]));
  std::printf("tallies exact        : %s\n", exact ? "yes" : "NO");
  // Traffic summary: a non-leader transmits a constant amount per survey.
  std::printf("bytes sent by server 1 per accepted survey: ~%llu\n",
              static_cast<unsigned long long>(
                  deployment.network().bytes_sent_by(1) /
                  deployment.accepted()));
  return exact ? 0 : 1;
}
