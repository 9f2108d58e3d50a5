// End-to-end pipeline tests: honest clients aggregate correctly, malicious
// clients are rejected without corrupting the aggregate, leader rotation
// balances traffic, and the Prio-MPC variant agrees with the SNIP variant.

#include <gtest/gtest.h>

#include "afe/bitvec_sum.h"
#include "afe/freq.h"
#include "afe/linreg.h"
#include "afe/sum.h"
#include "baseline/nizk.h"
#include "baseline/no_privacy.h"
#include "baseline/no_robustness.h"
#include "core/client.h"
#include "core/deployment.h"
#include "core/dp.h"
#include "core/mpc_deployment.h"

namespace prio {
namespace {

using F = Fp64;

TEST(DeploymentTest, EndToEndIntegerSum) {
  afe::IntegerSum<F> afe(8);
  PrioDeployment<F, afe::IntegerSum<F>> dep(&afe, {.num_servers = 3});
  SecureRng rng(1);
  u64 expect = 0;
  for (u64 cid = 0; cid < 20; ++cid) {
    u64 x = (cid * 13) % 256;
    expect += x;
    EXPECT_TRUE(dep.process_submission(cid, dep.client_upload(x, cid, rng)));
  }
  EXPECT_EQ(dep.accepted(), 20u);
  EXPECT_EQ(static_cast<u64>(dep.publish()), expect);
}

TEST(DeploymentTest, MaliciousClientRejectedAggregateIntact) {
  afe::IntegerSum<F> afe(4);
  PrioDeployment<F, afe::IntegerSum<F>> dep(&afe, {.num_servers = 3});
  SecureRng rng(2);

  // Honest clients.
  for (u64 cid = 0; cid < 5; ++cid) {
    EXPECT_TRUE(dep.process_submission(cid, dep.client_upload(10, cid, rng)));
  }

  // A malicious client seals an out-of-range encoding (the "submit 2^60
  // instead of a 4-bit value" attack) under the deployment's keys.
  {
    std::vector<F> bogus_encoding(afe.k(), F::zero());
    bogus_encoding[0] = F::from_u64(u64{1} << 60);
    PrioClient<F, afe::IntegerSum<F>> evil(&afe, 3, /*master_seed=*/1);
    EXPECT_FALSE(dep.process_submission(
        100, evil.upload_encoding(bogus_encoding, 100, rng)));
  }

  EXPECT_EQ(dep.accepted(), 5u);
  EXPECT_EQ(static_cast<u64>(dep.publish()), 50u);
}

TEST(DeploymentTest, GarbageBlobsRejected) {
  afe::IntegerSum<F> afe(4);
  PrioDeployment<F, afe::IntegerSum<F>> dep(&afe, {.num_servers = 2});
  SecureRng rng(3);
  // Tampered ciphertext.
  auto blobs = dep.client_upload(3, 7, rng);
  blobs[0][0] ^= 1;
  EXPECT_FALSE(dep.process_submission(7, blobs));
  // Truncated blob.
  auto blobs2 = dep.client_upload(3, 8, rng);
  blobs2[1].resize(4);
  EXPECT_FALSE(dep.process_submission(8, blobs2));
  EXPECT_EQ(dep.accepted(), 0u);
}

TEST(DeploymentTest, NonLeaderTrafficIsConstantInSubmissionLength) {
  // Figure 6's key property: per-submission bytes sent by a non-leader do
  // not grow with L.
  SecureRng rng(4);
  std::vector<u64> bytes_per_l;
  for (size_t l : {8, 64, 256}) {
    afe::BitVectorSum<F> afe(l);
    PrioDeployment<F, afe::BitVectorSum<F>> dep(&afe, {.num_servers = 3});
    std::vector<u8> bits(l, 1);
    // client 0 -> leader is server 0; servers 1, 2 are non-leaders.
    dep.process_submission(0, dep.client_upload(bits, 0, rng));
    bytes_per_l.push_back(dep.network().bytes_sent_by(1));
  }
  EXPECT_EQ(bytes_per_l[0], bytes_per_l[1]);
  EXPECT_EQ(bytes_per_l[1], bytes_per_l[2]);
}

TEST(DeploymentTest, LeaderRotationBalancesTraffic) {
  afe::BitVectorSum<F> afe(16);
  PrioDeployment<F, afe::BitVectorSum<F>> dep(&afe, {.num_servers = 4});
  SecureRng rng(5);
  std::vector<u8> bits(16, 0);
  for (u64 cid = 0; cid < 40; ++cid) {
    dep.process_submission(cid, dep.client_upload(bits, cid, rng));
  }
  // With client ids cycling mod 4, every server leads 10 times; totals match.
  u64 b0 = dep.network().bytes_sent_by(0);
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(dep.network().bytes_sent_by(i), b0) << i;
  }
}

TEST(DeploymentTest, FrequencyCountEndToEnd) {
  afe::FrequencyCount<F> afe(6);
  PrioDeployment<F, afe::FrequencyCount<F>> dep(&afe, {.num_servers = 5});
  SecureRng rng(6);
  std::vector<u64> expect(6, 0);
  for (u64 cid = 0; cid < 30; ++cid) {
    u64 v = (cid * 7) % 6;
    ++expect[v];
    EXPECT_TRUE(dep.process_submission(cid, dep.client_upload(v, cid, rng)));
  }
  EXPECT_EQ(dep.publish(), expect);
}

TEST(DeploymentTest, RefreshKeepsAccepting) {
  afe::IntegerSum<F> afe(4);
  DeploymentOptions opts;
  opts.num_servers = 2;
  opts.refresh_every = 3;  // force several refreshes
  PrioDeployment<F, afe::IntegerSum<F>> dep(&afe, opts);
  SecureRng rng(7);
  for (u64 cid = 0; cid < 10; ++cid) {
    EXPECT_TRUE(dep.process_submission(cid, dep.client_upload(1, cid, rng)));
  }
  EXPECT_EQ(static_cast<u64>(dep.publish()), 10u);
}

// ---------- sealing regressions ----------

TEST(DeploymentTest, DoubleSubmissionUsesFreshSealingKeys) {
  // Regression: seal_for_server used an all-zero nonce under a key derived
  // only from (client_id, server), so a client submitting twice reused the
  // (key, nonce) pair -- XOR of the two ciphertexts leaked the XOR of the
  // plaintexts. The fix: the per-client submission counter supplies the
  // AEAD nonce, so honest repeat submissions never repeat a (key, nonce).
  afe::IntegerSum<F> afe(4);
  PrioDeployment<F, afe::IntegerSum<F>> dep(&afe, {.num_servers = 3});
  SecureRng rng(30);
  auto blobs1 = dep.client_upload(3, 7, rng);
  auto blobs2 = dep.client_upload(5, 7, rng);

  // The submission counter advanced: seq prefix 0 then 1.
  auto seq_of = [](const std::vector<u8>& blob) {
    u64 seq = 0;
    for (int i = 0; i < 8; ++i) seq |= static_cast<u64>(blob[i]) << (8 * i);
    return seq;
  };
  for (size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(seq_of(blobs1[j]), 0u) << j;
    EXPECT_EQ(seq_of(blobs2[j]), 1u) << j;
  }

  // The genuine submissions both verify and aggregate.
  EXPECT_TRUE(dep.process_submission(7, blobs1));
  EXPECT_TRUE(dep.process_submission(7, blobs2));

  // Grafting the client's next counter (2, still above its replay floor)
  // onto submission 1's ciphertext must fail: the counter is bound into
  // the AEAD nonce, not just carried. The graft goes last because every
  // processed counter, rejected or not, moves the floor past it.
  const auto blobs3 = dep.client_upload(1, 7, rng);
  auto grafted = blobs1;
  for (size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(seq_of(blobs3[j]), 2u) << j;
    std::copy(blobs3[j].begin(), blobs3[j].begin() + 8, grafted[j].begin());
  }
  EXPECT_FALSE(dep.process_submission(7, grafted));
  EXPECT_EQ(static_cast<u64>(dep.publish()), 8u);
}

TEST(DeploymentTest, SwappedAndReplayedBlobsRejected) {
  afe::IntegerSum<F> afe(4);
  PrioDeployment<F, afe::IntegerSum<F>> dep(&afe, {.num_servers = 3});
  SecureRng rng(31);

  // A blob sealed for server 0 delivered to server 1 (and vice versa) must
  // not open: the server index is bound into the key derivation.
  auto blobs = dep.client_upload(2, 1, rng);
  std::swap(blobs[0], blobs[1]);
  EXPECT_FALSE(dep.process_submission(1, blobs));

  // A stale blob replayed from an earlier submission decrypts (it is a
  // genuine old ciphertext) but carries the old counter, which is not the
  // one the other servers' blobs were sealed under: they treat their
  // shares as unparsed, and the spliced submission is rejected.
  auto old_blobs = dep.client_upload(2, 2, rng);
  auto new_blobs = dep.client_upload(2, 2, rng);
  auto spliced = new_blobs;
  spliced[0] = old_blobs[0];
  EXPECT_FALSE(dep.process_submission(2, spliced));

  EXPECT_EQ(dep.accepted(), 0u);
  EXPECT_EQ(static_cast<u64>(dep.publish()), 0u);
}

TEST(DeploymentTest, WholesaleReplayRejected) {
  // A byte-identical re-delivery of an accepted submission must not be
  // aggregated twice: the servers track a per-client counter floor that
  // every processed submission advances.
  afe::IntegerSum<F> afe(4);
  PrioDeployment<F, afe::IntegerSum<F>> dep(&afe, {.num_servers = 3});
  SecureRng rng(34);
  auto blobs = dep.client_upload(6, 9, rng);
  EXPECT_TRUE(dep.process_submission(9, blobs));
  EXPECT_FALSE(dep.process_submission(9, blobs));  // exact replay
  EXPECT_FALSE(dep.process_submission(9, blobs));
  // An out-of-order stale submission (lower counter) is also refused.
  auto early = dep.client_upload(7, 10, rng);  // seq 0 for client 10
  auto late = dep.client_upload(8, 10, rng);   // seq 1
  EXPECT_TRUE(dep.process_submission(10, late));
  EXPECT_FALSE(dep.process_submission(10, early));
  EXPECT_EQ(dep.accepted(), 2u);
  EXPECT_EQ(static_cast<u64>(dep.publish()), 14u);
}

// ---------- noise-rng regressions ----------

TEST(DeploymentTest, NoiseIsNotDerivedFromMasterSeed) {
  // Regression: publish_with_noise seeded every server's "local and
  // secret" noise RNG deterministically from master_seed, so anyone who
  // knew the deployment seed could subtract the noise. Two identical
  // deployments therefore published identical noisy totals. Noise now
  // comes from per-server OS entropy, so the runs must diverge.
  SecureRng rng(32);
  afe::BitVectorSum<F> afe(16);
  dp::DistributedDiscreteLaplace noise(/*epsilon=*/0.5, /*sensitivity=*/1.0,
                                       /*num_servers=*/3);
  PrioDeployment<F, afe::BitVectorSum<F>> dep1(&afe, {.num_servers = 3});
  PrioDeployment<F, afe::BitVectorSum<F>> dep2(&afe, {.num_servers = 3});
  for (u64 cid = 0; cid < 4; ++cid) {
    std::vector<u8> bits(16, 1);
    auto blobs = dep1.client_upload(bits, cid, rng);
    EXPECT_TRUE(dep1.process_submission(cid, blobs));
    EXPECT_TRUE(dep2.process_submission(cid, blobs));
  }
  auto noisy1 = dep1.publish_with_noise(noise);
  auto noisy2 = dep2.publish_with_noise(noise);
  // 16 independent DLap draws coinciding across both runs is astronomically
  // unlikely; equality here means the noise is predictable again.
  EXPECT_NE(noisy1, noisy2);
}

TEST(DeploymentTest, NoiseSeedOverrideIsDeterministic) {
  // The test-only override pins the per-server noise RNGs for
  // reproducible runs.
  SecureRng rng(33);
  afe::IntegerSum<F> afe(4);
  dp::DistributedDiscreteLaplace noise(/*epsilon=*/1.0, /*sensitivity=*/1.0,
                                       /*num_servers=*/3);
  DeploymentOptions opts;
  opts.num_servers = 3;
  opts.noise_seed = 99;
  PrioDeployment<F, afe::IntegerSum<F>> dep1(&afe, opts);
  PrioDeployment<F, afe::IntegerSum<F>> dep2(&afe, opts);
  for (u64 cid = 0; cid < 4; ++cid) {
    auto blobs = dep1.client_upload(1, cid, rng);
    EXPECT_TRUE(dep1.process_submission(cid, blobs));
    EXPECT_TRUE(dep2.process_submission(cid, blobs));
  }
  EXPECT_EQ(static_cast<u64>(dep1.publish_with_noise(noise)),
            static_cast<u64>(dep2.publish_with_noise(noise)));
}

// ---------- Prio-MPC variant ----------

TEST(MpcDeploymentTest, EndToEndAndAgreesWithSnipVariant) {
  afe::IntegerSum<F> afe(6);
  PrioMpcDeployment<F, afe::IntegerSum<F>> mpc(&afe, {.num_servers = 3});
  SecureRng rng(8);
  u64 expect = 0;
  for (u64 cid = 0; cid < 10; ++cid) {
    u64 x = cid * 5;
    expect += x;
    EXPECT_TRUE(mpc.process_submission(cid, mpc.client_upload(x, cid, rng)));
  }
  EXPECT_EQ(static_cast<u64>(mpc.publish()), expect);
}

TEST(MpcDeploymentTest, RejectsInvalidEncoding) {
  afe::IntegerSum<F> afe(4);
  // Hand-rolled raw AFE to push an invalid encoding through the client path.
  struct RawAfe {
    using Field [[maybe_unused]] = F;
    using Input = std::vector<F>;
    using Result = u128;
    const afe::IntegerSum<F>* inner;
    size_t k() const { return inner->k(); }
    size_t k_prime() const { return inner->k_prime(); }
    std::vector<F> encode(const Input& v) const { return v; }
    const Circuit<F>& valid_circuit() const { return inner->valid_circuit(); }
    Result decode(std::span<const F> sigma, size_t n) const {
      return inner->decode(sigma, n);
    }
  };
  RawAfe raw{&afe};
  PrioMpcDeployment<F, RawAfe> dep(&raw, {.num_servers = 2});
  SecureRng rng(9);
  std::vector<F> bogus(afe.k(), F::zero());
  bogus[0] = F::from_u64(12345);
  EXPECT_FALSE(dep.process_submission(0, dep.client_upload(bogus, 0, rng)));
  EXPECT_EQ(dep.accepted(), 0u);
}

TEST(MpcDeploymentTest, TrafficGrowsWithCircuitSize) {
  // Prio-MPC traffic is Theta(M); Prio (SNIP) traffic is constant.
  SecureRng rng(10);
  auto mpc_bytes = [&](size_t l) {
    afe::BitVectorSum<F> afe(l);
    PrioMpcDeployment<F, afe::BitVectorSum<F>> dep(&afe, {.num_servers = 2});
    std::vector<u8> bits(l, 1);
    dep.process_submission(0, dep.client_upload(bits, 0, rng));
    return dep.network().bytes_sent_by(1);
  };
  EXPECT_GT(mpc_bytes(128), 2 * mpc_bytes(16));
}

// ---------- baselines ----------

TEST(BaselineTest, NoPrivacySumsInTheClear) {
  afe::IntegerSum<F> afe(8);
  baseline::NoPrivacyDeployment<F, afe::IntegerSum<F>> dep(&afe, 42);
  u64 expect = 0;
  for (u64 cid = 0; cid < 25; ++cid) {
    u64 x = cid * 3;
    expect += x;
    EXPECT_TRUE(dep.process_submission(cid, dep.client_upload(x, cid)));
  }
  // One client uploading twice seals under counters 0 then 1 (the blob's
  // seq prefix), so the (key, nonce) pair is fresh: the same input gives a
  // different ciphertext, and both blobs open.
  auto first = dep.client_upload(4, 200);
  auto second = dep.client_upload(4, 200);
  EXPECT_EQ(net::Reader(first).u64_(), 0u);
  EXPECT_EQ(net::Reader(second).u64_(), 1u);
  EXPECT_NE(first, second);
  EXPECT_TRUE(dep.process_submission(200, first));
  EXPECT_TRUE(dep.process_submission(200, second));
  expect += 2 * 4;
  EXPECT_EQ(static_cast<u64>(dep.publish()), expect);
  // Tampered blob rejected by the AEAD.
  auto blob = dep.client_upload(1, 99);
  blob[3] ^= 1;
  EXPECT_FALSE(dep.process_submission(99, blob));
}

TEST(BaselineTest, NoRobustnessSharesReconstruct) {
  afe::IntegerSum<F> afe(8);
  baseline::NoRobustnessDeployment<F, afe::IntegerSum<F>> dep(&afe, 5, 42);
  SecureRng rng(11);
  u64 expect = 0;
  for (u64 cid = 0; cid < 25; ++cid) {
    u64 x = cid;
    expect += x;
    EXPECT_TRUE(dep.process_submission(cid, dep.client_upload(x, cid, rng)));
  }
  // One client uploading twice: every server's blob carries seq 0, then
  // seq 1, and both submissions open and reconstruct.
  auto first = dep.client_upload(3, 200, rng);
  auto second = dep.client_upload(3, 200, rng);
  for (size_t j = 0; j < 5; ++j) {
    EXPECT_EQ(net::Reader(first[j]).u64_(), 0u) << j;
    EXPECT_EQ(net::Reader(second[j]).u64_(), 1u) << j;
  }
  EXPECT_TRUE(dep.process_submission(200, first));
  EXPECT_TRUE(dep.process_submission(200, second));
  expect += 2 * 3;
  EXPECT_EQ(static_cast<u64>(dep.publish()), expect);
}

TEST(BaselineTest, NizkAcceptsHonestRejectsForged) {
  afe::BitVectorSum<F> afe(8);
  baseline::NizkDeployment<F> dep(&afe, 3);
  SecureRng rng(12);
  std::vector<u8> bits = {1, 0, 1, 1, 0, 0, 1, 0};
  auto up = dep.client_upload(bits, rng);
  EXPECT_TRUE(dep.process_submission(0, up));
  // Forge: swap in a proof for a different commitment (mismatch).
  auto up2 = dep.client_upload(bits, rng);
  // Corrupt one byte inside the first proof record.
  up2.proof_blob[40] ^= 1;
  EXPECT_FALSE(dep.process_submission(1, up2));
  auto counts = dep.publish();
  EXPECT_EQ(counts, (std::vector<u64>{1, 0, 1, 1, 0, 0, 1, 0}));
}

}  // namespace
}  // namespace prio
