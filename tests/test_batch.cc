// Batched verification pipeline tests for both the SNIP and the Prio-MPC
// pipelines: coalesced rounds, refresh-window chunking, the replay floor,
// and -- the key property -- verdicts that do not depend on batch size.
// Each deployment verifies through process_batch alone (process_submission
// is a batch of one), so Q batches of one must decide a mixed
// valid/invalid batch exactly as one batch of Q does.

#include <gtest/gtest.h>

#include "afe/bitvec_sum.h"
#include "afe/sum.h"
#include "core/deployment.h"
#include "core/mpc_deployment.h"
#include "net/wire.h"

namespace prio {
namespace {

using F = Fp64;

// ---------- vectorized wire helpers ----------

TEST(WireBatchTest, FieldPairsRoundtrip) {
  SecureRng rng(1);
  std::vector<std::pair<F, F>> pairs;
  for (int i = 0; i < 7; ++i) {
    pairs.emplace_back(rng.field_element<F>(), rng.field_element<F>());
  }
  net::Writer w;
  w.field_pairs<F>(std::span<const std::pair<F, F>>(pairs));
  net::Reader r(w.data());
  auto got = r.field_pairs<F>();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(got, pairs);
}

TEST(WireBatchTest, BitmapRoundtrip) {
  std::vector<u8> bits = {1, 0, 0, 1, 1, 1, 0, 1, 0, 1, 1};
  net::Writer w;
  w.bitmap(bits);
  // 4-byte length + 2 packed bytes for 11 bits.
  EXPECT_EQ(w.size(), 6u);
  net::Reader r(w.data());
  EXPECT_EQ(r.bitmap(), bits);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(WireBatchTest, TruncatedPairsFailSoftly) {
  net::Writer w;
  std::vector<std::pair<F, F>> pairs = {{F::one(), F::one()}};
  w.field_pairs<F>(std::span<const std::pair<F, F>>(pairs));
  auto bytes = w.take();
  bytes.resize(bytes.size() - 3);
  net::Reader r(bytes);
  r.field_pairs<F>();
  EXPECT_FALSE(r.ok());
}

// ---------- mixed valid/invalid batches ----------

// Pushes an out-of-range encoding through the client path (the "submit
// 2^60 instead of a small value" attack from the deployment tests).
template <template <typename, typename> class Deployment>
std::vector<std::vector<u8>> bogus_upload(const afe::IntegerSum<F>& afe,
                                          u64 client_id, SecureRng& rng) {
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
  Deployment<F, RawAfe> evil(&raw, {.num_servers = 3});
  std::vector<F> bogus(afe.k(), F::zero());
  bogus[0] = F::from_u64(u64{1} << 60);
  return evil.client_upload(bogus, client_id, rng);
}

// A batch of honest, bogus-encoding, tampered-ciphertext, and truncated
// submissions, with the expected per-submission verdicts.
template <typename Dep>
std::pair<std::vector<Submission>, std::vector<u8>> make_mixed_batch(
    Dep& client_side, const afe::IntegerSum<F>& afe, SecureRng& rng,
    u64* honest_total) {
  std::vector<Submission> batch;
  std::vector<u8> expected;
  *honest_total = 0;
  for (u64 cid = 0; cid < 6; ++cid) {
    u64 x = 3 * cid + 1;
    *honest_total += x;
    batch.push_back({cid, client_side.client_upload(x, cid, rng)});
    expected.push_back(1);
  }
  // Well-formed shares of an invalid encoding: rejected by the SNIP.
  batch.push_back({100, bogus_upload<PrioDeployment>(afe, 100, rng)});
  expected.push_back(0);
  // Tampered ciphertext: AEAD open fails at server 0.
  {
    auto blobs = client_side.client_upload(5, 101, rng);
    blobs[0][12] ^= 1;
    batch.push_back({101, std::move(blobs)});
    expected.push_back(0);
  }
  // Truncated blob: not even a seq prefix.
  {
    auto blobs = client_side.client_upload(5, 102, rng);
    blobs[1].resize(4);
    batch.push_back({102, std::move(blobs)});
    expected.push_back(0);
  }
  return {std::move(batch), std::move(expected)};
}

TEST(BatchPipelineTest, MatchesSerialOnMixedBatch) {
  afe::IntegerSum<F> afe(8);
  PrioDeployment<F, afe::IntegerSum<F>> serial(&afe, {.num_servers = 3});
  PrioDeployment<F, afe::IntegerSum<F>> batched(&afe, {.num_servers = 3});
  SecureRng rng(21);
  u64 honest_total = 0;
  auto [batch, expected] = make_mixed_batch(serial, afe, rng, &honest_total);

  std::vector<u8> serial_verdicts;
  for (const auto& sub : batch) {
    serial_verdicts.push_back(serial.process_submission(sub.client_id, sub.blobs) ? 1 : 0);
  }
  auto batch_verdicts = batched.process_batch(batch);

  EXPECT_EQ(serial_verdicts, expected);
  EXPECT_EQ(batch_verdicts, expected);
  EXPECT_EQ(batched.accepted(), serial.accepted());
  EXPECT_EQ(batched.processed(), batch.size());
  EXPECT_EQ(static_cast<u64>(batched.publish()), honest_total);
  EXPECT_EQ(static_cast<u64>(serial.publish()), honest_total);
}

TEST(BatchPipelineTest, CoalescesRoundsAndMessages) {
  // The whole batch runs in the two protocol rounds (not 2 per
  // submission). 3 servers: round 1 is 2 non-leader->leader frames, round
  // 2 a 2-peer broadcast: 4 frames on the mesh, whatever the batch size.
  afe::IntegerSum<F> afe(8);
  SecureRng rng(22);
  auto frames_for = [&](size_t q) {
    PrioDeployment<F, afe::IntegerSum<F>> dep(&afe, {.num_servers = 3});
    std::vector<Submission> batch;
    for (u64 cid = 0; cid < q; ++cid) {
      batch.push_back({cid, dep.client_upload(1, cid, rng)});
    }
    auto verdicts = dep.process_batch(batch);
    for (u8 v : verdicts) EXPECT_EQ(v, 1);
    return dep.network().total_frames();
  };
  EXPECT_EQ(frames_for(1), 4u);
  EXPECT_EQ(frames_for(10), 4u);
}

TEST(BatchPipelineTest, RefreshCrossesBatchBoundaries) {
  afe::IntegerSum<F> afe(4);
  DeploymentOptions opts;
  opts.num_servers = 2;
  opts.refresh_every = 4;  // every batch of 3 below straddles a boundary
  PrioDeployment<F, afe::IntegerSum<F>> dep(&afe, opts);
  SecureRng rng(23);
  u64 cid = 0;
  for (int b = 0; b < 5; ++b) {
    std::vector<Submission> batch;
    for (int j = 0; j < 3; ++j, ++cid) {
      batch.push_back({cid, dep.client_upload(1, cid, rng)});
    }
    auto verdicts = dep.process_batch(batch);
    for (u8 v : verdicts) EXPECT_EQ(v, 1);
  }
  EXPECT_EQ(dep.accepted(), 15u);
  EXPECT_EQ(static_cast<u64>(dep.publish()), 15u);
}

TEST(BatchPipelineTest, OversizedBatchIsChunkedToRefreshWindow) {
  // A batch larger than refresh_every must not run under a single secret
  // point r: process_batch chunks it, so the 10 submissions below run as
  // three chunks (4 + 4 + 2), visible as 3 x 2 frames on the mesh (one
  // per protocol round at s = 2).
  afe::IntegerSum<F> afe(4);
  DeploymentOptions opts;
  opts.num_servers = 2;
  opts.refresh_every = 4;
  PrioDeployment<F, afe::IntegerSum<F>> dep(&afe, opts);
  SecureRng rng(28);
  std::vector<Submission> batch;
  for (u64 cid = 0; cid < 10; ++cid) {
    batch.push_back({cid, dep.client_upload(1, cid, rng)});
  }
  auto verdicts = dep.process_batch(batch);
  ASSERT_EQ(verdicts.size(), 10u);
  for (u8 v : verdicts) EXPECT_EQ(v, 1);
  EXPECT_EQ(dep.network().total_frames(), 3u * 2u);
  EXPECT_EQ(dep.accepted(), 10u);
  EXPECT_EQ(static_cast<u64>(dep.publish()), 10u);
}

TEST(BatchPipelineTest, ReplayWithinAndAcrossBatchesRejected) {
  // The replay floor applies inside a batch (duplicate submission included
  // twice) and across batches/entry points, matching serial semantics.
  afe::IntegerSum<F> afe(4);
  PrioDeployment<F, afe::IntegerSum<F>> batched(&afe, {.num_servers = 2});
  PrioDeployment<F, afe::IntegerSum<F>> serial(&afe, {.num_servers = 2});
  SecureRng rng(29);
  auto blobs = batched.client_upload(5, 0, rng);
  std::vector<Submission> batch = {{0, blobs}, {0, blobs}};  // dup in batch
  auto verdicts = batched.process_batch(batch);
  EXPECT_EQ(verdicts, (std::vector<u8>{1, 0}));
  // Replay in a later batch and via the serial entry point: both refused.
  EXPECT_EQ(batched.process_batch(batch), (std::vector<u8>{0, 0}));
  EXPECT_FALSE(batched.process_submission(0, blobs));
  EXPECT_EQ(static_cast<u64>(batched.publish()), 5u);

  // Serial agrees: first accept, then rejects.
  EXPECT_TRUE(serial.process_submission(0, blobs));
  EXPECT_FALSE(serial.process_submission(0, blobs));
  EXPECT_EQ(static_cast<u64>(serial.publish()), 5u);
}

TEST(BatchPipelineTest, EmptyBatchIsANoop) {
  afe::IntegerSum<F> afe(4);
  PrioDeployment<F, afe::IntegerSum<F>> dep(&afe, {.num_servers = 2});
  EXPECT_TRUE(dep.process_batch({}).empty());
  EXPECT_EQ(dep.processed(), 0u);
  EXPECT_EQ(dep.network().total_frames(), 0u);
}

TEST(BatchPipelineTest, SerialAndBatchedInterleave) {
  // A deployment can mix the two entry points; accounting stays coherent.
  afe::IntegerSum<F> afe(4);
  PrioDeployment<F, afe::IntegerSum<F>> dep(&afe, {.num_servers = 2});
  SecureRng rng(25);
  EXPECT_TRUE(dep.process_submission(0, dep.client_upload(2, 0, rng)));
  std::vector<Submission> batch;
  for (u64 cid = 1; cid < 4; ++cid) {
    batch.push_back({cid, dep.client_upload(2, cid, rng)});
  }
  auto verdicts = dep.process_batch(batch);
  for (u8 v : verdicts) EXPECT_EQ(v, 1);
  EXPECT_TRUE(dep.process_submission(4, dep.client_upload(2, 4, rng)));
  EXPECT_EQ(dep.processed(), 5u);
  EXPECT_EQ(static_cast<u64>(dep.publish()), 10u);
}

// ---------- Prio-MPC batch variant ----------

// Q batches of one (process_submission) vs one batch of Q: the verdicts,
// the accepted count and the published sum must not depend on batch size.
TEST(MpcBatchPipelineTest, MatchesSerialOnMixedBatch) {
  afe::IntegerSum<F> afe(6);
  PrioMpcDeployment<F, afe::IntegerSum<F>> serial(&afe, {.num_servers = 3});
  PrioMpcDeployment<F, afe::IntegerSum<F>> batched(&afe,
                                                   {.num_servers = 3});
  SecureRng rng(26);

  std::vector<Submission> batch;
  std::vector<u8> expected;
  u64 honest_total = 0;
  for (u64 cid = 0; cid < 5; ++cid) {
    u64 x = 2 * cid + 3;
    honest_total += x;
    batch.push_back({cid, serial.client_upload(x, cid, rng)});
    expected.push_back(1);
  }
  batch.push_back({50, bogus_upload<PrioMpcDeployment>(afe, 50, rng)});
  expected.push_back(0);
  {
    auto blobs = serial.client_upload(1, 51, rng);
    blobs[2][20] ^= 1;
    batch.push_back({51, std::move(blobs)});
    expected.push_back(0);
  }

  std::vector<u8> serial_verdicts;
  for (const auto& sub : batch) {
    serial_verdicts.push_back(serial.process_submission(sub.client_id, sub.blobs) ? 1 : 0);
  }
  auto batch_verdicts = batched.process_batch(batch);

  EXPECT_EQ(serial_verdicts, expected);
  EXPECT_EQ(batch_verdicts, expected);
  EXPECT_EQ(batched.accepted(), serial.accepted());
  EXPECT_EQ(static_cast<u64>(batched.publish()), honest_total);
  EXPECT_EQ(static_cast<u64>(serial.publish()), honest_total);
}

TEST(MpcBatchPipelineTest, BeaverRoundsAreLockStepAcrossBatch) {
  // Beaver MPC costs rounds proportional to circuit depth, but a batch
  // shares each round's frames: the frame count must not grow with batch
  // size.
  afe::IntegerSum<F> afe(4);
  SecureRng rng(27);
  auto frames_for = [&](size_t q) {
    PrioMpcDeployment<F, afe::IntegerSum<F>> dep(&afe, {.num_servers = 2});
    std::vector<Submission> batch;
    for (u64 cid = 0; cid < q; ++cid) {
      batch.push_back({cid, dep.client_upload(1, cid, rng)});
    }
    auto verdicts = dep.process_batch(batch);
    for (u8 v : verdicts) EXPECT_EQ(v, 1);
    return dep.network().total_frames();
  };
  EXPECT_EQ(frames_for(1), frames_for(8));
}

TEST(MpcBatchPipelineTest, OversizedBatchIsChunkedToRefreshWindow) {
  // As for the SNIP pipeline: 10 submissions under refresh_every = 4 run as
  // three chunks (4 + 4 + 2), each paying one chunk's frames.
  afe::IntegerSum<F> afe(4);
  DeploymentOptions opts;
  opts.num_servers = 2;
  opts.refresh_every = 4;
  SecureRng rng(30);
  u64 one_chunk_frames = 0;
  {
    PrioMpcDeployment<F, afe::IntegerSum<F>> one(&afe, opts);
    EXPECT_TRUE(one.process_submission(0, one.client_upload(1, 0, rng)));
    one_chunk_frames = one.network().total_frames();
  }
  PrioMpcDeployment<F, afe::IntegerSum<F>> dep(&afe, opts);
  std::vector<Submission> batch;
  for (u64 cid = 0; cid < 10; ++cid) {
    batch.push_back({cid, dep.client_upload(cid, cid, rng)});
  }
  auto verdicts = dep.process_batch(batch);
  ASSERT_EQ(verdicts.size(), 10u);
  for (u8 v : verdicts) EXPECT_EQ(v, 1);
  EXPECT_EQ(dep.network().total_frames(), 3 * one_chunk_frames);
  EXPECT_EQ(dep.accepted(), 10u);
  EXPECT_EQ(static_cast<u64>(dep.publish()), 45u);  // 0 + 1 + ... + 9
}

TEST(MpcBatchPipelineTest, ReplayWithinAndAcrossBatchesRejected) {
  // An exact replay is refused inside one batch, in a later batch, and via
  // process_submission; only the first copy is aggregated.
  afe::IntegerSum<F> afe(4);
  PrioMpcDeployment<F, afe::IntegerSum<F>> dep(&afe, {.num_servers = 3});
  SecureRng rng(31);
  auto blobs = dep.client_upload(5, 0, rng);
  std::vector<Submission> batch = {{0, blobs}, {0, blobs}};  // dup in batch
  EXPECT_EQ(dep.process_batch(batch), (std::vector<u8>{1, 0}));
  EXPECT_EQ(dep.process_batch(batch), (std::vector<u8>{0, 0}));
  EXPECT_FALSE(dep.process_submission(0, blobs));
  // The client's next submission is still fresh.
  EXPECT_TRUE(dep.process_submission(0, dep.client_upload(2, 0, rng)));
  EXPECT_EQ(dep.accepted(), 2u);
  EXPECT_EQ(dep.processed(), 6u);
  EXPECT_EQ(static_cast<u64>(dep.publish()), 7u);
}

}  // namespace
}  // namespace prio
