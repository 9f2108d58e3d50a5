// Sharded-runtime tests: the client-id -> shard routing invariants, the
// multi-lane router over a loopback mesh checked against the plaintext
// reference (and its metrics and trace against the same ground truth),
// the frame codecs' pinned bytes and their hostile-input fuzz,
// cross-shard replay/misroute rejection, lanes under a slow peer, a
// recovered sequencer caught up one batch over the mesh, no proof opened
// twice across a restart, and the TCP mesh's lanes: per-lane ordering,
// reestablish, and hostile or mismatched hellos.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <thread>

#include "afe/bitvec_sum.h"
#include "cluster.h"
#include "baseline/no_privacy.h"
#include "core/client.h"
#include "net/tcp_transport.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/router.h"
#include "store/recovery.h"
#include "store/wal.h"
#include "util/hex.h"

namespace prio {
namespace {

using namespace test;

using F = Fp64;
using Afe = afe::BitVectorSum<F>;
using Router = server::ServerRouter<F, Afe>;
using TestCluster = Cluster<F, Afe>;

// Bad proofs ride along with the tampered ciphertexts.
constexpr Seeds kSeeds{.master_seed = 91, .rng_seed = 321, .bad_proofs = true};

// ---------------------------------------------------------------------------
// shard_of: the one routing function every server (and the client-facing
// router) must agree on.
// ---------------------------------------------------------------------------

TEST(ShardOfTest, SameClientAlwaysSameShardAndInRange) {
  for (u64 cid : {u64{0}, u64{1}, u64{7}, u64{123456789}, ~u64{0}}) {
    EXPECT_EQ(server::shard_of(cid, 1), 0u);
    for (size_t shards : {size_t{2}, size_t{3}, size_t{4}, size_t{255}}) {
      const size_t s = server::shard_of(cid, shards);
      EXPECT_LT(s, shards);
      // Stable: the replay floor for a client lives in exactly one shard,
      // which only holds if re-hashing can never move the client.
      EXPECT_EQ(server::shard_of(cid, shards), s);
    }
  }
}

TEST(ShardOfTest, SequentialIdsSpreadAcrossShards) {
  // Clients get sequential ids in practice; the splitmix finalizer must
  // still spread them instead of striping them into one shard.
  constexpr size_t kShards = 4;
  constexpr u64 kIds = 4000;
  std::vector<size_t> hist(kShards, 0);
  for (u64 cid = 0; cid < kIds; ++cid) {
    ++hist[server::shard_of(cid, kShards)];
  }
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_GT(hist[s], kIds / kShards / 2) << "shard " << s;
    EXPECT_LT(hist[s], kIds / kShards * 2) << "shard " << s;
  }
}

// ---------------------------------------------------------------------------
// Frame codecs (server/protocol.h): the client frames and the plaintext
// mesh frames, plus the outer type byte of the sealed catch-up frames
// ---------------------------------------------------------------------------

// One pinned frame per type: the layout is a wire contract between servers
// and clients built from different trees, so a codec change that moves a
// byte fails here. Every decoder round-trips its frame.
TEST(FrameCodecTest, ByteFormatMatchesPinnedFrames) {
  const std::string spec = "sum:bits=8";
  const std::string spec_hex = "0a000000" "73756d3a626974733d38";
  // encode(frame) == pinned, and decode<T>(pinned) re-encodes to it.
  auto pinned = [](const auto& frame, const std::string& hex) {
    using Frame = std::decay_t<decltype(frame)>;
    const std::vector<u8> bytes = from_hex(hex);
    EXPECT_EQ(to_hex(server::encode(frame)), hex);
    const auto back = server::decode<Frame>(bytes);
    EXPECT_TRUE(back.has_value()) << hex;
    if (back) {
      EXPECT_EQ(server::encode(*back), bytes);
    }
    return back;
  };

  const auto sub = pinned(
      server::ClientSubmit{0x0102030405060708ull,
                           from_hex("8877665544332211" "deadbeef")},
      "11" "0807060504030201" "0c000000" "8877665544332211deadbeef");
  ASSERT_TRUE(sub.has_value());
  EXPECT_EQ(sub->client_id, 0x0102030405060708ull);
  EXPECT_EQ(load_le64(sub->blob.data()), 0x1122334455667788ull);

  for (bool ok : {true, false}) {
    const auto ack = server::encode_submit_ack(ok);
    EXPECT_EQ(to_hex(ack), ok ? "1201" : "1200");
    EXPECT_EQ(server::decode_submit_ack(ack), std::optional<bool>(ok));
  }

  const auto query =
      pinned(server::GetAggregate{7, 3, spec}, "13" "07000000" "03" + spec_hex);
  ASSERT_TRUE(query.has_value());
  EXPECT_EQ(query->afe_spec, spec);

  const std::vector<F> sigma = {F::from_u64(1), F::from_u64(2), -F::one()};
  const std::string agg_hex =
      "14" "07000000" "0500000000000000" "03" + spec_hex + "03000000"
      "0100000000000000" "0200000000000000" "00000000ffffffff"
      "04000000" "05000000";
  pinned(server::Aggregate<F>{7, 5, 3, spec, sigma, from_hex("05000000")},
         agg_hex);
  const std::string reject_hex = "15" "03" + spec_hex;
  pinned(server::AggregateReject{3, spec}, reject_hex);
  // The reply decoder tells the two apart, and an aggregate with a sigma of
  // another length is not this deployment's.
  const std::vector<u8> agg = from_hex(agg_hex);
  const auto published = server::decode_aggregate_reply<F>(agg, 3);
  ASSERT_TRUE(published.published.has_value());
  EXPECT_FALSE(published.rejected.has_value());
  EXPECT_EQ(published.published->sigma, sigma);
  EXPECT_FALSE(server::decode_aggregate_reply<F>(agg, 4).published);
  const auto rejected =
      server::decode_aggregate_reply<F>(from_hex(reject_hex), 3);
  EXPECT_FALSE(rejected.published.has_value());
  ASSERT_TRUE(rejected.rejected.has_value());
  EXPECT_EQ(rejected.rejected->afe_spec, spec);

  pinned(server::BatchAnnounce{
             1, {{1, 2}, {0x0102030405060708ull, 0xfffffffffffffffeull}}},
         "21" "01000000" "02000000" "0100000000000000" "0200000000000000"
         "0807060504030201" "feffffffffffffff");
  pinned(server::LaneClose{2, 9}, "22" "02000000" "09000000");
  pinned(server::SyncHello{1, 3, 640, 600, 12, spec},
         "31" "01000000" "03000000" "8002000000000000" "5802000000000000"
         "0c00000000000000" + spec_hex);

  // The catch-up decoders return views into the frame, so it outlives them.
  const std::vector<u8> sealed = from_hex("aabbcc");
  for (u8 type : {server::kCatchUpBatch, server::kCatchUpEpoch}) {
    const std::vector<u8> frame = server::encode_catch_up(type, sealed);
    EXPECT_EQ(to_hex(frame),
              (type == server::kCatchUpBatch ? "32" : "33") + to_hex(sealed));
    const auto body = server::decode_catch_up(type, frame);
    ASSERT_TRUE(body.has_value());
    EXPECT_EQ(std::vector<u8>(body->begin(), body->end()), sealed);
  }
  EXPECT_EQ(to_hex(server::encode_catch_up_epoch_body(5)), "05000000");
  EXPECT_EQ(server::decode_catch_up_epoch_body(from_hex("05000000")),
            std::optional<u32>(5));
}

// Hostile frames for every decoder, shaped like BatchRecordFuzzTest. A
// frame a decoder accepts must re-encode to exactly the bytes it was given;
// everything else is refused without throwing. The sealed catch-up frames
// are fuzzed through the AEAD open the runtime puts behind their outer
// codec, so any change to the sealed body is refused there.
TEST(FrameCodecFuzzTest, HostileFramesAllRejectedWithoutUB) {
  using Bytes = std::vector<u8>;
  // Decodes, and on acceptance re-encodes; nullopt iff the decoder refused.
  using Reencode = std::function<std::optional<Bytes>(std::span<const u8>)>;
  struct Case {
    std::string name;
    Bytes good;
    std::vector<u8> types;  // the type bytes the decoder accepts
    Reencode reencode;
  };
  // The generic codec pair of one frame struct.
  auto generic = [](std::string name, auto frame) {
    using Frame = decltype(frame);
    return Case{std::move(name), server::encode(frame), {Frame::kType},
                [](std::span<const u8> b) -> std::optional<Bytes> {
                  auto f = server::decode<Frame>(b);
                  if (!f) return std::nullopt;
                  return server::encode(*f);
                }};
  };
  std::mt19937_64 gen(26);
  auto random_bytes = [&](size_t n) {
    Bytes b(n);
    for (auto& x : b) x = static_cast<u8>(gen());
    return b;
  };
  constexpr size_t kPrime = 3;
  std::vector<F> sigma;
  for (size_t i = 0; i < kPrime; ++i) sigma.push_back(F::from_u64(gen()));
  server::BatchIds ids;
  for (int i = 0; i < 5; ++i) ids.push_back({gen(), gen()});
  const std::string spec = "bitvec_sum:len=16";

  const Reencode ack = [](std::span<const u8> b) -> std::optional<Bytes> {
    auto ok = server::decode_submit_ack(b);
    if (!ok) return std::nullopt;
    const auto enc = server::encode_submit_ack(*ok);
    return Bytes(enc.begin(), enc.end());
  };
  const Reencode reply = [](std::span<const u8> b) -> std::optional<Bytes> {
    auto r = server::decode_aggregate_reply<F>(b, kPrime);
    EXPECT_FALSE(r.published && r.rejected);
    if (r.published) return server::encode(*r.published);
    if (r.rejected) return server::encode(*r.rejected);
    return std::nullopt;
  };
  // The catch-up bodies travel sealed under a per-(generation, tag,
  // direction) control channel that seals from nonce 0, so re-sealing an
  // accepted body on a fresh channel reproduces the frame exactly.
  const Bytes secret = random_bytes(32);
  auto control = [&](const char* tag) {
    return net::SecureChannel(secret, "s0/g1/" + std::string(tag),
                              "s1/g1/" + std::string(tag));
  };
  const Reencode catch_up_batch =
      [&](std::span<const u8> b) -> std::optional<Bytes> {
    auto sealed = server::decode_catch_up(server::kCatchUpBatch, b);
    if (!sealed) return std::nullopt;
    auto body = control("cub").open(*sealed);
    if (!body) return std::nullopt;
    auto rec = decode_batch_record(*body);
    if (!rec) return std::nullopt;
    return server::encode_catch_up(
        server::kCatchUpBatch,
        control("cub").seal(encode_batch_record(rec->ids, rec->verdicts)));
  };
  const Reencode catch_up_epoch =
      [&](std::span<const u8> b) -> std::optional<Bytes> {
    auto sealed = server::decode_catch_up(server::kCatchUpEpoch, b);
    if (!sealed) return std::nullopt;
    auto body = control("cue").open(*sealed);
    if (!body) return std::nullopt;
    auto epoch = server::decode_catch_up_epoch_body(*body);
    if (!epoch) return std::nullopt;
    return server::encode_catch_up(
        server::kCatchUpEpoch,
        control("cue").seal(server::encode_catch_up_epoch_body(*epoch)));
  };
  const std::vector<u8> replies = {server::kAggregate,
                                   server::kAggregateReject};

  const std::vector<Case> cases = {
      generic("client_submit", server::ClientSubmit{gen(), random_bytes(40)}),
      {"submit_ack_ok", {server::kSubmitAck, 1}, {server::kSubmitAck}, ack},
      {"submit_ack_nack", {server::kSubmitAck, 0}, {server::kSubmitAck}, ack},
      generic("get_aggregate",
              server::GetAggregate{static_cast<u32>(gen()), 2, spec}),
      {"aggregate",
       server::encode(server::Aggregate<F>{4, gen(), 2, spec, sigma,
                                           random_bytes(9)}),
       replies, reply},
      {"aggregate_reject", server::encode(server::AggregateReject{2, spec}),
       replies, reply},
      generic("batch_announce", server::BatchAnnounce{3, ids}),
      generic("lane_close", server::LaneClose{3, 17}),
      generic("sync_hello",
              server::SyncHello{3, 17, gen(), gen(), gen(), spec}),
      {"catch_up_batch",
       server::encode_catch_up(
           server::kCatchUpBatch,
           control("cub").seal(
               encode_batch_record(ids, std::vector<u8>{1, 0, 1, 1, 0}))),
       {server::kCatchUpBatch},
       catch_up_batch},
      {"catch_up_epoch",
       server::encode_catch_up(
           server::kCatchUpEpoch,
           control("cue").seal(server::encode_catch_up_epoch_body(17))),
       {server::kCatchUpEpoch},
       catch_up_epoch},
      {"catch_up_epoch_body",
       server::encode_catch_up_epoch_body(17),
       {},  // sealed plaintext: no type byte of its own
       [](std::span<const u8> b) -> std::optional<Bytes> {
         auto e = server::decode_catch_up_epoch_body(b);
         if (!e) return std::nullopt;
         return server::encode_catch_up_epoch_body(*e);
       }},
  };

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(c.reencode(c.good), std::optional<Bytes>(c.good));
    for (size_t len = 0; len < c.good.size(); ++len) {
      EXPECT_FALSE(c.reencode(std::span<const u8>(c.good.data(), len)))
          << "truncated to " << len;
    }
    for (size_t byte = 0; byte < c.good.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        Bytes bad = c.good;
        bad[byte] ^= static_cast<u8>(1u << bit);
        if (auto again = c.reencode(bad)) {
          EXPECT_EQ(*again, bad) << "flip at " << byte << ":" << bit;
        }
      }
    }
    Bytes trailing = c.good;
    trailing.push_back(0);
    EXPECT_FALSE(c.reencode(trailing)) << "one trailing byte";
    if (c.types.empty()) continue;
    for (int t = 0; t < 256; ++t) {
      if (std::count(c.types.begin(), c.types.end(), t) != 0) continue;
      Bytes wrong = c.good;
      wrong[0] = static_cast<u8>(t);
      EXPECT_FALSE(c.reencode(wrong)) << "type byte " << t;
    }
  }

  // Acks carry ok = 0 or 1, nothing else.
  EXPECT_FALSE(server::decode_submit_ack(Bytes{server::kSubmitAck, 2}));

  // Announcement counts: 0, one past the bound with every byte the count
  // claims present, and past the remaining bytes.
  auto announce = [](u32 count, size_t id_pairs) {
    Bytes b = server::encode(
        server::BatchAnnounce{0, server::BatchIds(id_pairs, {1, 2})});
    for (int i = 0; i < 4; ++i) b[5 + i] = static_cast<u8>(count >> (8 * i));
    return b;
  };
  EXPECT_TRUE(server::decode<server::BatchAnnounce>(announce(3, 3)));
  EXPECT_FALSE(server::decode<server::BatchAnnounce>(announce(0, 0)));
  {
    const u32 count = server::kMaxBatchRecord + 1;
    EXPECT_FALSE(server::decode<server::BatchAnnounce>(announce(count, count)));
  }
  EXPECT_FALSE(server::decode<server::BatchAnnounce>(announce(5, 2)));
  EXPECT_FALSE(server::decode<server::BatchAnnounce>(announce(0xffffffffu, 1)));
}

// ---------------------------------------------------------------------------
// Multi-lane router over a loopback mesh
// ---------------------------------------------------------------------------

// A loopback cluster with `shards` lanes per server, every server running
// `opts`.
ClusterOptions loopback(size_t shards, int recv_timeout_ms,
                        const server::RuntimeOptions& opts) {
  ClusterOptions c;
  c.shards = shards;
  c.master_seed = kSeeds.master_seed;
  c.recv_timeout_ms = recv_timeout_ms;
  c.runtime = opts;
  return c;
}

// Every server gets its own sealed view of submissions [from, to), through
// the router's intake.
void submit(TestCluster& cluster, const Workload& w, size_t from = 0,
            size_t to = SIZE_MAX) {
  to = std::min(to, w.subs.size());
  for (size_t i = 0; i < kServers; ++i) {
    for (size_t k = from; k < to; ++k) {
      const auto& blob = w.subs[k].blobs[i];
      cluster.router(i).submit(w.subs[k].client_id, sealed_seq(blob), blob);
    }
  }
}

// Two lanes, three servers: the sharded runtime's global aggregate must be
// bit-identical to the plaintext reference over the honest inputs -- each
// lane runs its own r schedule under lane-scoped channel keys, but field
// addition commutes, so the lane-summed sigma is the same. A replayed blob
// (same payload, bumped transport-level seq) is routed to the same shard
// and must be rejected there, never double counted. Every server's
// metrics, and server 0's trace log, must agree with the same ground
// truth: what /metrics, /stats.json and --trace-log serve.
TEST(ShardedRouterTest, TwoLanesMatchReferenceAndRejectReplay) {
  Afe afe(8);
  constexpr size_t kShards = 2;
  auto w = make_workload(afe, 24, kSeeds);
  const auto ref = reference(afe, w);

  server::RuntimeOptions opts;
  opts.epoch_size = w.subs.size() + 1;  // +1: the replayed submission
  opts.max_batch = 8;
  opts.epochs = 1;
  opts.announce_wait_ms = 20'000;
  opts.assemble_wait_ms = 5'000;

  const std::string trace_path =
      ::testing::TempDir() + "/prio_shard_trace.jsonl";
  std::filesystem::remove(trace_path);
  auto trace = obs::TraceLog::open(trace_path);
  ASSERT_NE(trace, nullptr);

  std::vector<obs::Registry> regs(kServers);
  ClusterOptions copts = loopback(kShards, 20'000, opts);
  copts.runtime_for = [&](size_t i, server::RuntimeOptions& o) {
    o.metrics = &regs[i];
    if (i == 0) o.trace = trace.get();
  };
  TestCluster cluster(&afe, Mesh::kLoopback, copts);

  // Every server gets its own sealed view of every submission, plus one
  // replay of an honest client's blob under a bumped intake seq.
  submit(cluster, w);
  const u64 replay_cid = 1;
  for (size_t i = 0; i < kServers; ++i) {
    const auto& replay = w.subs[replay_cid].blobs[i];
    cluster.router(i).submit(replay_cid, sealed_seq(replay) + 1, replay);
  }
  cluster.start();
  const auto& results = cluster.finish();
  expect_clean(results);

  const auto& agg = results[0].last;
  ASSERT_TRUE(agg.has_value());
  EXPECT_EQ(agg->accepted, ref.accepted());  // replay not double counted
  EXPECT_EQ(agg->sigma, ref.sigma());
  EXPECT_EQ(agg->result, ref.result());
  // Every server processed all 25 announced submissions, split over lanes.
  for (size_t i = 0; i < kServers; ++i) {
    u64 processed = 0;
    for (size_t l = 0; l < kShards; ++l) {
      processed += cluster.router(i).shard(l)->node()->processed();
    }
    EXPECT_EQ(processed, w.subs.size() + 1) << "server " << i;
  }
  // Each server's totals match the ground truth: 25 acked at intake, the
  // honest ones verify-accepted, the tampered ones and the replay rejected.
  const u64 intake = w.subs.size() + 1;
  for (size_t i = 0; i < kServers; ++i) {
    const obs::Registry& reg = regs[i];
    EXPECT_EQ(reg.total("prio_intake_accepted_total"), intake) << i;
    EXPECT_EQ(reg.total("prio_verify_accepted_total"), ref.accepted()) << i;
    EXPECT_EQ(reg.total("prio_verify_rejected_total"),
              intake - ref.accepted())
        << i;
    EXPECT_GT(reg.total("prio_batches_committed_total"), 0u) << i;
    EXPECT_GT(reg.hist_count("prio_stage_rounds_seconds"), 0u) << i;
  }
  trace.reset();  // flushes and closes
  std::ifstream in(trace_path);
  std::stringstream lines;
  lines << in.rdbuf();
  EXPECT_NE(lines.str().find("\"event\":\"batch_committed\""),
            std::string::npos);
  std::filesystem::remove(trace_path);
}

// A blob smuggled into the WRONG shard's intake (bypassing the router's
// hash, as a compromised intake path might) is named by that lane's next
// announcement -- and every follower rejects the announcement, because the
// id does not hash to the lane. The mesh fails loudly on all servers; the
// misrouted submission is never aggregated anywhere.
TEST(ShardedRouterTest, MisroutedSubmissionFailsLoudlyEverywhere) {
  Afe afe(6);
  constexpr size_t kShards = 2;
  auto w = make_workload(afe, 4, kSeeds);

  // A client id that hashes to shard 0, to be injected into shard 1.
  u64 misrouted_cid = 1000;
  while (server::shard_of(misrouted_cid, kShards) != 0) ++misrouted_cid;
  PrioClient<F, Afe> encoder(&afe, kServers, kSeeds.master_seed);
  SecureRng rng(77);
  auto mis_blobs =
      encoder.upload(std::vector<u8>(afe.length(), 0), misrouted_cid, rng);

  server::RuntimeOptions opts;
  opts.epoch_size = w.subs.size() + 1;
  opts.max_batch = 8;
  opts.epochs = 1;
  opts.announce_wait_ms = 5'000;
  opts.assemble_wait_ms = 500;
  opts.max_resyncs = 1;  // loopback cannot reestablish; fail fast

  std::vector<obs::Registry> regs(kServers);
  ClusterOptions copts = loopback(kShards, 1'000, opts);
  copts.runtime_for = [&](size_t i, server::RuntimeOptions& o) {
    o.metrics = &regs[i];
  };
  TestCluster cluster(&afe, Mesh::kLoopback, copts);
  submit(cluster, w);
  for (size_t i = 0; i < kServers; ++i) {
    // Injected past the router's hash, into the wrong shard, everywhere.
    cluster.router(i).shard(1)->submit(misrouted_cid, sealed_seq(mis_blobs[i]),
                                       mis_blobs[i]);
  }
  cluster.start();
  const auto& results = cluster.finish();

  for (size_t i = 0; i < kServers; ++i) {
    EXPECT_TRUE(results[i].error) << "server " << i << " accepted a misroute";
  }
  // The misrouted blob never reached any node's accumulator.
  for (size_t i = 0; i < kServers; ++i) {
    EXPECT_EQ(cluster.router(i).shard(1)->node()->accepted(), 0u)
        << "server " << i;
  }
  // The reject is visible in the followers' metrics: the announcement
  // names the bad id, so every receiving server counts one misroute on
  // the injected lane. The announcer (server 0) never receives its own
  // announcement and counts nothing.
  EXPECT_EQ(regs[0].total("prio_reject_misroute_total"), 0u);
  for (size_t i = 1; i < kServers; ++i) {
    EXPECT_GE(regs[i].total("prio_reject_misroute_total"), 1u)
        << "server " << i;
  }
  // Every server aborted the poisoned batch.
  for (size_t i = 0; i < kServers; ++i) {
    EXPECT_EQ(regs[i].total("prio_reject_spec_mismatch_total"), 0u);
    EXPECT_GE(regs[i].total("prio_batch_aborts_total"), 1u) << "server " << i;
  }
}

// Divergent AFE configuration must fail every server at lane sync (the
// circuits would disagree on every batch) -- and the reject is counted
// under prio_reject_spec_mismatch_total on each server that saw the
// divergent peer's hello.
TEST(ShardedRouterTest, SpecMismatchFailsSyncAndCountsReject) {
  Afe afe(6);
  constexpr size_t kShards = 1;

  server::RuntimeOptions opts;
  opts.epoch_size = 4;
  opts.max_batch = 4;
  opts.epochs = 1;
  opts.announce_wait_ms = 2'000;
  opts.max_resyncs = 1;

  std::vector<obs::Registry> regs(kServers);
  ClusterOptions copts = loopback(kShards, 2'000, opts);
  copts.runtime_for = [&](size_t i, server::RuntimeOptions& o) {
    o.metrics = &regs[i];
    // Server 1 is misconfigured with a different AFE spec.
    o.afe_spec = i == 1 ? "bitvec_sum:len=7" : "bitvec_sum:len=6";
  };
  TestCluster cluster(&afe, Mesh::kLoopback, copts);
  cluster.start();
  const auto& results = cluster.finish();

  for (size_t i = 0; i < kServers; ++i) {
    EXPECT_TRUE(results[i].error)
        << "server " << i << " survived a spec mismatch";
  }
  // Servers 0 and 2 each saw server 1's divergent hello; server 1 saw two.
  EXPECT_GE(regs[0].total("prio_reject_spec_mismatch_total"), 1u);
  EXPECT_GE(regs[1].total("prio_reject_spec_mismatch_total"), 1u);
  EXPECT_GE(regs[2].total("prio_reject_spec_mismatch_total"), 1u);
}

// A lane verifies each announced batch under one secret r, so the router
// refuses an announcement cap above the refresh window when it is built,
// not at the first full batch.
TEST(ShardedRouterTest, BatchCapAboveRefreshWindowFailsConstruction) {
  Afe afe(8);
  net::LoopbackMesh mesh(kServers);
  net::LoopbackTransport link(&mesh, 0);
  ServerNodeConfig cfg = node_config(0, kSeeds.master_seed);
  cfg.refresh_every = 8;
  server::RuntimeOptions opts;
  opts.max_batch = 9;
  EXPECT_THROW({ Router r(&afe, &link, nullptr, opts, cfg); },
               std::invalid_argument);
  opts.max_batch = 8;
  EXPECT_NO_THROW({ Router r(&afe, &link, nullptr, opts, cfg); });
}

// Delays every outbound frame of one peer, so on the other servers one
// lane thread spends most of the epoch blocked in mesh recvs while its
// sibling lane keeps verifying. The epoch completing -- within the test
// timeout, with the right aggregate -- is the regression gate: a lane
// parked in a recv must never stall its sibling.
TEST(ShardedRouterTest, SlowPeerTwoLanesComplete) {
  // Wraps one node's mesh view, sleeping before every send.
  struct SlowTransport final : net::Transport {
    net::Transport& inner;
    std::chrono::milliseconds delay;
    SlowTransport(net::Transport& mesh, int delay_ms)
        : inner(mesh), delay(delay_ms) {}
    size_t num_nodes() const override { return inner.num_nodes(); }
    size_t self() const override { return inner.self(); }
    size_t lanes() const override { return inner.lanes(); }
    void send(size_t to, std::vector<u8> f) override {
      std::this_thread::sleep_for(delay);
      inner.send(to, std::move(f));
    }
    std::vector<u8> recv(size_t from) override { return inner.recv(from); }
    void send_lane(size_t lane, size_t to, std::vector<u8> f) override {
      std::this_thread::sleep_for(delay);
      inner.send_lane(lane, to, std::move(f));
    }
    std::vector<u8> recv_lane(size_t lane, size_t from) override {
      return inner.recv_lane(lane, from);
    }
  };

  Afe afe(8);
  constexpr size_t kShards = 2;
  auto w = make_workload(afe, 24, kSeeds);
  size_t expected_accepted = 0;
  for (u8 e : w.expected) expected_accepted += e;

  server::RuntimeOptions opts;
  opts.epoch_size = w.subs.size();
  opts.max_batch = 8;
  opts.epochs = 1;
  opts.announce_wait_ms = 20'000;
  opts.assemble_wait_ms = 5'000;

  ClusterOptions copts = loopback(kShards, 20'000, opts);
  copts.wrap_mesh = [](size_t i, net::Transport& mesh)
      -> std::unique_ptr<net::Transport> {
    if (i != kServers - 1) return nullptr;
    return std::make_unique<SlowTransport>(mesh, /*delay_ms=*/3);
  };
  TestCluster cluster(&afe, Mesh::kLoopback, copts);
  submit(cluster, w);
  cluster.start();
  const auto& results = cluster.finish();
  expect_clean(results);

  ASSERT_TRUE(results[0].last.has_value());
  EXPECT_EQ(results[0].last->accepted, expected_accepted);
}

// A restarted sequencer that recovers one batch short is caught up on it
// over the mesh (kCatchUpBatch). That batch consumed epoch quota like any
// other: were it not debited, server 0 would announce past the end of the
// epoch and then wait for traffic that never comes. Three durable servers
// run epoch 0 and one batch of epoch 1, then stop (server 0 runs out of
// traffic); server 0's trailing batch record is cut, all three recover,
// and the rest of epoch 1 must publish the reference aggregate.
TEST(RouterRecoveryTest, CaughtUpSequencerDebitsEpochQuota) {
  Afe afe(8);
  constexpr size_t kEpoch = 8;
  constexpr size_t kBatch = 4;
  auto w = make_workload(afe, 2 * kEpoch, kSeeds);

  server::RuntimeOptions opts;
  opts.epoch_size = kEpoch;
  opts.max_batch = kBatch;
  opts.epochs = 2;
  opts.announce_wait_ms = 2'000;
  opts.assemble_wait_ms = 2'000;
  opts.max_resyncs = 1;  // loopback cannot reestablish; fail fast

  char tmpl[] = "/tmp/prio_router_recovery_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string root = tmpl;
  auto dir = [&](size_t i) { return root + "/s" + std::to_string(i); };

  // Runs the three servers from their stores over a fresh mesh, feeding
  // submissions [from, to) first; returns every server's result.
  ClusterOptions copts = loopback(/*shards=*/1, 2'000, opts);
  copts.stores_for = [&](size_t i) {
    Stores stores;
    stores.push_back(std::make_unique<store::EpochStore>(
        dir(i), store::FsyncPolicy::kOff));
    return stores;
  };
  auto run = [&](size_t from, size_t to) {
    TestCluster cluster(&afe, Mesh::kLoopback, copts);
    submit(cluster, w, from, to);
    cluster.start();
    return cluster.finish();
  };
  auto failed_with = [](const auto& result, const std::string& what) {
    return result.error && result.error->find(what) != std::string::npos;
  };

  // Epoch 0 and the first batch of epoch 1; then server 0's announce
  // wait runs dry and every server stops.
  const auto first = run(0, kEpoch + kBatch);
  EXPECT_FALSE(first[0].last.has_value());
  EXPECT_TRUE(failed_with(first[0], "leader: batch never filled"))
      << first[0].error.value_or("no error");
  for (size_t i = 1; i < kServers; ++i) {
    EXPECT_TRUE(failed_with(first[i], "resync failed"))
        << "server " << i << ": " << first[i].error.value_or("no error");
  }

  // Cut server 0's trailing record: epoch 1's one committed batch.
  ASSERT_TRUE(store::drop_last_record(store::wal_segment_path(dir(0), 1),
                                      store::kWalBatch));

  const auto second = run(kEpoch + kBatch, 2 * kEpoch);
  expect_clean(second);
  baseline::PlaintextReference<F, Afe> ref(&afe);
  for (size_t k = kEpoch; k < 2 * kEpoch; ++k) {
    const u64 cid = w.subs[k].client_id;
    if (w.expected[k]) ref.add(cid, input_for(afe, cid));
  }
  const auto& agg = second[0].last;
  ASSERT_TRUE(agg.has_value()) << "epoch 1 never published";
  EXPECT_EQ(agg->epoch, 1u);
  EXPECT_EQ(agg->accepted, ref.accepted());
  EXPECT_EQ(agg->sigma, ref.sigma());
  std::filesystem::remove_all(root);
}

// Open once (snip/snip.h): a submission's proof values are opened under
// one r at most. Batch 0 commits honest, tampered and bad-proof
// submissions; every server then restarts from its store, and batch 1
// re-announces (i) a byte-identical replay of accepted client 0, (ii) the
// bad-proof client 5, which batch 0 opened and rejected, and (iii) client
// 0 sealed under seq 2^64-1, beside five fresh clients. All three of them
// are rejected, and no server sends a value for any: each follower's
// round-1 frame to the leader (server 1) is exactly a parse bitmap plus
// four field elements for each of the five fresh submissions (a node
// that parsed the replays would send values for them too). A node rebuilt
// from the store has the live node's floors, and seq 2^64-1 wrapped no
// floor.
TEST(RouterRecoveryTest, ReplaysAndRejectsAreNeverOpenedTwice) {
  // Records every frame its server sends.
  struct RecordingTransport final : net::Transport {
    net::Transport& inner;
    std::mutex mu;
    std::vector<std::pair<size_t, std::vector<u8>>> sent;  // (to, frame)
    explicit RecordingTransport(net::Transport& mesh) : inner(mesh) {}
    size_t num_nodes() const override { return inner.num_nodes(); }
    size_t self() const override { return inner.self(); }
    size_t lanes() const override { return inner.lanes(); }
    void send(size_t to, std::vector<u8> f) override {
      send_lane(0, to, std::move(f));
    }
    std::vector<u8> recv(size_t from) override { return inner.recv(from); }
    void send_lane(size_t lane, size_t to, std::vector<u8> f) override {
      {
        std::lock_guard<std::mutex> lock(mu);
        sent.emplace_back(to, f);
      }
      inner.send_lane(lane, to, std::move(f));
    }
    std::vector<u8> recv_lane(size_t lane, size_t from) override {
      return inner.recv_lane(lane, from);
    }
  };

  Afe afe(8);
  constexpr size_t kBatch = 8;
  constexpr size_t kFresh = 5;
  constexpr u64 kMaxSeq = ~u64{0};
  const auto first = make_workload(afe, kBatch, kSeeds);  // cids 0..7
  ASSERT_EQ(first.expected, (std::vector<u8>{1, 1, 1, 0, 1, 0, 1, 0}));
  PrioClient<F, Afe> client(&afe, kServers, kSeeds.master_seed);
  SecureRng rng(78);
  Workload second;
  second.subs = {first.subs[0], first.subs[5]};
  {
    // Client 0 again, honestly proved but sealed under the all-ones seq.
    SnipProver<F> prover(&afe.valid_circuit());
    const auto ext =
        prover.build_extended_input(afe.encode(input_for(afe, 0)), rng);
    const SubmissionSealer sealer(master_seed_bytes(kSeeds.master_seed));
    second.subs.push_back({0, seal_shared_vector<F>(
                                  sealer, std::span<const F>(ext), kServers,
                                  0, kMaxSeq, rng)});
  }
  for (u64 cid = 100; cid < 100 + kFresh; ++cid) {
    second.subs.push_back({cid, client.upload(input_for(afe, cid), cid, rng)});
  }
  ASSERT_EQ(second.subs.size(), kBatch);

  server::RuntimeOptions opts;
  opts.epoch_size = 3 * kBatch;  // never reached: each run stops dry
  opts.max_batch = kBatch;
  opts.epochs = 1;
  opts.announce_wait_ms = 2'000;
  opts.assemble_wait_ms = 2'000;
  opts.max_resyncs = 1;  // loopback cannot reestablish; fail fast

  char tmpl[] = "/tmp/prio_open_once_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string root = tmpl;
  auto dir = [&](size_t i) { return root + "/s" + std::to_string(i); };
  std::vector<RecordingTransport*> recorders(kServers);
  ClusterOptions copts = loopback(/*shards=*/1, 2'000, opts);
  copts.stores_for = [&](size_t i) {
    Stores stores;
    stores.push_back(std::make_unique<store::EpochStore>(
        dir(i), store::FsyncPolicy::kOff));
    return stores;
  };
  copts.wrap_mesh = [&](size_t i, net::Transport& mesh)
      -> std::unique_ptr<net::Transport> {
    auto t = std::make_unique<RecordingTransport>(mesh);
    recorders[i] = t.get();
    return t;
  };
  // Runs one batch from the stores; server 0 then runs out of traffic and
  // every server stops with the batch committed and the epoch open.
  auto run = [&](TestCluster& cluster, const Workload& w) {
    for (size_t i = 0; i < kServers; ++i) {
      for (const Submission& sub : w.subs) {
        cluster.router(i).submit(sub.client_id, sealed_seq(sub.blobs[i]),
                                 sub.blobs[i]);
      }
    }
    cluster.start();
    const auto& results = cluster.finish();
    ASSERT_TRUE(results[0].error);
    EXPECT_NE(results[0].error->find("leader: batch never filled"),
              std::string::npos)
        << *results[0].error;
  };
  {
    TestCluster cluster(&afe, Mesh::kLoopback, copts);
    run(cluster, first);
    EXPECT_EQ(cluster.router(0).shard(0)->node()->accepted(), 5u);
  }

  TestCluster cluster(&afe, Mesh::kLoopback, copts);
  run(cluster, second);

  // Batch 1 is led by server 1. Its round-1 frame from a follower is the
  // first frame that follower sent server 1 after its last plaintext
  // control frame (its sync hello; server 0's batch announcement).
  const size_t expect_bytes = net::SecureChannel::kOverhead + 1 +
                              net::bitmap_len(kBatch) +
                              net::field_vector_len<F>(4 * kFresh);
  for (size_t j : {size_t{0}, size_t{2}}) {
    const auto& sent = recorders[j]->sent;
    std::optional<size_t> round1;
    for (size_t k = 0; k < sent.size(); ++k) {
      if (sent[k].first != 1) continue;
      const auto& frame = sent[k].second;
      if (server::decode<server::SyncHello>(frame) ||
          server::decode<server::BatchAnnounce>(frame)) {
        round1.reset();
      } else if (!round1) {
        round1 = sent[k].second.size();
      }
    }
    ASSERT_TRUE(round1) << "server " << j;
    EXPECT_EQ(*round1, expect_bytes) << "server " << j;
  }

  // Only the five fresh clients were accepted; every floor sits just past
  // the highest seq below 2^64-1 its client was announced under.
  std::unordered_map<u64, u64> expect_floors;
  for (u64 cid = 0; cid < kBatch; ++cid) expect_floors[cid] = 1;
  for (u64 cid = 100; cid < 100 + kFresh; ++cid) expect_floors[cid] = 1;
  net::LoopbackMesh scratch_mesh(kServers);
  for (size_t i = 0; i < kServers; ++i) {
    const auto* live = cluster.router(i).shard(0)->node();
    EXPECT_EQ(live->accepted(), 5u + kFresh) << "server " << i;
    EXPECT_EQ(live->replay_floors(), expect_floors) << "server " << i;
    net::LoopbackTransport link(&scratch_mesh, i);
    ServerNode<F, Afe> rebuilt(&afe, node_config(i, kSeeds.master_seed),
                               &link);
    store::EpochStore st(dir(i), store::FsyncPolicy::kOff);
    ASSERT_TRUE((store::recover_node<F, Afe>(&rebuilt, &afe, &st).ok))
        << "server " << i;
    EXPECT_EQ(rebuilt.replay_floors(), live->replay_floors())
        << "server " << i;
    EXPECT_EQ(rebuilt.snapshot(), live->snapshot()) << "server " << i;
  }
  std::filesystem::remove_all(root);
}

// ---------------------------------------------------------------------------
// TCP mesh lanes
// ---------------------------------------------------------------------------

// Interleaved traffic on three lanes, each its own connection to the peer,
// consumed by three concurrent per-lane readers: each lane sees its own
// frames, in order, with none lost to another lane's reader.
TEST(TcpLaneMuxTest, InterleavedLanesDemuxInOrderAcrossThreads) {
  constexpr size_t kLanes = 3;
  constexpr size_t kPerLane = 16;
  Listeners peers = listen_loopback(2);
  const std::vector<u8> secret = master_seed_bytes(kSeeds.master_seed);

  std::vector<std::thread> nodes;
  for (size_t i = 0; i < 2; ++i) {
    nodes.emplace_back([&, i] {
      net::TcpMeshTransport mesh(i, peers.addrs, peers.sockets[i].get(),
                                 secret, 10'000, 10'000, kLanes);
      if (i == 0) {
        // Round-robin across lanes, so consecutive frames on the wire
        // belong to different lanes.
        for (size_t k = 0; k < kLanes * kPerLane; ++k) {
          const size_t lane = k % kLanes;
          mesh.send_lane(lane, 1,
                         {static_cast<u8>(lane),
                          static_cast<u8>(k / kLanes)});
        }
        for (size_t l = 0; l < kLanes; ++l) {
          EXPECT_EQ(mesh.recv_lane(l, 1),
                    (std::vector<u8>{static_cast<u8>(l), 0xAC}));
        }
      } else {
        std::vector<std::thread> readers;
        for (size_t l = 0; l < kLanes; ++l) {
          readers.emplace_back([&, l] {
            for (size_t k = 0; k < kPerLane; ++k) {
              auto f = mesh.recv_lane(l, 0);
              ASSERT_EQ(f.size(), 2u);
              EXPECT_EQ(f[0], static_cast<u8>(l));
              EXPECT_EQ(f[1], static_cast<u8>(k));  // per-lane order holds
            }
            mesh.send_lane(l, 0, {static_cast<u8>(l), 0xAC});
          });
        }
        for (auto& r : readers) r.join();
      }
    });
  }
  for (auto& t : nodes) t.join();
}

// reestablish() rebuilds every lane's connection: a frame left unread on
// each lane before the repair is never delivered after it, and fresh
// interleaved traffic arrives in per-lane order.
TEST(TcpLaneMuxTest, ReestablishRebuildsEveryLane) {
  constexpr size_t kLanes = 3;
  constexpr size_t kPerLane = 8;
  Listeners peers = listen_loopback(2);
  const std::vector<u8> secret = master_seed_bytes(kSeeds.master_seed);
  std::vector<std::unique_ptr<net::TcpMeshTransport>> mesh(2);
  on_all_nodes(2, [&](size_t i) {
    mesh[i] = std::make_unique<net::TcpMeshTransport>(
        i, peers.addrs, peers.sockets[i].get(), secret, 10'000, 10'000,
        kLanes);
  });

  // A round trip on every lane, then one stale frame per lane and
  // direction that nobody reads.
  for (size_t l = 0; l < kLanes; ++l) {
    const u8 lane = static_cast<u8>(l);
    mesh[0]->send_lane(l, 1, {0x01, lane});
    EXPECT_EQ(mesh[1]->recv_lane(l, 0), (std::vector<u8>{0x01, lane}));
    mesh[1]->send_lane(l, 0, {0x02, lane});
    EXPECT_EQ(mesh[0]->recv_lane(l, 1), (std::vector<u8>{0x02, lane}));
    mesh[0]->send_lane(l, 1, {0x5E, lane});
    mesh[1]->send_lane(l, 0, {0x5E, lane});
  }

  for (auto& m : mesh) m->interrupt();
  on_all_nodes(2, [&](size_t i) { mesh[i]->reestablish(); });

  // Fresh traffic, round-robin across lanes from s0 to per-lane readers on
  // s1, each of which answers on its lane once it has seen all of its own.
  std::thread sender([&] {
    for (size_t k = 0; k < kLanes * kPerLane; ++k) {
      const size_t lane = k % kLanes;
      mesh[0]->send_lane(lane, 1,
                         {0xF0, static_cast<u8>(lane),
                          static_cast<u8>(k / kLanes)});
    }
    for (size_t l = 0; l < kLanes; ++l) {
      EXPECT_EQ(mesh[0]->recv_lane(l, 1),
                (std::vector<u8>{0xF1, static_cast<u8>(l)}));
    }
  });
  std::vector<std::thread> readers;
  for (size_t l = 0; l < kLanes; ++l) {
    readers.emplace_back([&, l] {
      const u8 lane = static_cast<u8>(l);
      for (size_t k = 0; k < kPerLane; ++k) {
        EXPECT_EQ(mesh[1]->recv_lane(l, 0),
                  (std::vector<u8>{0xF0, lane, static_cast<u8>(k)}));
      }
      mesh[1]->send_lane(l, 0, {0xF1, lane});
    });
  }
  for (auto& r : readers) r.join();
  sender.join();
}

// Each lane's hello is sealed under its own key, so one dialer's hellos
// are pairwise distinct and share no keystream. A real acceptor drops a
// replayed hello for a (peer, lane) it already claimed, an empty frame and
// a garbage frame, and still completes setup with every lane on the
// connection its hello named.
TEST(TcpLaneMuxTest, HostileHellosDropAndSetupCompletes) {
  constexpr size_t kLanes = 3;
  const std::vector<u8> secret = master_seed_bytes(kSeeds.master_seed);

  // A plain listener stands in for s0. s1 has no higher-id peer to
  // accept, so its setup returns once its hellos are written; the kernel
  // completes the connects into the listen backlog, in dial order.
  Listeners fake = listen_loopback(2);
  {
    net::TcpMeshTransport dialer(1, fake.addrs, fake.sockets[1].get(), secret,
                                 10'000, 10'000, kLanes);
  }
  std::vector<std::vector<u8>> hellos;
  for (size_t l = 0; l < kLanes; ++l) {
    auto sock = fake.sockets[0]->accept_conn(10'000);
    ASSERT_TRUE(sock);
    net::FramedConn conn(std::move(*sock));
    hellos.push_back(conn.recv_frame(10'000));
  }
  // Sealed under one shared (key, nonce), two lanes' hellos would differ
  // exactly where their plaintexts (u32 dialer, u32 lane, u32 lanes)
  // differ: in the lane word, right after the clear lane-count byte.
  auto same_keystream = [](const std::vector<u8>& x, const std::vector<u8>& y,
                           u32 lane_xor) {
    for (size_t i = 0; i < 12; ++i) {
      const u8 want =
          i >= 4 && i < 8 ? static_cast<u8>(lane_xor >> (8 * (i - 4))) : 0;
      if (static_cast<u8>(x[1 + i] ^ y[1 + i]) != want) return false;
    }
    return true;
  };
  for (size_t a = 0; a < kLanes; ++a) {
    ASSERT_GT(hellos[a].size(), 13u);
    for (size_t b = a + 1; b < kLanes; ++b) {
      EXPECT_NE(hellos[a], hellos[b]) << "lanes " << a << " and " << b;
      EXPECT_FALSE(same_keystream(hellos[a], hellos[b],
                                  static_cast<u32>(a ^ b)))
          << "lanes " << a << " and " << b;
    }
  }

  net::TcpListener port(0);
  std::optional<net::TcpMeshTransport> acceptor;
  std::string setup_error;
  std::jthread accepting([&] {
    try {
      acceptor.emplace(0, fake.addrs, &port, secret, 10'000, 10'000, kLanes);
    } catch (const std::exception& e) {
      setup_error = e.what();
    }
  });
  auto dial = [&](std::span<const u8> frame) {
    auto conn = std::make_unique<net::FramedConn>(
        net::connect_tcp("127.0.0.1", port.port(), 10'000));
    conn->send_frame(frame);
    return conn;
  };
  // The acceptor closes each connection it drops.
  auto dropped = [](net::FramedConn& conn) {
    return !conn.try_recv_frame(10'000) && conn.eof();
  };
  std::vector<std::unique_ptr<net::FramedConn>> lanes;
  lanes.push_back(dial(hellos[0]));
  EXPECT_TRUE(dropped(*dial(hellos[0])));  // replay for a claimed slot
  EXPECT_TRUE(dropped(*dial({})));
  EXPECT_TRUE(dropped(*dial(std::vector<u8>(hellos[0].size(), 0xAB))));
  for (size_t l = 1; l < kLanes; ++l) lanes.push_back(dial(hellos[l]));
  accepting.join();
  ASSERT_TRUE(acceptor) << setup_error;

  for (size_t l = 0; l < kLanes; ++l) {
    const u8 lane = static_cast<u8>(l);
    lanes[l]->send_frame(std::vector<u8>{0xC0, lane});
    EXPECT_EQ(acceptor->recv_lane(l, 1), (std::vector<u8>{0xC0, lane}));
    acceptor->send_lane(l, 1, {0xC1, lane});
    EXPECT_EQ(lanes[l]->recv_frame(10'000), (std::vector<u8>{0xC1, lane}));
  }
}

// Every server must run the same lane count. An acceptor whose peer's
// hello names another count fails setup with both counts in the error,
// well inside the setup timeout, instead of running a mesh whose lanes
// never line up.
TEST(TcpLaneMuxTest, MismatchedLaneCountsFailSetupByName) {
  const std::vector<u8> secret = master_seed_bytes(kSeeds.master_seed);
  for (auto [lanes0, lanes1] : {std::pair<size_t, size_t>{1, 2}, {2, 1}}) {
    SCOPED_TRACE("s0 at " + std::to_string(lanes0) + " lanes, s1 at " +
                 std::to_string(lanes1));
    Listeners peers = listen_loopback(2);
    const auto start = std::chrono::steady_clock::now();
    std::jthread dialer([&] {
      try {
        net::TcpMeshTransport mesh(1, peers.addrs, peers.sockets[1].get(),
                                   secret, 30'000, 30'000, lanes1);
      } catch (const net::TransportError&) {
      }
    });
    std::string error;
    try {
      net::TcpMeshTransport mesh(0, peers.addrs, peers.sockets[0].get(),
                                 secret, 30'000, 30'000, lanes0);
    } catch (const net::TransportError& e) {
      error = e.what();
    }
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count(),
              5'000);
    EXPECT_NE(error.find("s1 runs " + std::to_string(lanes1) + " lanes"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("s0 runs " + std::to_string(lanes0)),
              std::string::npos)
        << error;
  }
}

// interrupt() must wake a reader blocked in recv (it would otherwise sit
// out its full timeout) and fail fast until the links are re-established.
TEST(TcpLaneMuxTest, InterruptWakesBlockedLaneReader) {
  Listeners peers = listen_loopback(2);
  const std::vector<u8> secret = master_seed_bytes(kSeeds.master_seed);
  std::optional<net::TcpMeshTransport> peer;
  std::thread other([&] {
    peer.emplace(1, peers.addrs, peers.sockets[1].get(), secret, 10'000,
                 60'000, size_t{2});
  });
  net::TcpMeshTransport mesh(0, peers.addrs, peers.sockets[0].get(), secret,
                             10'000, 60'000, 2);
  other.join();

  const auto start = std::chrono::steady_clock::now();
  std::thread reader([&] {
    EXPECT_THROW(mesh.recv_lane(1, 1), net::TransportError);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  mesh.interrupt();
  reader.join();
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(waited)
                .count(),
            30'000);  // nowhere near the 60 s recv timeout
  // Until reestablish, every lane operation fails fast.
  EXPECT_THROW(mesh.send_lane(0, 1, {1}), net::TransportError);
}

}  // namespace
}  // namespace prio
