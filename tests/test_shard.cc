// Sharded-runtime tests: the client-id -> shard routing invariants, the
// multi-lane router over a loopback mesh checked against the plaintext
// reference (and its metrics and trace against the same ground truth),
// cross-shard replay/misroute rejection, lanes under a slow peer, a
// recovered sequencer caught up one batch over the mesh, and the TCP lane
// multiplexer's per-lane ordering.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "afe/bitvec_sum.h"
#include "baseline/no_privacy.h"
#include "core/client.h"
#include "net/tcp_transport.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/router.h"
#include "store/recovery.h"
#include "store/wal.h"

namespace prio {
namespace {

using F = Fp64;
using Afe = afe::BitVectorSum<F>;
using Node = ServerNode<F, Afe>;
using Router = server::ServerRouter<F, Afe>;

constexpr size_t kServers = 3;
constexpr u64 kMasterSeed = 91;

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
// Multi-lane router over a loopback mesh
// ---------------------------------------------------------------------------

// One server process' worth of sharded runtime over the loopback mesh: the
// same router prio_server builds, minus sockets. Submissions go through
// Router::submit, the router's own intake path. `mesh_view` overrides the
// server's view of the mesh (a test interposes slow links); `stores` (one
// per lane) makes the server durable and recovers it from them.
struct ShardedServer {
  ShardedServer(const Afe& afe, net::LoopbackMesh& mesh, size_t self,
                server::RuntimeOptions opts,
                net::Transport* mesh_view = nullptr,
                std::vector<std::unique_ptr<store::EpochStore>> stores = {})
      : base(&mesh, self),
        router(&afe, mesh_view ? mesh_view : &base,
               /*client_listener=*/nullptr, opts,
               node_config(mesh.num_nodes(), self), std::move(stores)) {}

  static ServerNodeConfig node_config(size_t servers, size_t self) {
    ServerNodeConfig cfg;
    cfg.num_servers = servers;
    cfg.self = self;
    cfg.master_seed = kMasterSeed;
    return cfg;
  }

  net::LoopbackTransport base;
  Router router;
};

struct Workload {
  std::vector<Submission> subs;
  std::vector<u8> expected;  // 1 = must be accepted
};

std::vector<u8> input_for(const Afe& afe, u64 cid) {
  std::vector<u8> bits(afe.length(), 0);
  bits[cid % afe.length()] = 1;
  return bits;
}

// Honest submissions, tampered ciphertexts (cid % 4 == 3: the AEAD fails
// before any round) and bad proofs (cid % 8 == 5: genuine sealing over an
// encoding that fails Valid, so only the SNIP rounds can reject it).
Workload make_workload(const Afe& afe, size_t n) {
  PrioClient<F, Afe> encoder(&afe, kServers, kMasterSeed);
  SecureRng rng(321);
  Workload w;
  for (u64 cid = 0; cid < n; ++cid) {
    std::vector<F> enc = afe.encode(input_for(afe, cid));
    u8 expect = 1;
    if (cid % 8 == 5) {
      enc[0] += F::from_u64(2);  // a "bit" of 2 or 3
      expect = 0;
    }
    auto blobs = encoder.upload_encoding(enc, cid, rng);
    if (cid % 4 == 3) {
      blobs[cid % kServers][12] ^= 1;
      expect = 0;
    }
    w.subs.push_back({cid, std::move(blobs)});
    w.expected.push_back(expect);
  }
  return w;
}

// What the servers must publish for a workload: its honest inputs only.
baseline::PlaintextReference<F, Afe> reference(const Afe& afe,
                                               const Workload& w) {
  baseline::PlaintextReference<F, Afe> ref(&afe);
  for (size_t k = 0; k < w.subs.size(); ++k) {
    const u64 cid = w.subs[k].client_id;
    if (w.expected[k]) ref.add(cid, input_for(afe, cid));
  }
  return ref;
}

// The blob's cleartext prefix is the submission counter (core/submission.h);
// the intake path uses it as the buffer key, identical on every server.
u64 blob_seq(const std::vector<u8>& blob) {
  net::Reader r(blob);
  return r.u64_();
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
  auto w = make_workload(afe, 24);
  const auto ref = reference(afe, w);

  server::RuntimeOptions opts;
  opts.epoch_size = w.subs.size() + 1;  // +1: the replayed submission
  opts.max_batch = 8;
  opts.epochs = 1;
  opts.announce_wait_ms = 20'000;
  opts.assemble_wait_ms = 5'000;
  opts.linger_ms = 25;

  const std::string trace_path =
      ::testing::TempDir() + "/prio_shard_trace.jsonl";
  std::filesystem::remove(trace_path);
  auto trace = obs::TraceLog::open(trace_path);
  ASSERT_NE(trace, nullptr);

  net::LoopbackMesh mesh(kServers, /*recv_timeout_ms=*/20'000, kShards);
  std::vector<std::unique_ptr<obs::Registry>> regs;
  std::vector<std::unique_ptr<ShardedServer>> servers;
  for (size_t i = 0; i < kServers; ++i) {
    regs.push_back(std::make_unique<obs::Registry>());
    server::RuntimeOptions sopts = opts;
    sopts.metrics = regs.back().get();
    if (i == 0) sopts.trace = trace.get();
    servers.push_back(std::make_unique<ShardedServer>(afe, mesh, i, sopts));
  }

  // Every server gets its own sealed view of every submission, plus one
  // replay of an honest client's blob under a bumped intake seq.
  const u64 replay_cid = 1;
  for (size_t i = 0; i < kServers; ++i) {
    Router& router = servers[i]->router;
    for (const auto& sub : w.subs) {
      router.submit(sub.client_id, blob_seq(sub.blobs[i]), sub.blobs[i]);
    }
    const auto& replay = w.subs[replay_cid].blobs[i];
    router.submit(replay_cid, blob_seq(replay) + 1, replay);
  }

  std::optional<Node::EpochAggregate> agg;
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kServers; ++i) {
    threads.emplace_back([&, i] {
      auto a = servers[i]->router.run_epochs();
      if (i == 0) agg = std::move(a);
    });
  }
  for (auto& t : threads) t.join();

  ASSERT_TRUE(agg.has_value());
  EXPECT_EQ(agg->accepted, ref.accepted());  // replay not double counted
  EXPECT_EQ(agg->sigma, ref.sigma());
  EXPECT_EQ(agg->result, ref.result());
  // Every server processed all 25 announced submissions, split over lanes.
  for (size_t i = 0; i < kServers; ++i) {
    u64 processed = 0;
    for (size_t l = 0; l < kShards; ++l) {
      processed += servers[i]->router.shard(l)->node()->processed();
    }
    EXPECT_EQ(processed, w.subs.size() + 1) << "server " << i;
  }
  // Each server's totals match the ground truth: 25 acked at intake, the
  // honest ones verify-accepted, the tampered ones and the replay rejected.
  const u64 intake = w.subs.size() + 1;
  for (size_t i = 0; i < kServers; ++i) {
    const obs::Registry& reg = *regs[i];
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
  auto w = make_workload(afe, 4);

  // A client id that hashes to shard 0, to be injected into shard 1.
  u64 misrouted_cid = 1000;
  while (server::shard_of(misrouted_cid, kShards) != 0) ++misrouted_cid;
  PrioClient<F, Afe> encoder(&afe, kServers, kMasterSeed);
  SecureRng rng(77);
  auto mis_blobs =
      encoder.upload(std::vector<u8>(afe.length(), 0), misrouted_cid, rng);

  server::RuntimeOptions opts;
  opts.epoch_size = w.subs.size() + 1;
  opts.max_batch = 8;
  opts.epochs = 1;
  opts.announce_wait_ms = 5'000;
  opts.assemble_wait_ms = 500;
  opts.linger_ms = 25;
  opts.max_resyncs = 1;  // loopback cannot reestablish; fail fast

  net::LoopbackMesh mesh(kServers, /*recv_timeout_ms=*/1'000, kShards);
  std::vector<std::unique_ptr<obs::Registry>> regs;
  std::vector<std::unique_ptr<ShardedServer>> servers;
  for (size_t i = 0; i < kServers; ++i) {
    regs.push_back(std::make_unique<obs::Registry>());
    server::RuntimeOptions sopts = opts;
    sopts.metrics = regs.back().get();
    servers.push_back(std::make_unique<ShardedServer>(afe, mesh, i, sopts));
  }
  for (size_t i = 0; i < kServers; ++i) {
    Router& router = servers[i]->router;
    for (const auto& sub : w.subs) {
      router.submit(sub.client_id, blob_seq(sub.blobs[i]), sub.blobs[i]);
    }
    // Injected past the router's hash, into the wrong shard, everywhere.
    router.shard(1)->submit(misrouted_cid, blob_seq(mis_blobs[i]),
                            mis_blobs[i]);
  }

  std::vector<int> failed(kServers, 0);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kServers; ++i) {
    threads.emplace_back([&, i] {
      try {
        servers[i]->router.run_epochs();
      } catch (const std::exception&) {
        failed[i] = 1;
      }
    });
  }
  for (auto& t : threads) t.join();

  for (size_t i = 0; i < kServers; ++i) {
    EXPECT_EQ(failed[i], 1) << "server " << i << " accepted a misroute";
  }
  // The misrouted blob never reached any node's accumulator.
  for (size_t i = 0; i < kServers; ++i) {
    EXPECT_EQ(servers[i]->router.shard(1)->node()->accepted(), 0u)
        << "server " << i;
  }
  // The reject is visible in the followers' metrics: the announcement
  // names the bad id, so every receiving server counts one misroute on
  // the injected lane. The announcer (server 0) never receives its own
  // announcement and counts nothing.
  EXPECT_EQ(regs[0]->total("prio_reject_misroute_total"), 0u);
  for (size_t i = 1; i < kServers; ++i) {
    EXPECT_GE(regs[i]->total("prio_reject_misroute_total"), 1u)
        << "server " << i;
  }
  for (size_t i = 0; i < kServers; ++i) {
    EXPECT_EQ(regs[i]->total("prio_reject_spec_mismatch_total"), 0u);
    EXPECT_GE(regs[i]->total("prio_batch_aborts_total"), 0u);
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
  opts.linger_ms = 25;
  opts.max_resyncs = 1;

  net::LoopbackMesh mesh(kServers, /*recv_timeout_ms=*/2'000, kShards);
  std::vector<std::unique_ptr<obs::Registry>> regs;
  std::vector<std::unique_ptr<ShardedServer>> servers;
  for (size_t i = 0; i < kServers; ++i) {
    regs.push_back(std::make_unique<obs::Registry>());
    server::RuntimeOptions sopts = opts;
    sopts.metrics = regs.back().get();
    // Server 1 is misconfigured with a different AFE spec.
    sopts.afe_spec = i == 1 ? "bitvec_sum:len=7" : "bitvec_sum:len=6";
    servers.push_back(std::make_unique<ShardedServer>(afe, mesh, i, sopts));
  }

  std::vector<int> failed(kServers, 0);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kServers; ++i) {
    threads.emplace_back([&, i] {
      try {
        servers[i]->router.run_epochs();
      } catch (const std::exception&) {
        failed[i] = 1;
      }
    });
  }
  for (auto& t : threads) t.join();

  for (size_t i = 0; i < kServers; ++i) {
    EXPECT_EQ(failed[i], 1) << "server " << i << " survived a spec mismatch";
  }
  // Servers 0 and 2 each saw server 1's divergent hello; server 1 saw two.
  EXPECT_GE(regs[0]->total("prio_reject_spec_mismatch_total"), 1u);
  EXPECT_GE(regs[1]->total("prio_reject_spec_mismatch_total"), 1u);
  EXPECT_GE(regs[2]->total("prio_reject_spec_mismatch_total"), 1u);
}

// Delays every outbound frame of one peer, so on the other servers one
// lane thread spends most of the epoch blocked in mesh recvs while its
// sibling lane keeps verifying. The epoch completing -- within the test
// timeout, with the right aggregate -- is the regression gate: a lane
// parked in a recv must never stall its sibling.
TEST(ShardedRouterTest, SlowPeerTwoLanesComplete) {
  // Wraps one node's mesh view, sleeping before every send.
  struct SlowTransport final : net::Transport {
    net::LoopbackTransport inner;
    std::chrono::milliseconds delay;
    SlowTransport(net::LoopbackMesh* mesh, size_t self, int delay_ms)
        : inner(mesh, self), delay(delay_ms) {}
    size_t num_nodes() const override { return inner.num_nodes(); }
    size_t self() const override { return inner.self(); }
    size_t lanes() const override { return inner.lanes(); }
    void send(size_t to, std::vector<u8> f, u64 logical) override {
      std::this_thread::sleep_for(delay);
      inner.send(to, std::move(f), logical);
    }
    std::vector<u8> recv(size_t from) override { return inner.recv(from); }
    void send_lane(size_t lane, size_t to, std::vector<u8> f,
                   u64 logical) override {
      std::this_thread::sleep_for(delay);
      inner.send_lane(lane, to, std::move(f), logical);
    }
    std::vector<u8> recv_lane(size_t lane, size_t from) override {
      return inner.recv_lane(lane, from);
    }
    void end_round(u64 submissions) override { inner.end_round(submissions); }
  };

  Afe afe(8);
  constexpr size_t kShards = 2;
  auto w = make_workload(afe, 24);
  size_t expected_accepted = 0;
  for (u8 e : w.expected) expected_accepted += e;

  server::RuntimeOptions opts;
  opts.epoch_size = w.subs.size();
  opts.max_batch = 8;
  opts.epochs = 1;
  opts.announce_wait_ms = 20'000;
  opts.assemble_wait_ms = 5'000;
  opts.linger_ms = 25;

  net::LoopbackMesh mesh(kServers, /*recv_timeout_ms=*/20'000, kShards);
  SlowTransport slow(&mesh, kServers - 1, /*delay_ms=*/3);
  std::vector<std::unique_ptr<ShardedServer>> servers;
  for (size_t i = 0; i < kServers; ++i) {
    servers.push_back(std::make_unique<ShardedServer>(
        afe, mesh, i, opts, i == kServers - 1 ? &slow : nullptr));
  }
  for (size_t i = 0; i < kServers; ++i) {
    for (const auto& sub : w.subs) {
      servers[i]->router.submit(sub.client_id, blob_seq(sub.blobs[i]),
                                sub.blobs[i]);
    }
  }

  std::optional<Node::EpochAggregate> agg;
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kServers; ++i) {
    threads.emplace_back([&, i] {
      auto a = servers[i]->router.run_epochs();
      if (i == 0) agg = std::move(a);
    });
  }
  for (auto& t : threads) t.join();

  ASSERT_TRUE(agg.has_value());
  EXPECT_EQ(agg->accepted, expected_accepted);
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
  auto w = make_workload(afe, 2 * kEpoch);

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
  // submissions [from, to) first; returns server 0's last aggregate.
  auto run = [&](size_t from, size_t to) {
    net::LoopbackMesh mesh(kServers, /*recv_timeout_ms=*/2'000);
    std::vector<std::unique_ptr<ShardedServer>> servers;
    for (size_t i = 0; i < kServers; ++i) {
      std::vector<std::unique_ptr<store::EpochStore>> stores;
      stores.push_back(std::make_unique<store::EpochStore>(
          dir(i), store::FsyncPolicy::kOff));
      servers.push_back(std::make_unique<ShardedServer>(
          afe, mesh, i, opts, nullptr, std::move(stores)));
      for (size_t k = from; k < to; ++k) {
        const auto& blob = w.subs[k].blobs[i];
        servers[i]->router.submit(w.subs[k].client_id, blob_seq(blob), blob);
      }
    }
    std::optional<Node::EpochAggregate> agg;
    std::vector<std::thread> threads;
    for (size_t i = 0; i < kServers; ++i) {
      threads.emplace_back([&, i] {
        try {
          auto a = servers[i]->router.run_epochs();
          if (i == 0) agg = std::move(a);
        } catch (const std::exception&) {
        }
      });
    }
    for (auto& t : threads) t.join();
    return agg;
  };

  // Epoch 0 and the first batch of epoch 1; then server 0's announce
  // wait runs dry and every server stops.
  EXPECT_FALSE(run(0, kEpoch + kBatch).has_value());

  // Cut server 0's trailing record: epoch 1's one committed batch.
  ASSERT_TRUE(store::drop_last_record(store::wal_segment_path(dir(0), 1),
                                      store::kWalBatch));

  const auto agg = run(kEpoch + kBatch, 2 * kEpoch);
  baseline::PlaintextReference<F, Afe> ref(&afe);
  for (size_t k = kEpoch; k < 2 * kEpoch; ++k) {
    const u64 cid = w.subs[k].client_id;
    if (w.expected[k]) ref.add(cid, input_for(afe, cid));
  }
  ASSERT_TRUE(agg.has_value()) << "epoch 1 never published";
  EXPECT_EQ(agg->epoch, 1u);
  EXPECT_EQ(agg->accepted, ref.accepted());
  EXPECT_EQ(agg->sigma, ref.sigma());
  std::filesystem::remove_all(root);
}

// ---------------------------------------------------------------------------
// TCP lane multiplexing
// ---------------------------------------------------------------------------

// Interleaved traffic on three lanes over one framed connection, consumed
// by three concurrent per-lane readers: each lane sees its own frames, in
// order, with none lost to another lane's reader.
TEST(TcpLaneMuxTest, InterleavedLanesDemuxInOrderAcrossThreads) {
  constexpr size_t kLanes = 3;
  constexpr size_t kPerLane = 16;
  std::vector<std::unique_ptr<net::TcpListener>> listeners;
  std::vector<net::TcpMeshTransport::PeerAddr> addrs;
  for (size_t i = 0; i < 2; ++i) {
    listeners.push_back(std::make_unique<net::TcpListener>(0));
    addrs.push_back({"127.0.0.1", listeners.back()->port()});
  }
  const std::vector<u8> secret = master_seed_bytes(kMasterSeed);

  std::vector<std::thread> nodes;
  for (size_t i = 0; i < 2; ++i) {
    nodes.emplace_back([&, i] {
      net::TcpMeshTransport mesh(i, addrs, listeners[i].get(), secret,
                                 10'000, 10'000, kLanes);
      if (i == 0) {
        // Round-robin across lanes, so consecutive frames on the wire
        // belong to different lanes.
        for (size_t k = 0; k < kLanes * kPerLane; ++k) {
          const size_t lane = k % kLanes;
          mesh.send_lane(lane, 1,
                         {static_cast<u8>(lane),
                          static_cast<u8>(k / kLanes)},
                         1);
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
            mesh.send_lane(l, 0, {static_cast<u8>(l), 0xAC}, 1);
          });
        }
        for (auto& r : readers) r.join();
      }
    });
  }
  for (auto& t : nodes) t.join();
}

// interrupt() must wake a reader blocked in recv (it would otherwise sit
// out its full timeout) and fail fast until the links are re-established.
TEST(TcpLaneMuxTest, InterruptWakesBlockedLaneReader) {
  std::vector<std::unique_ptr<net::TcpListener>> listeners;
  std::vector<net::TcpMeshTransport::PeerAddr> addrs;
  for (size_t i = 0; i < 2; ++i) {
    listeners.push_back(std::make_unique<net::TcpListener>(0));
    addrs.push_back({"127.0.0.1", listeners.back()->port()});
  }
  const std::vector<u8> secret = master_seed_bytes(kMasterSeed);
  std::optional<net::TcpMeshTransport> peer;
  std::thread other([&] {
    peer.emplace(1, addrs, listeners[1].get(), secret, 10'000, 60'000,
                 size_t{2});
  });
  net::TcpMeshTransport mesh(0, addrs, listeners[0].get(), secret, 10'000,
                             60'000, 2);
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
  EXPECT_THROW(mesh.send_lane(0, 1, {1}, 1), net::TransportError);
}

}  // namespace
}  // namespace prio
