// Transport-layer and distributed-runtime tests: frame decoding, real TCP
// sockets on localhost, and ServerNode meshes (loopback and TCP) checked
// against the plaintext reference for verdicts and aggregates.

#include <gtest/gtest.h>

#include <chrono>
#include <latch>
#include <thread>

#include "afe/bitvec_sum.h"
#include "cluster.h"
#include "net/tcp_transport.h"
#include "net/transport.h"
#include "server/node.h"

namespace prio {
namespace {

using namespace test;

using F = Fp64;
using Afe = afe::BitVectorSum<F>;

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

TEST(FrameDecoderTest, RoundTripMultipleFramesOneFeed) {
  std::vector<std::vector<u8>> frames = {{1, 2, 3}, {}, {9, 8, 7, 6}};
  std::vector<u8> stream;
  for (const auto& f : frames) {
    auto enc = net::encode_frame(f);
    stream.insert(stream.end(), enc.begin(), enc.end());
  }
  net::FrameDecoder dec;
  dec.feed(stream);
  for (const auto& f : frames) {
    auto got = dec.next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, f);
  }
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_FALSE(dec.corrupt());
}

TEST(FrameDecoderTest, PartialReadsByteByByte) {
  std::vector<u8> payload(300);
  for (size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<u8>(i);
  auto enc = net::encode_frame(payload);
  net::FrameDecoder dec;
  size_t frames_seen = 0;
  for (u8 b : enc) {
    dec.feed(std::span<const u8>(&b, 1));
    while (auto f = dec.next()) {
      EXPECT_EQ(*f, payload);
      ++frames_seen;
    }
  }
  EXPECT_EQ(frames_seen, 1u);
}

TEST(FrameDecoderTest, SplitAcrossArbitraryChunks) {
  std::vector<u8> stream;
  for (int i = 0; i < 10; ++i) {
    auto enc = net::encode_frame(std::vector<u8>(17 * i + 1, static_cast<u8>(i)));
    stream.insert(stream.end(), enc.begin(), enc.end());
  }
  net::FrameDecoder dec;
  size_t got = 0;
  // Feed in uneven chunks that straddle every frame boundary.
  for (size_t off = 0; off < stream.size(); off += 13) {
    const size_t n = std::min<size_t>(13, stream.size() - off);
    dec.feed(std::span<const u8>(stream.data() + off, n));
    while (auto f = dec.next()) {
      EXPECT_EQ(f->size(), 17 * got + 1);
      ++got;
    }
  }
  EXPECT_EQ(got, 10u);
}

TEST(FrameDecoderTest, OversizedLengthPrefixMarksStreamCorrupt) {
  net::Writer w;
  w.u32_(0xFFFFFFFF);  // claims a 4 GiB frame
  w.raw(std::vector<u8>(64, 0));
  net::FrameDecoder dec;
  dec.feed(w.data());
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_TRUE(dec.corrupt());
  // No resynchronization: further bytes make no progress.
  dec.feed(net::encode_frame(std::vector<u8>{1, 2, 3}));
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_TRUE(dec.corrupt());
}

TEST(FrameDecoderTest, CustomLimitEnforced) {
  net::FrameDecoder dec(/*max_frame=*/16);
  dec.feed(net::encode_frame(std::vector<u8>(17, 0)));
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_TRUE(dec.corrupt());
}

// ---------------------------------------------------------------------------
// Real sockets on localhost
// ---------------------------------------------------------------------------

TEST(TcpTest, FramedRoundTripAndLargeFrames) {
  net::TcpListener listener(0);  // ephemeral port
  ASSERT_GT(listener.port(), 0);

  std::vector<u8> big(1 << 20);
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<u8>(i * 31);

  std::thread peer([&] {
    net::FramedConn conn(net::connect_tcp("127.0.0.1", listener.port(), 5000));
    conn.send_frame(std::vector<u8>{1, 2, 3});
    conn.send_frame(big);
    auto echo = conn.recv_frame(5000);
    conn.send_frame(echo);
  });

  auto sock = listener.accept_conn(5000);
  ASSERT_TRUE(sock.has_value());
  net::FramedConn conn(std::move(*sock));
  EXPECT_EQ(conn.recv_frame(5000), (std::vector<u8>{1, 2, 3}));
  // A 1 MiB frame arrives across many partial reads.
  EXPECT_EQ(conn.recv_frame(5000), big);
  conn.send_frame(std::vector<u8>{42});
  EXPECT_EQ(conn.recv_frame(5000), std::vector<u8>{42});
  peer.join();
}

TEST(TcpTest, EofAndTimeoutAreDistinguished) {
  net::TcpListener listener(0);
  std::thread peer([&] {
    net::Socket s = net::connect_tcp("127.0.0.1", listener.port(), 5000);
    // Connect, send nothing, close.
  });
  auto sock = listener.accept_conn(5000);
  ASSERT_TRUE(sock.has_value());
  net::FramedConn conn(std::move(*sock));
  peer.join();
  auto got = conn.try_recv_frame(2000);
  EXPECT_FALSE(got.has_value());
  EXPECT_TRUE(conn.eof());
  EXPECT_THROW(conn.recv_frame(100), net::TransportError);
}

TEST(TcpTest, ConnectToClosedPortTimesOut) {
  // Grab an ephemeral port, then close the listener so nothing is there.
  u16 dead_port;
  {
    net::TcpListener listener(0);
    dead_port = listener.port();
  }
  EXPECT_THROW(net::connect_tcp("127.0.0.1", dead_port, 300),
               net::TransportError);
}

// A dialer that starts before its peer listens keeps retrying (with a
// backoff) and connects once the listener appears -- how servers that
// start in any order, or a restarted peer, form the mesh.
TEST(TcpTest, DialerStartedBeforeListenerConnects) {
  u16 port;
  {
    net::TcpListener probe(0);
    port = probe.port();
  }
  std::thread dialer([&] {
    net::FramedConn conn(net::connect_tcp("127.0.0.1", port, 20'000));
    conn.send_frame(std::vector<u8>{7});
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  net::TcpListener listener(port);
  auto sock = listener.accept_conn(20'000);
  ASSERT_TRUE(sock.has_value());
  net::FramedConn conn(std::move(*sock));
  EXPECT_EQ(conn.recv_frame(20'000), std::vector<u8>{7});
  dialer.join();
}

// ---------------------------------------------------------------------------
// Loopback transport semantics
// ---------------------------------------------------------------------------

TEST(LoopbackTest, PerLinkOrderingAndTimeout) {
  net::LoopbackMesh mesh(3, /*recv_timeout_ms=*/100);
  net::LoopbackTransport t0(&mesh, 0), t1(&mesh, 1);
  t0.send(1, {1});
  t0.send(1, {2});
  EXPECT_EQ(t1.recv(0), std::vector<u8>{1});
  EXPECT_EQ(t1.recv(0), std::vector<u8>{2});
  EXPECT_THROW(t1.recv(2), net::TransportError);  // nothing from node 2
  EXPECT_EQ(mesh.sim().total_frames(), 2u);
}

// A client-chosen all-ones counter must never be accepted, and advancing
// past it must not wrap the floor to 0 (which would make every earlier
// counter fresh again). The floor only ever rises.
TEST(ReplayGuardTest, MaxCounterNeverFresh) {
  ReplayGuard g;
  EXPECT_FALSE(g.fresh(1, ~u64{0}));
  EXPECT_TRUE(g.fresh(1, 5));
  g.advance(1, 5);
  EXPECT_FALSE(g.fresh(1, 5));
  EXPECT_TRUE(g.fresh(1, 6));
  g.advance(1, 3);
  EXPECT_FALSE(g.fresh(1, 5));
  g.advance(1, ~u64{0});
  EXPECT_FALSE(g.fresh(1, 5));
  EXPECT_TRUE(g.fresh(1, 6));
  EXPECT_FALSE(g.fresh(1, ~u64{0}));
}

// ---------------------------------------------------------------------------
// Distributed protocol nodes
// ---------------------------------------------------------------------------

constexpr Seeds kSeeds{.master_seed = 77, .rng_seed = 123};

using Node = ServerNode<F, Afe>;

TEST(ServerNodeTest, MatchesPlaintextReferenceVerdictsAndAggregate) {
  Afe afe(10);
  auto w = make_workload(afe, 24, kSeeds);
  const auto ref = reference(afe, w);

  net::LoopbackMesh mesh(kServers);
  std::vector<net::LoopbackTransport> links;
  auto nodes = make_nodes(afe, mesh, links, kSeeds.master_seed);

  std::vector<std::vector<u8>> node_verdicts(kServers);
  std::optional<Node::EpochAggregate> agg;
  on_all_nodes(kServers, [&](size_t i) {
    auto view = node_view(std::span<const Submission>(w.subs), i);
    for (size_t off = 0; off < view.size(); off += 8) {
      auto v = nodes[i]->process_batch(
          std::span<const SubmissionShare>(view.data() + off, 8));
      node_verdicts[i].insert(node_verdicts[i].end(), v.begin(), v.end());
    }
    auto a = nodes[i]->publish_epoch();
    if (i == 0) agg = std::move(a);
  });

  for (size_t i = 0; i < kServers; ++i) {
    EXPECT_EQ(node_verdicts[i], w.expected) << "node " << i;
  }
  ASSERT_TRUE(agg.has_value());
  EXPECT_EQ(agg->accepted, ref.accepted());
  EXPECT_EQ(agg->sigma, ref.sigma());
  EXPECT_EQ(agg->result, ref.result());

  // Traffic is coalesced: per batch the mesh carries s-1 point-to-point
  // frames and s-1 broadcast frames -- not 2 frames per submission -- and
  // publish adds s-1 accumulators plus an (s-1)-peer commit broadcast.
  EXPECT_EQ(mesh.sim().total_frames(),
            3 * 2 * (kServers - 1) + 2 * (kServers - 1));  // 16 at s = 3
}

TEST(ServerNodeTest, ReplayedSubmissionsRejectedAcrossBatches) {
  Afe afe(6);
  auto w = make_workload(afe, 8, kSeeds);
  net::LoopbackMesh mesh(kServers);
  std::vector<net::LoopbackTransport> links;
  auto nodes = make_nodes(afe, mesh, links, kSeeds.master_seed);

  std::vector<std::vector<u8>> first(kServers), replay(kServers);
  on_all_nodes(kServers, [&](size_t i) {
    auto view = node_view(std::span<const Submission>(w.subs), i);
    first[i] = nodes[i]->process_batch(std::span<const SubmissionShare>(view));
    replay[i] = nodes[i]->process_batch(std::span<const SubmissionShare>(view));
  });
  for (size_t i = 0; i < kServers; ++i) {
    EXPECT_EQ(first[i], w.expected);
    EXPECT_EQ(replay[i], std::vector<u8>(w.subs.size(), 0)) << "node " << i;
  }
}

TEST(ServerNodeTest, RestartWithinEpochViaSnapshot) {
  Afe afe(8);
  auto batch1 = make_workload(afe, 8, kSeeds, /*first_cid=*/0);
  auto batch2 = make_workload(afe, 8, kSeeds, /*first_cid=*/100);

  // Reference: an uninterrupted mesh over both batches.
  std::vector<u64> expected_counts;
  {
    net::LoopbackMesh mesh(kServers);
    std::vector<net::LoopbackTransport> links;
    auto nodes = make_nodes(afe, mesh, links, kSeeds.master_seed);
    std::optional<Node::EpochAggregate> agg;
    on_all_nodes(kServers, [&](size_t i) {
      for (auto* w : {&batch1, &batch2}) {
        auto view = node_view(std::span<const Submission>(w->subs), i);
        nodes[i]->process_batch(std::span<const SubmissionShare>(view));
      }
      auto a = nodes[i]->publish_epoch();
      if (i == 0) agg = std::move(a);
    });
    ASSERT_TRUE(agg.has_value());
    expected_counts = agg->result;
  }

  // Same run, but server 2 dies after batch 1 and a new process restores
  // its snapshot before batch 2.
  net::LoopbackMesh mesh(kServers);
  std::vector<net::LoopbackTransport> links;
  auto nodes = make_nodes(afe, mesh, links, kSeeds.master_seed);
  on_all_nodes(kServers, [&](size_t i) {
    auto view = node_view(std::span<const Submission>(batch1.subs), i);
    nodes[i]->process_batch(std::span<const SubmissionShare>(view));
  });

  std::vector<u8> snap = nodes[2]->snapshot();
  nodes[2].reset();  // the server process dies
  nodes[2] = std::make_unique<Node>(&afe, node_config(2, kSeeds.master_seed),
                                    &links[2]);
  ASSERT_TRUE(nodes[2]->restore_state(snap));

  std::optional<Node::EpochAggregate> agg;
  on_all_nodes(kServers, [&](size_t i) {
    auto view = node_view(std::span<const Submission>(batch2.subs), i);
    nodes[i]->process_batch(std::span<const SubmissionShare>(view));
    auto a = nodes[i]->publish_epoch();
    if (i == 0) agg = std::move(a);
  });
  ASSERT_TRUE(agg.has_value());
  EXPECT_EQ(agg->result, expected_counts);
  EXPECT_EQ(agg->accepted, 12u);  // 6 valid per batch of 8
}

TEST(ServerNodeTest, MissingBlobVotesRejectWithoutDesync) {
  Afe afe(6);
  auto w = make_workload(afe, 6, kSeeds);
  // Server 1 never received client 2's blob (delivery failure).
  net::LoopbackMesh mesh(kServers);
  std::vector<net::LoopbackTransport> links;
  auto nodes = make_nodes(afe, mesh, links, kSeeds.master_seed);
  std::vector<std::vector<u8>> verdicts(kServers);
  on_all_nodes(kServers, [&](size_t i) {
    auto view = node_view(std::span<const Submission>(w.subs), i);
    if (i == 1) view[2].blob.clear();
    verdicts[i] = nodes[i]->process_batch(std::span<const SubmissionShare>(view));
  });
  auto expected = w.expected;
  expected[2] = 0;
  for (size_t i = 0; i < kServers; ++i) EXPECT_EQ(verdicts[i], expected);
}

// Abort and retry, the sequence a shard lane runs when a peer dies
// mid-rounds: the TransportError must roll every node back to its exact
// pre-batch state (bit-identical snapshot), and -- after the generation
// bump every repair performs -- the SAME batch must verify under fresh
// channel keys (the bump is what makes the retried batch's AEAD nonces
// fresh; a retry on the old generation would reuse (key, nonce) pairs).
TEST(ServerNodeTest, AbortRollsBackToPreBatchStateAndRetries) {
  // Wraps the leader's mesh view; the Nth send of an armed attempt throws.
  struct FlakyTransport final : net::Transport {
    net::LoopbackTransport inner;
    int fail_countdown = -1;  // < 0: healthy
    FlakyTransport(net::LoopbackMesh* mesh, size_t self)
        : inner(mesh, self) {}
    size_t num_nodes() const override { return inner.num_nodes(); }
    size_t self() const override { return inner.self(); }
    void send(size_t to, std::vector<u8> f) override {
      if (fail_countdown >= 0 && fail_countdown-- == 0) {
        throw net::TransportError("injected send failure");
      }
      inner.send(to, std::move(f));
    }
    std::vector<u8> recv(size_t from) override { return inner.recv(from); }
  };

  Afe afe(8);
  auto w = make_workload(afe, 8, kSeeds);

  // Short recv timeout: the followers' blocked recvs must fail fast once
  // the leader's broadcast never arrives.
  net::LoopbackMesh mesh(kServers, /*recv_timeout_ms=*/1'500);
  FlakyTransport leader_link(&mesh, 0);
  std::vector<std::unique_ptr<net::LoopbackTransport>> links;
  std::vector<std::unique_ptr<Node>> nodes;
  for (size_t i = 0; i < kServers; ++i) {
    links.push_back(std::make_unique<net::LoopbackTransport>(&mesh, i));
    nodes.push_back(std::make_unique<Node>(
        &afe, node_config(i, kSeeds.master_seed),
        i == 0 ? static_cast<net::Transport*>(&leader_link)
                          : links[i].get()));
  }
  std::vector<std::vector<u8>> pre_snap(kServers);
  for (size_t i = 0; i < kServers; ++i) pre_snap[i] = nodes[i]->snapshot();

  // Attempt 1: the leader (batch 0's leader is server 0) consumes every
  // round-1 frame, then its round-2 broadcast throws before anything is
  // shipped -- so the abort leaves NO stale frames in any queue, exactly
  // the state a TCP reestablish's queue flush guarantees the runtime.
  leader_link.fail_countdown = 0;
  std::vector<int> aborted(kServers, 0);
  on_all_nodes(kServers, [&](size_t i) {
    auto view = node_view(std::span<const Submission>(w.subs), i);
    try {
      nodes[i]->process_batch(std::span<const SubmissionShare>(view));
    } catch (const net::TransportError&) {
      aborted[i] = 1;
    }
  });
  for (size_t i = 0; i < kServers; ++i) {
    EXPECT_EQ(aborted[i], 1) << "server " << i << " did not abort";
    // Bit-identical pre-batch state: counters, context, replay floors,
    // accumulator -- everything the snapshot serializes.
    EXPECT_EQ(nodes[i]->snapshot(), pre_snap[i]) << "server " << i;
    EXPECT_EQ(nodes[i]->processed(), 0u);
  }

  // Attempt 2: generation bump (what lane_sync negotiates after a repair)
  // and the SAME batch retries successfully.
  for (auto& n : nodes) n->set_generation(n->generation() + 1);
  std::vector<std::vector<u8>> verdicts(kServers);
  on_all_nodes(kServers, [&](size_t i) {
    auto view = node_view(std::span<const Submission>(w.subs), i);
    verdicts[i] =
        nodes[i]->process_batch(std::span<const SubmissionShare>(view));
  });
  size_t expected_accepted = 0;
  for (u8 e : w.expected) expected_accepted += e;
  for (size_t i = 0; i < kServers; ++i) {
    EXPECT_EQ(verdicts[i], w.expected) << "server " << i;
    EXPECT_EQ(nodes[i]->accepted(), expected_accepted);
    EXPECT_EQ(nodes[i]->processed(), w.subs.size());
  }
}

TEST(ServerNodeTest, RefreshScheduleSurvivesBatchesAndRestart) {
  Afe afe(4);
  // refresh_every = 5 with batches of 4 forces refreshes at batch
  // boundaries 2 and 3 -- the schedule every node must agree on. Server 2
  // restarts after the second batch, when its context has refreshed twice,
  // so restore_state must actually replay the refresh schedule (refreshes
  // > 1) to hold the same secret r as its peers for batch 3.
  auto w1 = make_workload(afe, 4, kSeeds, 0);
  auto w2 = make_workload(afe, 4, kSeeds, 50);
  auto w3 = make_workload(afe, 4, kSeeds, 90);
  net::LoopbackMesh mesh(kServers);
  std::vector<net::LoopbackTransport> links;
  auto nodes = make_nodes(afe, mesh, links, kSeeds.master_seed,
                          /*refresh_every=*/5);
  on_all_nodes(kServers, [&](size_t i) {
    for (auto* w : {&w1, &w2}) {
      auto view = node_view(std::span<const Submission>(w->subs), i);
      auto v = nodes[i]->process_batch(std::span<const SubmissionShare>(view));
      EXPECT_EQ(v, w->expected);
    }
  });

  std::vector<u8> snap = nodes[2]->snapshot();
  nodes[2].reset();
  ServerNodeConfig cfg = node_config(2, kSeeds.master_seed);
  cfg.refresh_every = 5;
  nodes[2] = std::make_unique<Node>(&afe, cfg, &links[2]);
  ASSERT_TRUE(nodes[2]->restore_state(snap));

  std::optional<Node::EpochAggregate> agg;
  on_all_nodes(kServers, [&](size_t i) {
    auto view = node_view(std::span<const Submission>(w3.subs), i);
    auto v = nodes[i]->process_batch(std::span<const SubmissionShare>(view));
    EXPECT_EQ(v, w3.expected);
    auto a = nodes[i]->publish_epoch();
    if (i == 0) agg = std::move(a);
  });
  ASSERT_TRUE(agg.has_value());
  EXPECT_EQ(agg->accepted, 9u);  // 3 valid per batch of 4
}

// A batch is verified under one secret point r, so a node handed more
// submissions than its refresh window refuses them before any state moves
// or any frame is sent -- and refuses a committed record of that size too.
// Server 1 is a non-leader of batch 0: without the check it would send its
// round-1 frame at once.
TEST(ServerNodeTest, BatchBeyondRefreshWindowThrowsBeforeAnyFrame) {
  Afe afe(4);
  auto w = make_workload(afe, 5, kSeeds);
  net::LoopbackMesh mesh(kServers);
  net::LoopbackTransport link(&mesh, 1);
  ServerNodeConfig cfg = node_config(1, kSeeds.master_seed);
  cfg.refresh_every = 4;
  Node node(&afe, cfg, &link);
  const std::vector<u8> before = node.snapshot();
  const auto view = node_view(std::span<const Submission>(w.subs), 1);
  const std::span<const SubmissionShare> batch(view);
  EXPECT_THROW(node.process_batch(batch), std::invalid_argument);
  EXPECT_EQ(mesh.sim().total_frames(), 0u);
  EXPECT_EQ(node.snapshot(), before);
  EXPECT_FALSE(node.apply_batch_record(batch, w.expected));
  EXPECT_EQ(node.snapshot(), before);
}

// The full socket path: three server threads over a real TCP mesh on
// ephemeral localhost ports, multi-client batches, epoch publication.
TEST(ServerNodeTest, TcpMeshEndToEnd) {
  Afe afe(8);
  auto w = make_workload(afe, 16, kSeeds);
  const auto ref = reference(afe, w);

  Listeners peers = listen_loopback(kServers);
  const std::vector<u8> mesh_secret = master_seed_bytes(kSeeds.master_seed);
  std::vector<std::vector<u8>> verdicts(kServers);
  std::optional<Node::EpochAggregate> agg;
  on_all_nodes(kServers, [&](size_t i) {
    net::TcpMeshTransport mesh(i, peers.addrs, peers.sockets[i].get(),
                               mesh_secret, 10'000, 10'000);
    Node node(&afe, node_config(i, kSeeds.master_seed), &mesh);
    auto view = node_view(std::span<const Submission>(w.subs), i);
    verdicts[i] = node.process_batch(std::span<const SubmissionShare>(view));
    auto a = node.publish_epoch();
    if (i == 0) agg = std::move(a);
  });

  for (size_t i = 0; i < kServers; ++i) EXPECT_EQ(verdicts[i], w.expected);
  ASSERT_TRUE(agg.has_value());
  EXPECT_EQ(agg->accepted, ref.accepted());
  EXPECT_EQ(agg->result, ref.result());
}

// Mesh set-up must not stall on a hello that lands just after its connect:
// three nodes rendezvousing concurrently finish well inside one 200 ms
// accept slice, every time.
TEST(TcpTest, ConcurrentMeshSetupIsFast) {
  const std::vector<u8> mesh_secret = master_seed_bytes(kSeeds.master_seed);
  for (int run = 0; run < 10; ++run) {
    Listeners peers = listen_loopback(kServers);
    std::vector<long> setup_ms(kServers);
    std::latch all_up(kServers);  // keep every mesh open until all are up
    on_all_nodes(kServers, [&](size_t i) {
      const auto t0 = std::chrono::steady_clock::now();
      net::TcpMeshTransport mesh(i, peers.addrs, peers.sockets[i].get(),
                                 mesh_secret, 5'000, 5'000);
      setup_ms[i] = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
      all_up.arrive_and_wait();
    });
    for (size_t i = 0; i < kServers; ++i) {
      EXPECT_LT(setup_ms[i], 150) << "run " << run << " node " << i;
    }
  }
}

}  // namespace
}  // namespace prio
