// Durable epoch store + crash-recovery tests: WAL framing and torn-tail
// truncation, atomic snapshot publication and manifest selection, hostile
// snapshot rejection in ServerNode::restore_state, and full recovery of a
// mesh node from snapshot + WAL replay to bit-identical protocol state.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include "afe/bitvec_sum.h"
#include "core/client.h"
#include "net/transport.h"
#include "server/node.h"
#include "store/fault.h"
#include "store/recovery.h"
#include "store/snapshot.h"
#include "store/wal.h"

namespace prio {
namespace {

using F = Fp64;
using Afe = afe::BitVectorSum<F>;
using Node = ServerNode<F, Afe>;

constexpr size_t kServers = 3;
constexpr u64 kMasterSeed = 77;

// A fresh scratch directory per test, removed on destruction.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/prio_store_test_XXXXXX";
    char* got = ::mkdtemp(tmpl);
    EXPECT_NE(got, nullptr);
    path = got;
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

std::vector<u8> file_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::vector<u8> out;
  u8 buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.insert(out.end(), buf, buf + n);
  std::fclose(f);
  return out;
}

void write_file(const std::string& path, std::span<const u8> bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// CRC + WAL framing
// ---------------------------------------------------------------------------

TEST(StoreCrcTest, MatchesKnownVector) {
  const char* s = "123456789";
  EXPECT_EQ(store::crc32(std::span<const u8>(
                reinterpret_cast<const u8*>(s), 9)),
            0xCBF43926u);
  EXPECT_EQ(store::crc32({}), 0u);
}

TEST(WalTest, AppendReplayRoundTrip) {
  TempDir dir;
  {
    store::WalWriter w(dir.path, /*epoch=*/0, store::FsyncPolicy::kAlways);
    w.append(store::kWalIntake, std::vector<u8>{1, 2, 3});
    w.append(store::kWalBatch, std::vector<u8>{});
    w.append(store::kWalEpochClose, std::vector<u8>(300, 0xab));
  }
  // Reopen and append more: the segment is append-only across restarts.
  {
    store::WalWriter w(dir.path, 0, store::FsyncPolicy::kOff);
    w.append(store::kWalIntake, std::vector<u8>{9});
  }
  auto seg = store::read_segment(store::wal_segment_path(dir.path, 0));
  EXPECT_FALSE(seg.torn_tail);
  ASSERT_EQ(seg.records.size(), 4u);
  EXPECT_EQ(seg.records[0].type, store::kWalIntake);
  EXPECT_EQ(seg.records[0].payload, (std::vector<u8>{1, 2, 3}));
  EXPECT_EQ(seg.records[1].type, store::kWalBatch);
  EXPECT_TRUE(seg.records[1].payload.empty());
  EXPECT_EQ(seg.records[2].payload.size(), 300u);
  EXPECT_EQ(seg.records[3].payload, (std::vector<u8>{9}));
}

// drop_last_record cuts exactly one whole record, and only of the asked
// type; the records before it replay unchanged.
TEST(WalTest, DropLastRecordCutsOnlyAMatchingRecord) {
  TempDir dir;
  const std::string path = store::wal_segment_path(dir.path, 0);
  {
    store::WalWriter w(dir.path, 0, store::FsyncPolicy::kOff);
    w.append(store::kWalIntake, std::vector<u8>{1, 2, 3});
    w.append(store::kWalBatch, std::vector<u8>(40, 7));
  }
  EXPECT_FALSE(store::drop_last_record(path, store::kWalIntake));
  EXPECT_EQ(store::read_segment(path).records.size(), 2u);
  EXPECT_TRUE(store::drop_last_record(path, store::kWalBatch));
  const auto seg = store::read_segment(path);
  EXPECT_FALSE(seg.torn_tail);
  ASSERT_EQ(seg.records.size(), 1u);
  EXPECT_EQ(seg.records[0].payload, (std::vector<u8>{1, 2, 3}));
  EXPECT_EQ(file_bytes(path).size(), seg.clean_bytes);
}

TEST(WalTest, MissingSegmentReadsEmpty) {
  TempDir dir;
  auto seg = store::read_segment(store::wal_segment_path(dir.path, 7));
  EXPECT_TRUE(seg.records.empty());
  EXPECT_FALSE(seg.torn_tail);
  EXPECT_EQ(seg.clean_bytes, 0u);
}

TEST(WalTest, TornTailTruncatedAtFirstBadCrc) {
  TempDir dir;
  const std::string path = store::wal_segment_path(dir.path, 0);
  {
    store::WalWriter w(dir.path, 0, store::FsyncPolicy::kOff);
    w.append(store::kWalIntake, std::vector<u8>(40, 1));
    w.append(store::kWalIntake, std::vector<u8>(40, 2));
  }
  auto clean = file_bytes(path);

  // Case 1: a record cut short mid-write (crash during append).
  {
    store::WalWriter w(dir.path, 0, store::FsyncPolicy::kOff);
    w.append(store::kWalIntake, std::vector<u8>(40, 3));
  }
  auto longer = file_bytes(path);
  write_file(path, std::span<const u8>(longer.data(), longer.size() - 17));
  auto seg = store::read_segment(path);
  EXPECT_TRUE(seg.torn_tail);
  ASSERT_EQ(seg.records.size(), 2u);
  EXPECT_EQ(seg.clean_bytes, clean.size());
  ASSERT_TRUE(store::truncate_segment(path, seg.clean_bytes));
  auto after = store::read_segment(path);
  EXPECT_FALSE(after.torn_tail);
  EXPECT_EQ(after.records.size(), 2u);

  // A fresh writer continues the truncated stream cleanly.
  {
    store::WalWriter w(dir.path, 0, store::FsyncPolicy::kOff);
    w.append(store::kWalBatch, std::vector<u8>{7});
  }
  auto resumed = store::read_segment(path);
  EXPECT_FALSE(resumed.torn_tail);
  ASSERT_EQ(resumed.records.size(), 3u);
  EXPECT_EQ(resumed.records[2].type, store::kWalBatch);

  // Case 2: a flipped bit in the middle record stops replay there -- the
  // suffix is unreachable (no trustworthy boundary past a bad CRC).
  auto flipped = file_bytes(path);
  flipped[clean.size() / 2] ^= 0x10;
  write_file(path, flipped);
  auto bad = store::read_segment(path);
  EXPECT_TRUE(bad.torn_tail);
  EXPECT_EQ(bad.records.size(), 1u);

  // Case 3: an implausible length prefix is corruption, not a record.
  std::vector<u8> huge(8, 0xff);
  write_file(path, huge);
  auto huge_seg = store::read_segment(path);
  EXPECT_TRUE(huge_seg.torn_tail);
  EXPECT_TRUE(huge_seg.records.empty());
  EXPECT_EQ(huge_seg.clean_bytes, 0u);
}

TEST(WalTest, SegmentListingAndPruning) {
  TempDir dir;
  for (u32 e : {0u, 1u, 3u}) {
    store::WalWriter w(dir.path, e, store::FsyncPolicy::kOff);
    w.append(store::kWalIntake, std::vector<u8>{static_cast<u8>(e)});
  }
  EXPECT_EQ(store::list_wal_epochs(dir.path), (std::vector<u32>{0, 1, 3}));
  store::prune_wal_segments(dir.path, 2);
  EXPECT_EQ(store::list_wal_epochs(dir.path), (std::vector<u32>{3}));
}

// ---------------------------------------------------------------------------
// Snapshot store
// ---------------------------------------------------------------------------

TEST(SnapshotStoreTest, NewestValidWinsAndManifestPointsAtIt) {
  TempDir dir;
  store::SnapshotStore snaps(dir.path);
  EXPECT_FALSE(snaps.load_newest().has_value());
  ASSERT_TRUE(snaps.write(1, std::vector<u8>{1, 1, 1}));
  ASSERT_TRUE(snaps.write(2, std::vector<u8>{2, 2}));
  auto got = snaps.load_newest();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->epoch, 2u);
  EXPECT_EQ(got->bytes, (std::vector<u8>{2, 2}));
}

TEST(SnapshotStoreTest, CorruptNewestFallsBackToOlder) {
  TempDir dir;
  store::SnapshotStore snaps(dir.path);
  ASSERT_TRUE(snaps.write(1, std::vector<u8>{1, 1, 1}));
  ASSERT_TRUE(snaps.write(2, std::vector<u8>{2, 2}));
  // Rot a byte inside snapshot 2's payload: its CRC now fails, so the
  // manifest entry is rejected and the scan falls back to snapshot 1.
  const std::string p2 = dir.path + "/" + store::SnapshotStore::file_name(2);
  auto bytes = file_bytes(p2);
  bytes.back() ^= 0x01;
  write_file(p2, bytes);
  auto got = snaps.load_newest();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->epoch, 1u);
}

TEST(SnapshotStoreTest, MissingManifestDegradesToScan) {
  TempDir dir;
  store::SnapshotStore snaps(dir.path);
  ASSERT_TRUE(snaps.write(4, std::vector<u8>{4}));
  ::unlink((dir.path + "/MANIFEST").c_str());
  auto got = snaps.load_newest();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->epoch, 4u);
}

TEST(SnapshotStoreTest, PruneKeepsNewest) {
  TempDir dir;
  store::SnapshotStore snaps(dir.path);
  for (u32 e : {1u, 2u, 3u}) ASSERT_TRUE(snaps.write(e, std::vector<u8>{1}));
  snaps.prune(3);
  EXPECT_EQ(snaps.list_epochs(), (std::vector<u32>{3}));
}

// ---------------------------------------------------------------------------
// Mesh workload helpers (mirrors test_transport.cc)
// ---------------------------------------------------------------------------

struct Workload {
  std::vector<Submission> subs;
  std::vector<u8> expected;
};

Workload make_workload(const Afe& afe, size_t n, u64 first_cid = 0) {
  PrioClient<F, Afe> encoder(&afe, kServers, kMasterSeed);
  SecureRng rng(321 + first_cid);
  Workload w;
  const size_t len = afe.length();
  for (u64 k = 0; k < n; ++k) {
    const u64 cid = first_cid + k;
    std::vector<u8> bits(len, 0);
    bits[cid % len] = 1;
    auto blobs = encoder.upload(bits, cid, rng);
    u8 expect = 1;
    if (k % 4 == 3) {
      blobs[cid % kServers][12] ^= 1;  // tampered ciphertext -> reject
      expect = 0;
    }
    w.subs.push_back({cid, std::move(blobs)});
    w.expected.push_back(expect);
  }
  return w;
}

std::vector<std::unique_ptr<Node>> make_nodes(
    const Afe& afe, net::LoopbackMesh& mesh,
    std::vector<net::LoopbackTransport>& links, size_t refresh_every = 1024) {
  links.clear();
  links.reserve(kServers);
  std::vector<std::unique_ptr<Node>> nodes;
  for (size_t i = 0; i < kServers; ++i) links.emplace_back(&mesh, i);
  for (size_t i = 0; i < kServers; ++i) {
    ServerNodeConfig cfg;
    cfg.num_servers = kServers;
    cfg.self = i;
    cfg.master_seed = kMasterSeed;
    cfg.refresh_every = refresh_every;
    nodes.push_back(std::make_unique<Node>(&afe, cfg, &links[i]));
  }
  return nodes;
}

template <typename Fn>
void on_all_nodes(size_t n, Fn fn) {
  std::vector<std::thread> threads;
  for (size_t i = 0; i < n; ++i) threads.emplace_back([&fn, i] { fn(i); });
  for (auto& t : threads) t.join();
}

// ---------------------------------------------------------------------------
// restore_state hardening: hostile snapshots from disk
// ---------------------------------------------------------------------------

// Builds a node with nontrivial state (accumulator, floors, refreshes) and
// returns {node snapshot, afe} via out-params for the fuzz cases.
std::vector<u8> snapshot_with_state(const Afe& afe) {
  auto w = make_workload(afe, 8);
  net::LoopbackMesh mesh(kServers);
  std::vector<net::LoopbackTransport> links;
  auto nodes = make_nodes(afe, mesh, links, /*refresh_every=*/3);
  on_all_nodes(kServers, [&](size_t i) {
    auto view = node_view(std::span<const Submission>(w.subs), i);
    nodes[i]->process_batch(std::span<const SubmissionShare>(view));
  });
  return nodes[1]->snapshot();
}

Node fresh_node(const Afe& afe, net::LoopbackTransport* link, size_t self) {
  ServerNodeConfig cfg;
  cfg.num_servers = kServers;
  cfg.self = self;
  cfg.master_seed = kMasterSeed;
  return Node(&afe, cfg, link);
}

TEST(RestoreStateFuzzTest, HostileSnapshotsAllRejectedWithoutUB) {
  Afe afe(6);
  const std::vector<u8> good = snapshot_with_state(afe);
  net::LoopbackMesh mesh(kServers);
  std::vector<net::LoopbackTransport> links;
  for (size_t i = 0; i < kServers; ++i) links.emplace_back(&mesh, i);

  {  // the untampered snapshot restores
    Node n = fresh_node(afe, &links[1], 1);
    EXPECT_TRUE(n.restore_state(good));
  }

  // Truncations at every prefix length (including 0).
  for (size_t len = 0; len < good.size(); ++len) {
    Node n = fresh_node(afe, &links[1], 1);
    EXPECT_FALSE(n.restore_state(std::span<const u8>(good.data(), len)))
        << "truncated to " << len;
  }

  // Every single-bit flip: caught by the trailing CRC (or, for flips in
  // the CRC itself, by the mismatch with the body).
  for (size_t byte = 0; byte < good.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<u8> bad = good;
      bad[byte] ^= static_cast<u8>(1u << bit);
      Node n = fresh_node(afe, &links[1], 1);
      EXPECT_FALSE(n.restore_state(bad)) << "flip at " << byte << ":" << bit;
    }
  }

  // Oversized: trailing junk, duplicated body, and a huge floor count
  // claim (the length/CRC checks refuse before any allocation spree).
  {
    std::vector<u8> bad = good;
    bad.insert(bad.end(), 1000, 0xcc);
    Node n = fresh_node(afe, &links[1], 1);
    EXPECT_FALSE(n.restore_state(bad));
  }
  {
    std::vector<u8> bad = good;
    bad.insert(bad.end(), good.begin(), good.end());
    Node n = fresh_node(afe, &links[1], 1);
    EXPECT_FALSE(n.restore_state(bad));
  }
  {
    // Hand-built: plausible header but floor count far beyond the bytes.
    net::Writer w;
    w.u32_(0);                      // epoch
    w.u64_(1);                      // batch_counter
    w.u64_(1);                      // refreshes
    w.u64_(0);                      // since
    w.u64_(1);                      // accepted
    w.u64_(8);                      // processed
    w.u64_(0);                      // generation
    std::vector<F> acc(afe.k_prime(), F::zero());
    w.field_vector<F>(std::span<const F>(acc));
    w.u32_(0x00ffffff);             // floors: claims ~16M entries
    w.u32_(store::crc32(w.data()));  // valid CRC: the bound check must fire
    Node n = fresh_node(afe, &links[1], 1);
    EXPECT_FALSE(n.restore_state(w.data()));
  }
  {
    // Valid CRC but impossible counters: refreshes beyond processed + 1
    // (would otherwise spin the refresh replay), accepted > processed.
    net::Writer w;
    w.u32_(0);
    w.u64_(1);
    w.u64_(1u << 20);               // refreshes
    w.u64_(0);
    w.u64_(1);
    w.u64_(8);                      // processed
    w.u64_(0);                      // generation
    std::vector<F> acc(afe.k_prime(), F::zero());
    w.field_vector<F>(std::span<const F>(acc));
    w.u32_(0);
    w.u32_(store::crc32(w.data()));
    Node n = fresh_node(afe, &links[1], 1);
    EXPECT_FALSE(n.restore_state(w.data()));
  }
}

// ---------------------------------------------------------------------------
// Recovery: snapshot + WAL replay reproduce a crashed node bit-identically
// ---------------------------------------------------------------------------

// Drives a 3-node mesh through `batches`, writing node 2's WAL exactly as
// the runtime would (intake record per blob, batch record per commit), then
// destroys node 2 and recovers a fresh one from the store. The recovered
// node must snapshot bit-identically to the node it replaced and must keep
// running live batches with the surviving mesh.
TEST(RecoveryTest, ReplayRebuildsNodeBitIdentically) {
  Afe afe(8);
  TempDir dir;
  store::EpochStore est(dir.path + "/node2", store::FsyncPolicy::kEpoch);

  net::LoopbackMesh mesh(kServers);
  std::vector<net::LoopbackTransport> links;
  auto nodes = make_nodes(afe, mesh, links, /*refresh_every=*/5);

  // Nothing recovered from an empty directory; it just opens segment 0.
  {
    net::LoopbackMesh scratch_mesh(kServers);
    std::vector<net::LoopbackTransport> scratch_links;
    for (size_t i = 0; i < kServers; ++i) {
      scratch_links.emplace_back(&scratch_mesh, i);
    }
    Node scratch = fresh_node(afe, &scratch_links[2], 2);
    auto rec = store::recover_node<F, Afe>(&scratch, &afe, &est);
    ASSERT_TRUE(rec.ok) << rec.error;
    EXPECT_FALSE(rec.used_snapshot);
    EXPECT_EQ(rec.batches_applied, 0u);
  }

  auto w1 = make_workload(afe, 8, 0);
  auto w2 = make_workload(afe, 8, 100);
  std::vector<std::vector<u8>> verdicts_by_batch(2);
  on_all_nodes(kServers, [&](size_t i) {
    size_t b = 0;
    for (auto* w : {&w1, &w2}) {
      auto view = node_view(std::span<const Submission>(w->subs), i);
      auto v = nodes[i]->process_batch(std::span<const SubmissionShare>(view));
      if (i == 2) verdicts_by_batch[b] = v;
      ++b;
    }
  });

  // Write node 2's WAL the way ServerRuntime does: every blob at intake,
  // then each committed batch's ids + verdicts. (Blobs carry their seq in
  // the first 8 bytes of the cleartext prefix.)
  auto blob_seq = [](const std::vector<u8>& blob) {
    net::Reader r(blob);
    return r.u64_();
  };
  size_t b = 0;
  for (auto* w : {&w1, &w2}) {
    std::vector<std::pair<u64, u64>> ids;
    for (const auto& sub : w->subs) {
      const auto& blob = sub.blobs[2];
      const u64 seq = blob_seq(blob);
      est.append_intake(sub.client_id, seq, blob);
      ids.push_back({sub.client_id, seq});
    }
    est.append_batch(std::span<const std::pair<u64, u64>>(ids),
                     std::span<const u8>(verdicts_by_batch[b]));
    ++b;
  }

  const std::vector<u8> want = nodes[2]->snapshot();
  nodes[2].reset();  // kill -9

  ServerNodeConfig cfg;
  cfg.num_servers = kServers;
  cfg.self = 2;
  cfg.master_seed = kMasterSeed;
  cfg.refresh_every = 5;
  auto revived_ptr = std::make_unique<Node>(&afe, cfg, &links[2]);
  auto rec = store::recover_node<F, Afe>(revived_ptr.get(), &afe, &est);
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_EQ(rec.batches_applied, 2u);
  EXPECT_EQ(rec.intake_records, 16u);
  EXPECT_TRUE(rec.buffer.empty());  // every logged blob was consumed
  EXPECT_EQ(rec.last_batch_ids.size(), 8u);
  EXPECT_EQ(revived_ptr->snapshot(), want);
  nodes[2] = std::move(revived_ptr);

  // The revived node keeps running live protocol batches and the mesh
  // publishes a coherent epoch.
  auto w3 = make_workload(afe, 8, 200);
  std::optional<Node::EpochAggregate> agg;
  on_all_nodes(kServers, [&](size_t i) {
    auto view = node_view(std::span<const Submission>(w3.subs), i);
    auto v = nodes[i]->process_batch(std::span<const SubmissionShare>(view));
    EXPECT_EQ(v, w3.expected);
    auto a = nodes[i]->publish_epoch();
    if (i == 0) agg = std::move(a);
  });
  ASSERT_TRUE(agg.has_value());
  EXPECT_EQ(agg->accepted, 18u);  // 6 valid per batch of 8
}

// A torn tail in the newest segment is truncated and the clean prefix
// replayed; unconsumed intake records surface as the recovered buffer.
TEST(RecoveryTest, TornTailAndUnconsumedIntakeSurvive) {
  Afe afe(6);
  TempDir dir;
  store::EpochStore est(dir.path, store::FsyncPolicy::kOff);
  est.open_segment(0);
  est.append_intake(5, 0, std::vector<u8>(24, 0xaa));
  est.append_intake(6, 1, std::vector<u8>(24, 0xbb));
  // Simulate a crash mid-append: chop the tail of the segment mid-record.
  const std::string path = store::wal_segment_path(dir.path, 0);
  auto bytes = file_bytes(path);
  write_file(path, std::span<const u8>(bytes.data(), bytes.size() - 5));

  net::LoopbackMesh mesh(kServers);
  std::vector<net::LoopbackTransport> links;
  for (size_t i = 0; i < kServers; ++i) links.emplace_back(&mesh, i);
  Node node = fresh_node(afe, &links[2], 2);
  auto rec = store::recover_node<F, Afe>(&node, &afe, &est);
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_EQ(rec.truncated_tails, 1u);
  EXPECT_EQ(rec.intake_records, 1u);  // the torn second record is gone
  ASSERT_EQ(rec.buffer.size(), 1u);
  EXPECT_EQ(rec.buffer.begin()->first, (std::pair<u64, u64>(5, 0)));

  // The truncated segment accepts appends again (clean boundary).
  est.append_intake(7, 0, std::vector<u8>(24, 0xcc));
  auto seg = store::read_segment(path);
  EXPECT_FALSE(seg.torn_tail);
  EXPECT_EQ(seg.records.size(), 2u);
}

// Epoch-close records replay across segment rotation: recovery lands the
// node mid-epoch-1 with epoch 0's aggregate republishable on server 0.
TEST(RecoveryTest, EpochCloseAndRotationReplay) {
  Afe afe(6);
  TempDir dir;
  store::EpochStore est(dir.path, store::FsyncPolicy::kEpoch);

  net::LoopbackMesh mesh(kServers);
  std::vector<net::LoopbackTransport> links;
  auto nodes = make_nodes(afe, mesh, links);

  auto w1 = make_workload(afe, 8, 0);
  std::vector<u8> verdicts0;
  std::optional<Node::EpochAggregate> agg;
  on_all_nodes(kServers, [&](size_t i) {
    auto view = node_view(std::span<const Submission>(w1.subs), i);
    auto v = nodes[i]->process_batch(std::span<const SubmissionShare>(view));
    if (i == 0) verdicts0 = v;
    auto a = nodes[i]->publish_epoch();
    if (i == 0) agg = std::move(a);
  });
  ASSERT_TRUE(agg.has_value());

  // Server 0's WAL: intake + batch for epoch 0, the epoch-close record
  // (with the published accumulator), rotation, then one more intake
  // record in epoch 1's segment that must survive as buffered.
  est.open_segment(0);
  std::vector<std::pair<u64, u64>> ids;
  for (const auto& sub : w1.subs) {
    net::Reader r(sub.blobs[0]);
    const u64 seq = r.u64_();
    est.append_intake(sub.client_id, seq, sub.blobs[0]);
    ids.push_back({sub.client_id, seq});
  }
  est.append_batch(std::span<const std::pair<u64, u64>>(ids),
                   std::span<const u8>(verdicts0));
  // An acked blob the epoch never consumed: its only copy sits in segment
  // 0, which rotation prunes, so rotate must carry it into segment 1.
  const std::vector<u8> leftover(24, 0xee);
  est.append_intake(888, 0, leftover);
  net::Writer sig;
  sig.field_vector<F>(std::span<const F>(agg->sigma));
  est.append_epoch_close(0, agg->accepted, sig.data());
  std::vector<store::EpochStore::CarryOver> carry = {
      {888, 0, std::span<const u8>(leftover)}};
  est.rotate(1, nodes[0]->snapshot(),
             std::span<const store::EpochStore::CarryOver>(carry));
  est.append_intake(999, 0, std::vector<u8>(24, 0xdd));

  // Epoch 0's segment was pruned at rotation; only epoch 1's remains.
  EXPECT_EQ(store::list_wal_epochs(dir.path), (std::vector<u32>{1}));

  Node revived = fresh_node(afe, &links[0], 0);
  auto rec = store::recover_node<F, Afe>(&revived, &afe, &est);
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_TRUE(rec.used_snapshot);
  EXPECT_EQ(revived.epoch(), 1u);
  EXPECT_EQ(revived.snapshot(), nodes[0]->snapshot());
  ASSERT_EQ(rec.published.size(), 1u);
  EXPECT_EQ(rec.published.at(0).accepted, agg->accepted);
  EXPECT_EQ(rec.published.at(0).result, agg->result);
  // Both the carried-over epoch-0 blob and the fresh epoch-1 one survive.
  ASSERT_EQ(rec.buffer.size(), 2u);
  EXPECT_EQ(rec.buffer.at({888, 0}), leftover);
  EXPECT_EQ(rec.buffer.count({999, 0}), 1u);
}

// The mesh channel-key generation must survive a restart: an unrecovered
// generation would let a full-mesh restart renegotiate max+1 over all-zero
// hellos and reseal a retried batch's (different) plaintext under the same
// (key, nonce). It rides in kWalGeneration records (mid-epoch bumps) and
// in the snapshot (epoch boundaries); recovery restores the max of both.
TEST(RecoveryTest, GenerationSurvivesRestart) {
  Afe afe(6);
  net::LoopbackMesh mesh(kServers);
  std::vector<net::LoopbackTransport> links;
  for (size_t i = 0; i < kServers; ++i) links.emplace_back(&mesh, i);

  // WAL records alone (no snapshot): the max logged bump is restored.
  TempDir dir;
  store::EpochStore est(dir.path, store::FsyncPolicy::kOff);
  est.open_segment(0);
  est.append_generation(1);
  est.append_generation(4);
  {
    Node node = fresh_node(afe, &links[2], 2);
    auto rec = store::recover_node<F, Afe>(&node, &afe, &est);
    ASSERT_TRUE(rec.ok) << rec.error;
    EXPECT_EQ(node.generation(), 4u);
  }

  // Snapshot round-trip carries the generation too.
  {
    Node live = fresh_node(afe, &links[2], 2);
    live.set_generation(7);
    Node revived = fresh_node(afe, &links[2], 2);
    ASSERT_TRUE(revived.restore_state(live.snapshot()));
    EXPECT_EQ(revived.generation(), 7u);
  }

  // Snapshot + a later bump in the new segment: the max wins even though
  // the snapshot is loaded first.
  {
    Node live = fresh_node(afe, &links[2], 2);
    live.set_generation(7);
    est.rotate(0, live.snapshot());
    est.append_generation(9);
    Node revived = fresh_node(afe, &links[2], 2);
    auto rec = store::recover_node<F, Afe>(&revived, &afe, &est);
    ASSERT_TRUE(rec.ok) << rec.error;
    EXPECT_TRUE(rec.used_snapshot);
    EXPECT_EQ(revived.generation(), 9u);
  }
}

// A crash inside rotate() after the snapshot published but before the
// carry-over intake records were appended to the new segment: the acked-
// but-unconsumed blobs' only durable copies sit in the (un-pruned) old
// epoch's segment, which recovery must still mine for intake records --
// without resurrecting the blobs that epoch's batches consumed.
TEST(RecoveryTest, CrashBetweenSnapshotAndCarryOverKeepsBufferedBlobs) {
  Afe afe(6);
  TempDir dir;
  store::EpochStore est(dir.path, store::FsyncPolicy::kEpoch);

  net::LoopbackMesh mesh(kServers);
  std::vector<net::LoopbackTransport> links;
  auto nodes = make_nodes(afe, mesh, links);

  auto w1 = make_workload(afe, 8, 0);
  std::vector<u8> verdicts0;
  std::optional<Node::EpochAggregate> agg;
  on_all_nodes(kServers, [&](size_t i) {
    auto view = node_view(std::span<const Submission>(w1.subs), i);
    auto v = nodes[i]->process_batch(std::span<const SubmissionShare>(view));
    if (i == 0) verdicts0 = v;
    auto a = nodes[i]->publish_epoch();
    if (i == 0) agg = std::move(a);
  });
  ASSERT_TRUE(agg.has_value());

  // Server 0's epoch-0 segment, exactly as the runtime writes it -- plus
  // one acked blob no batch ever consumed.
  est.open_segment(0);
  std::vector<std::pair<u64, u64>> ids;
  for (const auto& sub : w1.subs) {
    net::Reader r(sub.blobs[0]);
    const u64 seq = r.u64_();
    est.append_intake(sub.client_id, seq, sub.blobs[0]);
    ids.push_back({sub.client_id, seq});
  }
  est.append_batch(std::span<const std::pair<u64, u64>>(ids),
                   std::span<const u8>(verdicts0));
  const std::vector<u8> leftover(24, 0xee);
  est.append_intake(888, 0, leftover);
  net::Writer sig;
  sig.field_vector<F>(std::span<const F>(agg->sigma));
  est.append_epoch_close(0, agg->accepted, sig.data());
  // The crash window: the boundary snapshot publishes, then the process
  // dies before rotate() appends the carry-over or prunes anything.
  ASSERT_TRUE(est.snapshots().write(1, nodes[0]->snapshot()));
  EXPECT_EQ(store::list_wal_epochs(dir.path), (std::vector<u32>{0}));

  Node revived = fresh_node(afe, &links[0], 0);
  auto rec = store::recover_node<F, Afe>(&revived, &afe, &est);
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_TRUE(rec.used_snapshot);
  EXPECT_EQ(revived.epoch(), 1u);
  EXPECT_EQ(revived.snapshot(), nodes[0]->snapshot());
  // The unconsumed blob survives; the eight the batch consumed do not
  // reappear (they would waste announced batch slots and shift the
  // count-delimited epoch boundary).
  ASSERT_EQ(rec.buffer.size(), 1u);
  EXPECT_EQ(rec.buffer.at({888, 0}), leftover);
  // The pre-snapshot segment still yields the catch-up record and the
  // published history (via aggregates.log).
  EXPECT_EQ(rec.last_batch_ids.size(), 8u);
  ASSERT_EQ(rec.published.size(), 1u);
  EXPECT_EQ(rec.published.at(0).accepted, agg->accepted);
  EXPECT_EQ(rec.published.at(0).result, agg->result);
}

// A batch record claiming acceptance of a blob the WAL never logged is
// semantic corruption and must fail recovery loudly, not diverge silently.
TEST(RecoveryTest, AcceptedBlobMissingFromWalFailsRecovery) {
  Afe afe(6);
  TempDir dir;
  store::EpochStore est(dir.path, store::FsyncPolicy::kOff);
  est.open_segment(0);
  std::vector<std::pair<u64, u64>> ids = {{1, 0}};
  std::vector<u8> verdicts = {1};
  est.append_batch(std::span<const std::pair<u64, u64>>(ids),
                   std::span<const u8>(verdicts));

  net::LoopbackMesh mesh(kServers);
  std::vector<net::LoopbackTransport> links;
  for (size_t i = 0; i < kServers; ++i) links.emplace_back(&mesh, i);
  Node node = fresh_node(afe, &links[0], 0);
  auto rec = store::recover_node<F, Afe>(&node, &afe, &est);
  EXPECT_FALSE(rec.ok);
  EXPECT_NE(rec.error.find("never logged"), std::string::npos);
}

// The per-shard WAL latency histogram /metrics serves: every append is
// timed under the store's shard label.
TEST(EpochStoreTest, AttachedMetricsTimeEveryAppend) {
  TempDir dir;
  obs::Registry reg;
  store::EpochStore st(dir.path, store::FsyncPolicy::kOff);
  st.attach_metrics(&reg, obs::label_kv("shard", 3));
  st.open_segment(0);
  ASSERT_TRUE(st.append_intake(1, 1, std::vector<u8>{1, 2, 3}));
  ASSERT_TRUE(st.append_intake(2, 1, std::vector<u8>{4, 5, 6}));
  EXPECT_EQ(reg.hist_count("prio_wal_append_seconds"), 2u);
  EXPECT_NE(reg.render_prometheus().find(
                "prio_wal_append_seconds_count{shard=\"3\"} 2\n"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Fsync policy parsing (the --fsync flag)
// ---------------------------------------------------------------------------

TEST(FsyncPolicyTest, ParseAcceptsCatalogueAndRoundTrips) {
  const std::pair<const char*, store::FsyncPolicy> cases[] = {
      {"always", store::FsyncPolicy::kAlways},
      {"epoch", store::FsyncPolicy::kEpoch},
      {"off", store::FsyncPolicy::kOff},
  };
  for (const auto& [text, policy] : cases) {
    auto got = store::parse_fsync_policy(text);
    ASSERT_TRUE(got.has_value()) << text;
    EXPECT_EQ(*got, policy);
    EXPECT_STREQ(store::fsync_policy_name(policy), text);
  }
}

TEST(FsyncPolicyTest, ParseRejectsEverythingElse) {
  for (const char* bad : {"", "Always", "EPOCH", "fsync", "on", "off ",
                          " epoch", "none", "0"}) {
    EXPECT_FALSE(store::parse_fsync_policy(bad).has_value())
        << "'" << bad << "' parsed";
  }
}

// ---------------------------------------------------------------------------
// Fault plans: spec grammar + firing windows + the instrumented seams
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, ParsesTheSpecGrammar) {
  std::string err;
  auto plan = store::FaultPlan::parse(
      "wal_sync:eio:after=2;mesh_send:delay:after=40,count=8,ms=15", &err);
  ASSERT_TRUE(plan.has_value()) << err;
  ASSERT_EQ(plan->rules().size(), 2u);
  EXPECT_EQ(plan->rules()[0].op, store::FaultOp::kWalSync);
  EXPECT_EQ(plan->rules()[0].kind, store::FaultKind::kEio);
  EXPECT_EQ(plan->rules()[0].after, 2u);
  EXPECT_EQ(plan->rules()[0].count, 1u);  // default
  EXPECT_EQ(plan->rules()[1].op, store::FaultOp::kMeshSend);
  EXPECT_EQ(plan->rules()[1].kind, store::FaultKind::kDelay);
  EXPECT_EQ(plan->rules()[1].after, 40u);
  EXPECT_EQ(plan->rules()[1].count, 8u);
  EXPECT_EQ(plan->rules()[1].arg, 15u);  // ms= is an alias for arg=
  // An empty spec is a valid, never-firing plan.
  auto empty = store::FaultPlan::parse("");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->rules().empty());
}

TEST(FaultPlanTest, ParseRejectsMalformedRules) {
  for (const char* bad :
       {"bogus:eio", "wal_sync", "wal_sync:explode", "wal_sync:eio:after",
        "wal_sync:eio:after=x", "wal_sync:eio:lives=9",
        "wal_append:eio:count=0", "wal_sync:eio:after=1:extra"}) {
    std::string err;
    EXPECT_FALSE(store::FaultPlan::parse(bad, &err).has_value())
        << "'" << bad << "' parsed";
    EXPECT_FALSE(err.empty()) << bad;
  }
}

TEST(FaultPlanTest, TickArmsAfterWindowAndCountsPerOp) {
  auto plan = store::FaultPlan::parse(
      "wal_append:short_write:after=1,count=2,bytes=7");
  ASSERT_TRUE(plan.has_value());
  // Op 0 passes, ops 1-2 fault, op 3 passes again.
  EXPECT_FALSE(plan->tick(store::FaultOp::kWalAppend).has_value());
  auto fired = plan->tick(store::FaultOp::kWalAppend);
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(fired->kind, store::FaultKind::kShortWrite);
  EXPECT_EQ(fired->arg, 7u);
  EXPECT_TRUE(plan->tick(store::FaultOp::kWalAppend).has_value());
  EXPECT_FALSE(plan->tick(store::FaultOp::kWalAppend).has_value());
  // Each op keeps its own counter: wal_sync never matches the rule.
  EXPECT_FALSE(plan->tick(store::FaultOp::kWalSync).has_value());
  EXPECT_EQ(plan->seen(store::FaultOp::kWalAppend), 4u);
  EXPECT_EQ(plan->fired(store::FaultOp::kWalAppend), 2u);
  EXPECT_EQ(plan->seen(store::FaultOp::kWalSync), 1u);
  EXPECT_EQ(plan->fired(store::FaultOp::kWalSync), 0u);
}

// Parses and installs a plan for one test scope; uninstalls on the way
// out so a failing assertion can never leak faults into the next test.
struct ScopedFaultPlan {
  explicit ScopedFaultPlan(const std::string& spec) {
    std::string err;
    auto parsed = store::FaultPlan::parse(spec, &err);
    EXPECT_TRUE(parsed.has_value()) << err;
    if (parsed) {
      plan = std::make_unique<store::FaultPlan>(std::move(*parsed));
    }
    store::install_fault_plan(plan.get());
  }
  ~ScopedFaultPlan() { store::install_fault_plan(nullptr); }
  std::unique_ptr<store::FaultPlan> plan;
};

TEST(FaultInjectionTest, WalSyncReportsInjectedFailure) {
  TempDir dir;
  store::WalWriter w(dir.path, 0, store::FsyncPolicy::kAlways);
  w.append(store::kWalIntake, std::vector<u8>{1});
  {
    ScopedFaultPlan guard("wal_sync:eio");
    EXPECT_FALSE(w.sync());
    EXPECT_TRUE(w.sync());  // count defaults to 1: only the first faults
    EXPECT_EQ(guard.plan->seen(store::FaultOp::kWalSync), 2u);
    EXPECT_EQ(guard.plan->fired(store::FaultOp::kWalSync), 1u);
  }
  EXPECT_TRUE(w.sync());
}

TEST(FaultInjectionTest, AppendEioThrowsAndWriterStaysUsable) {
  TempDir dir;
  store::WalWriter w(dir.path, 0, store::FsyncPolicy::kOff);
  w.append(store::kWalIntake, std::vector<u8>{1});
  {
    ScopedFaultPlan guard("wal_append:eio");
    EXPECT_THROW(w.append(store::kWalIntake, std::vector<u8>{2}),
                 std::runtime_error);
  }
  // The nacked append left no bytes behind; the writer keeps going.
  w.append(store::kWalIntake, std::vector<u8>{3});
  auto seg = store::read_segment(store::wal_segment_path(dir.path, 0));
  EXPECT_FALSE(seg.torn_tail);
  ASSERT_EQ(seg.records.size(), 2u);
  EXPECT_EQ(seg.records[1].payload, (std::vector<u8>{3}));
}

TEST(FaultInjectionTest, ShortWriteIsRepairedToACleanBoundary) {
  TempDir dir;
  const std::string path = store::wal_segment_path(dir.path, 0);
  store::WalWriter w(dir.path, 0, store::FsyncPolicy::kOff);
  w.append(store::kWalIntake, std::vector<u8>{1, 2, 3});
  const size_t clean = file_bytes(path).size();
  {
    ScopedFaultPlan guard("wal_append:short_write:bytes=5");
    EXPECT_THROW(w.append(store::kWalBatch, std::vector<u8>(40, 0xab)),
                 std::runtime_error);
  }
  // The torn 5-byte prefix was cut back in place, so the next append
  // lands on a clean record boundary -- replay never meets the tear.
  EXPECT_EQ(file_bytes(path).size(), clean);
  w.append(store::kWalEpochClose, std::vector<u8>{9});
  auto seg = store::read_segment(path);
  EXPECT_FALSE(seg.torn_tail);
  ASSERT_EQ(seg.records.size(), 2u);
  EXPECT_EQ(seg.records[0].type, store::kWalIntake);
  EXPECT_EQ(seg.records[1].type, store::kWalEpochClose);
}

TEST(FaultInjectionTest, DirFsyncFaultIsBestEffortByContract) {
  TempDir dir;
  ScopedFaultPlan guard("dir_fsync:eio");
  store::fsync_dir(dir.path);  // must not throw; the flow proceeds
  EXPECT_EQ(guard.plan->fired(store::FaultOp::kDirFsync), 1u);
}

TEST(FaultInjectionTest, SnapshotWriteFailureKeepsOldSet) {
  TempDir dir;
  store::SnapshotStore snaps(dir.path);
  const std::vector<u8> old_bytes(16, 0x11);
  ASSERT_TRUE(snaps.write(0, old_bytes));
  {
    ScopedFaultPlan guard("snap_write:eio");
    EXPECT_FALSE(snaps.write(1, std::vector<u8>(16, 0x22)));
  }
  // The failed publish left the previous snapshot set intact and the
  // manifest still pointing at it.
  EXPECT_EQ(snaps.list_epochs(), (std::vector<u32>{0}));
  auto loaded = snaps.load_newest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 0u);
  EXPECT_EQ(loaded->bytes, old_bytes);
}

// Rotation under a sync that keeps failing: the new segment + snapshot
// are written, but nothing may be pruned on the strength of bytes that
// never verifiably reached the platter -- the old segment's records (the
// only copies known durable) must still be there for recovery.
TEST(FaultInjectionTest, RotateWithFailedSyncSkipsPrune) {
  TempDir dir;
  store::EpochStore est(dir.path, store::FsyncPolicy::kEpoch);
  est.open_segment(0);
  est.append_intake(1, 0, std::vector<u8>(24, 0x11));
  {
    ScopedFaultPlan guard("wal_sync:eio:count=100");
    est.rotate(1, std::vector<u8>(16, 0x22));
    EXPECT_GE(guard.plan->fired(store::FaultOp::kWalSync), 1u);
  }
  EXPECT_EQ(store::list_wal_epochs(dir.path), (std::vector<u32>{0, 1}));
  auto seg = store::read_segment(store::wal_segment_path(dir.path, 0));
  EXPECT_FALSE(seg.torn_tail);
  ASSERT_EQ(seg.records.size(), 1u);
  EXPECT_EQ(seg.records[0].type, store::kWalIntake);
}

// ---------------------------------------------------------------------------
// Fsync-policy degradation window: what a power cut may cost under
// kEpoch / kOff -- and what it may never cost
// ---------------------------------------------------------------------------

// The documented trade: under kEpoch/kOff a POWER FAILURE may lose the
// un-fsynced suffix of the open epoch's WAL (kill -9 alone loses nothing;
// appends are fflushed out of stdio). The contract this test pins down:
//   - the loss is bounded at a record boundary the replay can see -- the
//     trio recovers bit-identically to the last fully committed batch,
//     never to a torn half-applied one;
//   - acked-but-lost blobs are a resync/resend matter, and records that
//     DID survive surface from recovery (rec.buffer) instead of silently
//     vanishing;
//   - after the clients resend the lost window, the published aggregate
//     is bit-identical to a run that never crashed. The aggregate can be
//     late; it can never be wrong.
class FsyncWindowTest
    : public ::testing::TestWithParam<store::FsyncPolicy> {};

TEST_P(FsyncWindowTest, PowerCutLosesAtMostTheOpenWindowNeverCorrectness) {
  const store::FsyncPolicy policy = GetParam();
  Afe afe(8);
  auto w1 = make_workload(afe, 8, 0);
  auto w2 = make_workload(afe, 8, 100);

  // Oracle: the same two batches on a trio that never crashes.
  std::optional<Node::EpochAggregate> want;
  {
    net::LoopbackMesh mesh(kServers);
    std::vector<net::LoopbackTransport> links;
    auto nodes = make_nodes(afe, mesh, links);
    on_all_nodes(kServers, [&](size_t i) {
      for (auto* w : {&w1, &w2}) {
        auto view = node_view(std::span<const Submission>(w->subs), i);
        nodes[i]->process_batch(std::span<const SubmissionShare>(view));
      }
      auto a = nodes[i]->publish_epoch();
      if (i == 0) want = std::move(a);
    });
  }
  ASSERT_TRUE(want.has_value());

  TempDir dir;
  auto store_dir = [&](size_t i) {
    return dir.path + "/s" + std::to_string(i);
  };
  auto wal_path = [&](size_t i) {
    return store::wal_segment_path(store_dir(i), 0);
  };

  // Durable trio: batch 1 verified and committed (runtime-style intake +
  // batch records), then batch 2's intake records acked -- and then the
  // power goes out before batch 2 commits.
  std::vector<std::vector<u8>> post_batch1_snap(kServers);
  std::vector<size_t> boundary(kServers);  // WAL bytes at the batch-1 line
  size_t keep0 = 0;  // node 0's WAL bytes incl. ONE surviving batch-2 record
  {
    net::LoopbackMesh mesh(kServers);
    std::vector<net::LoopbackTransport> links;
    auto nodes = make_nodes(afe, mesh, links);
    std::vector<std::unique_ptr<store::EpochStore>> stores;
    for (size_t i = 0; i < kServers; ++i) {
      stores.push_back(
          std::make_unique<store::EpochStore>(store_dir(i), policy));
      stores[i]->open_segment(0);
    }
    std::vector<std::vector<u8>> verdicts1(kServers);
    on_all_nodes(kServers, [&](size_t i) {
      auto view = node_view(std::span<const Submission>(w1.subs), i);
      verdicts1[i] =
          nodes[i]->process_batch(std::span<const SubmissionShare>(view));
    });
    for (size_t i = 0; i < kServers; ++i) {
      std::vector<std::pair<u64, u64>> ids;
      for (const auto& sub : w1.subs) {
        net::Reader r(sub.blobs[i]);
        const u64 seq = r.u64_();
        ASSERT_TRUE(stores[i]->append_intake(sub.client_id, seq,
                                             sub.blobs[i]));
        ids.push_back({sub.client_id, seq});
      }
      stores[i]->append_batch(std::span<const std::pair<u64, u64>>(ids),
                              std::span<const u8>(verdicts1[i]));
      post_batch1_snap[i] = nodes[i]->snapshot();
      boundary[i] = file_bytes(wal_path(i)).size();
    }
    for (size_t i = 0; i < kServers; ++i) {
      for (const auto& sub : w2.subs) {
        net::Reader r(sub.blobs[i]);
        ASSERT_TRUE(stores[i]->append_intake(sub.client_id, r.u64_(),
                                             sub.blobs[i]));
        if (i == 0 && keep0 == 0) keep0 = file_bytes(wal_path(0)).size();
      }
    }
  }  // stores and nodes die with the power

  // The power cut claims each WAL's un-fsynced suffix. Node 0's platter
  // kept one batch-2 intake record; nodes 1-2 lost the whole window.
  ASSERT_TRUE(store::truncate_segment(wal_path(0), keep0));
  for (size_t i = 1; i < kServers; ++i) {
    ASSERT_TRUE(store::truncate_segment(wal_path(i), boundary[i]));
  }

  // Recovery lands every node EXACTLY at the batch-1 boundary.
  net::LoopbackMesh mesh(kServers);
  std::vector<net::LoopbackTransport> links;
  auto nodes = make_nodes(afe, mesh, links);
  for (size_t i = 0; i < kServers; ++i) {
    store::EpochStore est(store_dir(i), policy);
    auto rec = store::recover_node<F, Afe>(nodes[i].get(), &afe, &est);
    ASSERT_TRUE(rec.ok) << "node " << i << ": " << rec.error;
    EXPECT_EQ(rec.batches_applied, 1u);
    EXPECT_EQ(nodes[i]->snapshot(), post_batch1_snap[i]) << "node " << i;
    if (i == 0) {
      // The surviving batch-2 record is surfaced for re-verification,
      // not silently dropped.
      ASSERT_EQ(rec.buffer.size(), 1u);
      EXPECT_EQ(rec.buffer.begin()->first.first, w2.subs[0].client_id);
    } else {
      EXPECT_TRUE(rec.buffer.empty()) << "node " << i;
    }
  }

  // Clients resend the lost window; the epoch publishes bit-identically
  // to the crash-free oracle.
  std::optional<Node::EpochAggregate> got;
  on_all_nodes(kServers, [&](size_t i) {
    auto view = node_view(std::span<const Submission>(w2.subs), i);
    auto v = nodes[i]->process_batch(std::span<const SubmissionShare>(view));
    EXPECT_EQ(v, w2.expected);
    auto a = nodes[i]->publish_epoch();
    if (i == 0) got = std::move(a);
  });
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->accepted, want->accepted);
  EXPECT_EQ(got->result, want->result);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, FsyncWindowTest,
    ::testing::Values(store::FsyncPolicy::kEpoch, store::FsyncPolicy::kOff),
    [](const ::testing::TestParamInfo<store::FsyncPolicy>& info) {
      return std::string(store::fsync_policy_name(info.param)) == "epoch"
                 ? "Epoch"
                 : "Off";
    });

}  // namespace
}  // namespace prio
