// Durable epoch store + crash-recovery tests: WAL framing and torn-tail
// truncation, atomic snapshot publication and newest-snapshot selection,
// hostile snapshot rejection in ServerNode::restore_state, the shared
// batch-record codec, and full recovery of a mesh node from snapshot + WAL
// replay to bit-identical protocol state.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <random>
#include <thread>

#include "afe/bitvec_sum.h"
#include "cluster.h"
#include "net/transport.h"
#include "server/node.h"
#include "store/fault.h"
#include "store/recovery.h"
#include "store/snapshot.h"
#include "store/wal.h"
#include "util/hex.h"

namespace prio {
namespace {

using namespace test;

using F = Fp64;
using Afe = afe::BitVectorSum<F>;
using Node = ServerNode<F, Afe>;

constexpr Seeds kSeeds{.master_seed = 77, .rng_seed = 321};

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

// Bit-at-a-time CRC-32 (reflected IEEE polynomial), sharing no code with
// either core under test.
u32 reference_crc32(std::span<const u8> data, u32 seed = 0) {
  u32 c = ~seed;
  for (u8 b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xedb88320u & (0u - (c & 1)));
  }
  return ~c;
}

using CrcCore = u32 (*)(std::span<const u8>, u32);

// Every length 0..1,100 (each fold-loop exit and tail length), random
// lengths up to 64 KiB, start offsets 1..15 off a 16-byte boundary, and
// chained seeds: core(b, core(a)) == core(a || b) == reference.
void expect_core_matches_reference(CrcCore core) {
  std::mt19937_64 gen(2009);
  std::vector<u8> buf((size_t{1} << 16) + 64);
  for (u8& b : buf) b = static_cast<u8>(gen());
  const std::span<const u8> all(buf);
  for (size_t len = 0; len <= 1100; ++len) {
    ASSERT_EQ(core(all.first(len), 0), reference_crc32(all.first(len)))
        << "len " << len;
  }
  for (int i = 0; i < 200; ++i) {
    const size_t off = 1 + gen() % 15;
    const size_t len = gen() % ((size_t{1} << 16) + 1);
    const auto data = all.subspan(off, len);
    const u32 seed = static_cast<u32>(gen());
    ASSERT_EQ(core(data, seed), reference_crc32(data, seed))
        << "off " << off << " len " << len;
    const size_t split = len ? gen() % len : 0;
    ASSERT_EQ(core(data.subspan(split), core(data.first(split), 0)),
              reference_crc32(data))
        << "off " << off << " len " << len << " split " << split;
  }
}

TEST(StoreCrcTest, BytewiseCoreMatchesBitwiseReference) {
  expect_core_matches_reference(store::crc32_bytewise);
}

TEST(StoreCrcTest, PclmulCoreMatchesBitwiseReference) {
  if (std::string(store::crc32_core_name()) != "pclmul") {
    GTEST_SKIP() << "CPU lacks PCLMULQDQ; crc32 runs the byte loop";
  }
  expect_core_matches_reference(store::crc32_pclmul);
  expect_core_matches_reference(store::crc32);  // the dispatcher picks it
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

// The WAL byte format, pinned: an intake record written through
// EpochStore's gathered append is [u32 len][u32 crc][u8 type] followed by
// [u64 client_id][u64 seq][u32 blob len][blob], all little-endian, with
// the CRC over the length prefix and the body. A segment written by any
// earlier build must keep reading back.
TEST(WalTest, IntakeRecordByteFormatIsPinned) {
  TempDir dir;
  store::EpochStore est(dir.path, store::FsyncPolicy::kOff);
  est.open_segment(0);
  std::vector<u8> blob(300);
  for (size_t i = 0; i < blob.size(); ++i) blob[i] = static_cast<u8>(i * 7);
  ASSERT_TRUE(est.append_intake(0x0102030405060708ull, 0x1112131415161718ull,
                                blob));

  std::vector<u8> body = {store::kWalIntake,
                          0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
                          0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11,
                          0x2c, 0x01, 0x00, 0x00};  // blob length 300
  body.insert(body.end(), blob.begin(), blob.end());
  std::vector<u8> len_le = {static_cast<u8>(body.size()),
                            static_cast<u8>(body.size() >> 8), 0, 0};
  std::vector<u8> covered = len_le;
  covered.insert(covered.end(), body.begin(), body.end());
  const u32 crc = reference_crc32(covered);
  std::vector<u8> want = len_le;
  for (int i = 0; i < 4; ++i) want.push_back(static_cast<u8>(crc >> (8 * i)));
  want.insert(want.end(), body.begin(), body.end());

  EXPECT_EQ(file_bytes(store::wal_segment_path(dir.path, 0)), want);
  EXPECT_EQ(est.segment_intake_bytes(), body.size() - 1);
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

TEST(SnapshotStoreTest, NewestValidWinsAndStrayManifestIsIgnored) {
  TempDir dir;
  store::SnapshotStore snaps(dir.path);
  EXPECT_FALSE(snaps.load_newest().has_value());
  ASSERT_TRUE(snaps.write(1, std::vector<u8>{1, 1, 1}));
  ASSERT_TRUE(snaps.write(2, std::vector<u8>{2, 2}));
  // The store writes nothing but snapshot files.
  EXPECT_FALSE(std::filesystem::exists(dir.path + "/MANIFEST"));
  auto got = snaps.load_newest();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->epoch, 2u);
  EXPECT_EQ(got->bytes, (std::vector<u8>{2, 2}));
  // A MANIFEST left by an older build, naming the older snapshot, does
  // not override the scan.
  const std::string line =
      "00000001 " + store::SnapshotStore::file_name(1) + "\n";
  write_file(dir.path + "/MANIFEST",
             std::vector<u8>(line.begin(), line.end()));
  got = snaps.load_newest();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->epoch, 2u);
}

TEST(SnapshotStoreTest, CorruptNewestFallsBackToOlder) {
  TempDir dir;
  store::SnapshotStore snaps(dir.path);
  ASSERT_TRUE(snaps.write(1, std::vector<u8>{1, 1, 1}));
  ASSERT_TRUE(snaps.write(2, std::vector<u8>{2, 2}));
  // Rot a byte inside snapshot 2's payload: its CRC now fails, so the
  // scan falls back to snapshot 1.
  const std::string p2 = dir.path + "/" + store::SnapshotStore::file_name(2);
  auto bytes = file_bytes(p2);
  bytes.back() ^= 0x01;
  write_file(p2, bytes);
  auto got = snaps.load_newest();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->epoch, 1u);
}

TEST(SnapshotStoreTest, PruneKeepsNewest) {
  TempDir dir;
  store::SnapshotStore snaps(dir.path);
  for (u32 e : {1u, 2u, 3u}) ASSERT_TRUE(snaps.write(e, std::vector<u8>{1}));
  snaps.prune(3);
  EXPECT_EQ(snaps.list_epochs(), (std::vector<u32>{3}));
}

// ---------------------------------------------------------------------------
// restore_state hardening: hostile snapshots from disk
// ---------------------------------------------------------------------------

// Builds a node with nontrivial state (accumulator, floors, refreshes) and
// returns {node snapshot, afe} via out-params for the fuzz cases. The
// workload runs as two batches of 4 under a refresh window of 4, so the
// second batch refreshes r.
std::vector<u8> snapshot_with_state(const Afe& afe) {
  auto w = make_workload(afe, 8, kSeeds);
  net::LoopbackMesh mesh(kServers);
  std::vector<net::LoopbackTransport> links;
  auto nodes = make_nodes(afe, mesh, links, kSeeds.master_seed,
                          /*refresh_every=*/4);
  on_all_nodes(kServers, [&](size_t i) {
    auto view = node_view(std::span<const Submission>(w.subs), i);
    const std::span<const SubmissionShare> all(view);
    nodes[i]->process_batch(all.first(4));
    nodes[i]->process_batch(all.subspan(4));
  });
  return nodes[1]->snapshot();
}

Node fresh_node(const Afe& afe, net::LoopbackTransport* link, size_t self) {
  return Node(&afe, node_config(self, kSeeds.master_seed), link);
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
// Batch-record codec: the kWalBatch payload and the kCatchUpBatch body
// ---------------------------------------------------------------------------

// A record written by EpochStore::append_batch before the codec was shared
// between the WAL and the rejoin path: the byte format must not move.
TEST(BatchRecordTest, ByteFormatMatchesPinnedRecord) {
  const std::vector<std::pair<u64, u64>> ids = {
      {1, 2}, {0x0102030405060708ull, 0xfffffffffffffffeull}, {42, 0}};
  const std::vector<u8> verdicts = {1, 0, 1};
  const std::vector<u8> pinned = from_hex(
      "03000000"
      "0100000000000000" "0200000000000000"
      "0807060504030201" "feffffffffffffff"
      "2a00000000000000" "0000000000000000"
      "03000000" "05");
  EXPECT_EQ(encode_batch_record(ids, verdicts), pinned);

  TempDir dir;
  store::EpochStore est(dir.path, store::FsyncPolicy::kOff);
  est.open_segment(0);
  est.append_batch(ids, verdicts);
  auto seg = store::read_segment(store::wal_segment_path(dir.path, 0));
  ASSERT_EQ(seg.records.size(), 1u);
  EXPECT_EQ(seg.records[0].type, store::kWalBatch);
  EXPECT_EQ(seg.records[0].payload, pinned);

  auto rec = decode_batch_record(pinned);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->ids, ids);
  EXPECT_EQ(rec->verdicts, verdicts);
}

// Hostile batch records, shaped like RestoreStateFuzzTest. The record has
// no redundancy of its own (the WAL frame's CRC and the catch-up frame's
// AEAD guard it), so a bit flip inside an id or a verdict bit decodes to
// a different, well-formed record; every other mutation must be refused.
TEST(BatchRecordFuzzTest, HostileRecordsAllRejectedWithoutUB) {
  std::mt19937_64 gen(20);
  const size_t n = 13;  // not a multiple of 8: the bitmap has padding bits
  std::vector<std::pair<u64, u64>> ids;
  std::vector<u8> verdicts;
  for (size_t i = 0; i < n; ++i) {
    ids.push_back({gen(), gen()});
    verdicts.push_back(static_cast<u8>(gen() & 1));
  }
  const std::vector<u8> good = encode_batch_record(ids, verdicts);
  {
    auto rec = decode_batch_record(good);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->ids, ids);
    EXPECT_EQ(rec->verdicts, verdicts);
  }

  for (size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(decode_batch_record(std::span<const u8>(good.data(), len)))
        << "truncated to " << len;
  }

  // Every single-bit flip. Flips in the count, the bitmap's length or a
  // padding bit are refused; any record the decoder accepts re-encodes to
  // exactly the bytes it was given.
  const size_t ids_end = 4 + 16 * n;
  const size_t bits_begin = ids_end + 4;
  for (size_t byte = 0; byte < good.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<u8> bad = good;
      bad[byte] ^= static_cast<u8>(1u << bit);
      const bool payload_bit =
          (byte >= 4 && byte < ids_end) ||
          (byte >= bits_begin && (byte - bits_begin) * 8 + bit < n);
      auto rec = decode_batch_record(bad);
      EXPECT_EQ(rec.has_value(), payload_bit)
          << "flip at " << byte << ":" << bit;
      if (rec) {
        EXPECT_EQ(encode_batch_record(rec->ids, rec->verdicts), bad);
      }
    }
  }

  // On disk the same flips never reach the decoder: the frame CRC drops
  // the record.
  {
    TempDir dir;
    store::EpochStore est(dir.path, store::FsyncPolicy::kOff);
    est.open_segment(0);
    est.append_batch(ids, verdicts);
    const std::string path = store::wal_segment_path(dir.path, 0);
    const std::vector<u8> framed = file_bytes(path);
    for (size_t byte = 0; byte < framed.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::vector<u8> bad = framed;
        bad[byte] ^= static_cast<u8>(1u << bit);
        write_file(path, bad);
        EXPECT_TRUE(store::read_segment(path).records.empty())
            << "flip at " << byte << ":" << bit;
      }
    }
  }

  auto header_only = [](u32 count, size_t id_pairs, u32 bitmap_count) {
    net::Writer w;
    w.u32_(count);
    for (size_t i = 0; i < id_pairs; ++i) {
      w.u64_(i);
      w.u64_(0);
    }
    w.bitmap(std::vector<u8>(bitmap_count, 1));
    return w.take();
  };
  // Count 0: an empty batch never commits.
  EXPECT_FALSE(decode_batch_record(header_only(0, 0, 0)));
  // One past the bound, with every byte the count claims present.
  {
    const u32 count = server::kMaxBatchRecord + 1;
    EXPECT_FALSE(decode_batch_record(header_only(count, count, count)));
  }
  // Counts past the remaining bytes.
  EXPECT_FALSE(decode_batch_record(header_only(5, 2, 5)));
  EXPECT_FALSE(decode_batch_record(header_only(0xffffffffu, 1, 1)));
  // One trailing byte.
  {
    std::vector<u8> bad = good;
    bad.push_back(0);
    EXPECT_FALSE(decode_batch_record(bad));
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
  // Batches of 8 fill a refresh window of 8, so every batch after the
  // first refreshes r and the replay must reproduce that schedule.
  auto nodes = make_nodes(afe, mesh, links, kSeeds.master_seed,
                          /*refresh_every=*/8);

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

  auto w1 = make_workload(afe, 8, kSeeds, 0);
  auto w2 = make_workload(afe, 8, kSeeds, 100);
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

  // Write node 2's WAL the way a shard lane does: every blob at intake,
  // then each committed batch's ids + verdicts.
  size_t b = 0;
  for (auto* w : {&w1, &w2}) {
    std::vector<std::pair<u64, u64>> ids;
    for (const auto& sub : w->subs) {
      const auto& blob = sub.blobs[2];
      const u64 seq = sealed_seq(blob);
      est.append_intake(sub.client_id, seq, blob);
      ids.push_back({sub.client_id, seq});
    }
    est.append_batch(std::span<const std::pair<u64, u64>>(ids),
                     std::span<const u8>(verdicts_by_batch[b]));
    ++b;
  }

  const std::vector<u8> want = nodes[2]->snapshot();
  nodes[2].reset();  // kill -9

  ServerNodeConfig cfg = node_config(2, kSeeds.master_seed);
  cfg.refresh_every = 8;
  auto revived_ptr = std::make_unique<Node>(&afe, cfg, &links[2]);
  auto rec = store::recover_node<F, Afe>(revived_ptr.get(), &afe, &est);
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_EQ(rec.batches_applied, 2u);
  EXPECT_EQ(rec.intake_records, 16u);
  EXPECT_TRUE(rec.buffer.empty());  // every logged blob was consumed
  EXPECT_EQ(rec.last_batch.ids.size(), 8u);
  EXPECT_EQ(revived_ptr->snapshot(), want);
  nodes[2] = std::move(revived_ptr);

  // The revived node keeps running live protocol batches and the mesh
  // publishes a coherent epoch.
  auto w3 = make_workload(afe, 8, kSeeds, 200);
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
  auto nodes = make_nodes(afe, mesh, links, kSeeds.master_seed);

  auto w1 = make_workload(afe, 8, kSeeds, 0);
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

// rotate() orders an epoch boundary as: carry-over synced into the new
// segment, then the snapshot published, then older segments pruned. A
// crash can leave two on-disk states besides a finished rotation; each is
// rebuilt here from a real rotate() by putting back what its later steps
// removed:
//   (a) carry-over synced, snapshot not published: segments 0 and 1, no
//       snapshot -- recovery replays both segments;
//   (b) snapshot published, prune not run: segments 0 and 1 plus
//       snapshot 1 -- recovery loads the snapshot and never reads
//       segment 0.
// Either way the acked blob no batch consumed comes back (its carry-over
// copy is in segment 1), the eight the epoch consumed do not (they would
// waste announced batch slots and shift the count-delimited epoch
// boundary), the node lands in epoch 1 bit-identical to the live one, and
// epoch 0 is reported as published.
void check_rotation_crash_window(bool snapshot_published) {
  Afe afe(6);
  TempDir dir;
  store::EpochStore est(dir.path, store::FsyncPolicy::kEpoch);

  net::LoopbackMesh mesh(kServers);
  std::vector<net::LoopbackTransport> links;
  auto nodes = make_nodes(afe, mesh, links, kSeeds.master_seed);

  auto w1 = make_workload(afe, 8, kSeeds, 0);
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

  const std::string seg0 = store::wal_segment_path(dir.path, 0);
  const std::vector<u8> seg0_bytes = file_bytes(seg0);
  std::vector<store::EpochStore::CarryOver> carry = {
      {888, 0, std::span<const u8>(leftover)}};
  est.rotate(1, nodes[0]->snapshot(),
             std::span<const store::EpochStore::CarryOver>(carry));
  ASSERT_EQ(store::list_wal_epochs(dir.path), (std::vector<u32>{1}));
  ASSERT_EQ(est.snapshots().list_epochs(), (std::vector<u32>{1}));
  write_file(seg0, seg0_bytes);  // the prune never ran
  if (!snapshot_published) {
    ::unlink((dir.path + "/" + store::SnapshotStore::file_name(1)).c_str());
  }

  Node revived = fresh_node(afe, &links[0], 0);
  auto rec = store::recover_node<F, Afe>(&revived, &afe, &est);
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_EQ(rec.used_snapshot, snapshot_published);
  EXPECT_EQ(rec.segments_replayed, snapshot_published ? 1u : 2u);
  EXPECT_EQ(revived.epoch(), 1u);
  EXPECT_EQ(revived.snapshot(), nodes[0]->snapshot());
  ASSERT_EQ(rec.buffer.size(), 1u);
  EXPECT_EQ(rec.buffer.at({888, 0}), leftover);
  ASSERT_EQ(rec.published.size(), 1u);
  EXPECT_EQ(rec.published.at(0).accepted, agg->accepted);
  EXPECT_EQ(rec.published.at(0).result, agg->result);
}

TEST(RecoveryTest, CrashAfterCarryOverBeforeSnapshotKeepsBufferedBlobs) {
  check_rotation_crash_window(/*snapshot_published=*/false);
}

TEST(RecoveryTest, CrashAfterSnapshotBeforePruneKeepsBufferedBlobs) {
  check_rotation_crash_window(/*snapshot_published=*/true);
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

// A short write of a gathered record, cut anywhere -- inside the 9-byte
// header, on its boundary, inside either payload piece, one byte short of
// whole, or asked for past the end (capped there) -- is cut back in
// place, so the next append lands on a clean record boundary and replay
// never meets the tear.
TEST(FaultInjectionTest, ShortWriteIsRepairedToACleanBoundary) {
  const std::vector<u8> fixed(20, 0xcd);
  const std::vector<u8> blob(40, 0xab);
  const std::span<const u8> pieces[] = {fixed, blob};
  const size_t rec_len = 9 + fixed.size() + blob.size();
  for (size_t cut : {size_t{1}, size_t{5}, size_t{8}, size_t{9}, size_t{15},
                     size_t{29}, size_t{40}, rec_len - 1, size_t{1000}}) {
    SCOPED_TRACE(cut);
    TempDir dir;
    const std::string path = store::wal_segment_path(dir.path, 0);
    store::WalWriter w(dir.path, 0, store::FsyncPolicy::kOff);
    w.append(store::kWalIntake, std::vector<u8>{1, 2, 3});
    const size_t clean = file_bytes(path).size();
    {
      ScopedFaultPlan guard("wal_append:short_write:bytes=" +
                            std::to_string(cut));
      EXPECT_THROW(w.append(store::kWalBatch, pieces), std::runtime_error);
    }
    EXPECT_EQ(file_bytes(path).size(), clean);
    w.append(store::kWalEpochClose, std::vector<u8>{9});
    w.append(store::kWalBatch, pieces);
    auto seg = store::read_segment(path);
    EXPECT_FALSE(seg.torn_tail);
    ASSERT_EQ(seg.records.size(), 3u);
    EXPECT_EQ(seg.records[0].type, store::kWalIntake);
    EXPECT_EQ(seg.records[1].type, store::kWalEpochClose);
    const std::vector<u8>& payload = seg.records[2].payload;
    ASSERT_EQ(payload.size(), fixed.size() + blob.size());
    EXPECT_TRUE(std::equal(fixed.begin(), fixed.end(), payload.begin()));
    EXPECT_TRUE(std::equal(blob.begin(), blob.end(),
                           payload.begin() + fixed.size()));
    EXPECT_EQ(seg.clean_bytes, clean + 9 + 1 + rec_len);
  }
}

// A failed intake append (EIO, or a short write repaired in place) logs
// nothing, so it must not use up the segment's intake budget either.
TEST(FaultInjectionTest, FailedIntakeAppendsChargeNoBudget) {
  for (const char* spec :
       {"wal_append:eio:count=3", "wal_append:short_write:count=3"}) {
    SCOPED_TRACE(spec);
    TempDir dir;
    store::EpochStore est(dir.path, store::FsyncPolicy::kOff);
    est.open_segment(0);
    const std::vector<u8> blob(100, 0x5a);
    ASSERT_TRUE(est.append_intake(1, 0, blob));
    const size_t charged = est.segment_intake_bytes();
    EXPECT_EQ(charged, 20 + blob.size());
    {
      ScopedFaultPlan guard(spec);
      for (u64 seq = 1; seq <= 3; ++seq) {
        EXPECT_THROW(est.append_intake(1, seq, blob), std::runtime_error);
      }
      EXPECT_EQ(guard.plan->fired(store::FaultOp::kWalAppend), 3u);
    }
    EXPECT_EQ(est.segment_intake_bytes(), charged);
    ASSERT_TRUE(est.append_intake(1, 4, blob));
    EXPECT_EQ(est.segment_intake_bytes(), 2 * charged);
    EXPECT_EQ(store::read_segment(store::wal_segment_path(dir.path, 0))
                  .records.size(),
              2u);
  }
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
  // The failed publish left the previous snapshot set intact.
  EXPECT_EQ(snaps.list_epochs(), (std::vector<u32>{0}));
  auto loaded = snaps.load_newest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 0u);
  EXPECT_EQ(loaded->bytes, old_bytes);
}

// Rotation under a failed sync -- every sync, or only the carry-over's
// (the second of the rotation): the new segment is opened and holds the
// carry-over, but no snapshot publish is even attempted and nothing is
// pruned on the strength of bytes that never verifiably reached the
// platter. The old segment's records (the only copies known durable) must
// still be there for recovery, which replays them because no snapshot
// claims to cover them.
TEST(FaultInjectionTest, RotateWithFailedSyncSkipsPrune) {
  for (const char* spec : {"wal_sync:eio:count=100", "wal_sync:eio:after=1"}) {
    SCOPED_TRACE(spec);
    TempDir dir;
    store::EpochStore est(dir.path, store::FsyncPolicy::kEpoch);
    est.open_segment(0);
    const std::vector<u8> blob(24, 0x11);
    est.append_intake(1, 0, blob);
    std::vector<store::EpochStore::CarryOver> carry = {
        {1, 0, std::span<const u8>(blob)}};
    {
      ScopedFaultPlan guard(spec);
      est.rotate(1, std::vector<u8>(16, 0x22),
                 std::span<const store::EpochStore::CarryOver>(carry));
      EXPECT_GE(guard.plan->fired(store::FaultOp::kWalSync), 1u);
      EXPECT_EQ(guard.plan->seen(store::FaultOp::kSnapshotWrite), 0u);
    }
    EXPECT_EQ(store::list_wal_epochs(dir.path), (std::vector<u32>{0, 1}));
    EXPECT_TRUE(est.snapshots().list_epochs().empty());
    for (u32 epoch : {0u, 1u}) {
      auto seg = store::read_segment(store::wal_segment_path(dir.path, epoch));
      EXPECT_FALSE(seg.torn_tail);
      ASSERT_EQ(seg.records.size(), 1u);
      EXPECT_EQ(seg.records[0].type, store::kWalIntake);
    }
  }
}

// ---------------------------------------------------------------------------
// Fsync-policy degradation window: what a power cut may cost under
// kEpoch / kOff -- and what it may never cost
// ---------------------------------------------------------------------------

// The documented trade: under kEpoch/kOff a POWER FAILURE may lose the
// un-fsynced suffix of the open epoch's WAL (kill -9 alone loses nothing;
// every append is a write(2) straight into the page cache). The contract
// this test pins down:
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
  auto w1 = make_workload(afe, 8, kSeeds, 0);
  auto w2 = make_workload(afe, 8, kSeeds, 100);

  // Oracle: the same two batches on a trio that never crashes.
  std::optional<Node::EpochAggregate> want;
  {
    net::LoopbackMesh mesh(kServers);
    std::vector<net::LoopbackTransport> links;
    auto nodes = make_nodes(afe, mesh, links, kSeeds.master_seed);
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
    auto nodes = make_nodes(afe, mesh, links, kSeeds.master_seed);
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
  auto nodes = make_nodes(afe, mesh, links, kSeeds.master_seed);
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
