// Durable store bench: WAL append throughput (submissions/second) per
// fsync policy, plus snapshot publication latency -- the numbers an
// operator needs to pick --fsync for a deployment (see README "Durability
// & crash recovery"). Two rows time the record e2e_bench's steady workload
// logs on the server holding explicit shares (linreg:bits=14,dims=8):
// the CRC-32 of 5,750 bytes on the core this CPU runs (crc_core) and one
// fsync=epoch append of that record. Writes BENCH_store.json (or --out
// <path>) so CI accumulates the trajectory next to BENCH_hotpath.json;
// --smoke shrinks the workload for the CI leg.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <algorithm>

#include "afe/bitvec_sum.h"
#include "afe/linreg.h"
#include "bench_util.h"
#include "core/client.h"
#include "crypto/rng.h"
#include "net/wire.h"
#include "store/recovery.h"
#include "store/snapshot.h"
#include "store/wal.h"

namespace prio {
namespace {

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/prio_bench_store_XXXXXX";
    char* got = ::mkdtemp(tmpl);
    if (got == nullptr) {
      std::fprintf(stderr, "bench_store: mkdtemp failed (is /tmp writable?)\n");
      std::exit(1);
    }
    path = got;
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

}  // namespace
}  // namespace prio

int main(int argc, char** argv) {
  using namespace prio;
  using F = Fp64;
  using Afe = afe::BitVectorSum<F>;

  const auto [smoke, out_path] =
      benchutil::parse_args(argc, argv, "BENCH_store.json");
  const bool full = benchutil::full_mode();

  // A representative sealed submission blob: one server's share of a
  // 64-bit bit-vector upload (seq prefix + AEAD-sealed PRG seed), the
  // dominant record the intake WAL carries.
  const size_t kLen = 64;
  Afe afe(kLen);
  PrioClient<F, Afe> encoder(&afe, /*servers=*/3, /*master_seed=*/1);
  SecureRng rng(42);
  std::vector<u8> bits(kLen, 1);
  auto blobs = encoder.upload(bits, /*client_id=*/7, rng);
  const std::vector<u8>& blob = blobs[0];

  const size_t kAppends = smoke ? 2'000 : (full ? 200'000 : 50'000);
  std::printf("== bench_store: WAL append throughput ==\n");
  std::printf("blob bytes: %zu, appends per policy: %zu%s\n\n", blob.size(),
              kAppends, smoke ? "  [smoke]" : "");

  benchutil::JsonWriter json;
  json.kv("bench", std::string("store"));
  json.kv("blob_bytes", static_cast<unsigned long long>(blob.size()));
  json.kv("appends", static_cast<unsigned long long>(kAppends));

  for (store::FsyncPolicy policy :
       {store::FsyncPolicy::kOff, store::FsyncPolicy::kEpoch,
        store::FsyncPolicy::kAlways}) {
    // fsync-per-append is orders of magnitude slower; trim its volume so
    // the bench stays inside CI budgets while still measuring the policy.
    const size_t n = policy == store::FsyncPolicy::kAlways
                         ? std::min<size_t>(kAppends, smoke ? 200 : 2'000)
                         : kAppends;
    TempDir dir;
    store::EpochStore est(dir.path, policy);
    est.open_segment(0);
    const double secs = benchutil::time_seconds(
        [&] {
          for (size_t i = 0; i < n; ++i) {
            est.append_intake(/*client_id=*/i, /*seq=*/0, blob);
          }
          est.rotate(1, std::vector<u8>(64, 0));  // epoch-boundary sync
        },
        /*repeats=*/1);
    const double rate = static_cast<double>(n) / secs;
    std::printf("  fsync=%-7s %12.0f appends/s  (%zu appends in %.3fs)\n",
                store::fsync_policy_name(policy), rate, n, secs);
    json.kv(std::string("wal_appends_per_s_fsync_") +
                store::fsync_policy_name(policy),
            rate);
  }

  // Snapshot publication: the epoch-boundary write-temp, fsync, rename,
  // fsync-dir sequence for a state blob the size a busy server might hold
  // (accumulator + ~64k replay floors ~= 1 MiB). A failed publish is not
  // a timing: the bench fails instead.
  {
    TempDir dir;
    store::SnapshotStore snaps(dir.path);
    std::vector<u8> state(1 << 20, 0x5a);
    const int reps = smoke ? 5 : 50;
    int failed_epoch = -1;
    const double secs = benchutil::time_seconds(
        [&] {
          for (int i = 0; i < reps && failed_epoch < 0; ++i) {
            if (!snaps.write(static_cast<u32>(i), state)) failed_epoch = i;
          }
        },
        /*repeats=*/1);
    if (failed_epoch >= 0) {
      std::fprintf(stderr, "bench_store: snapshot publish failed at epoch %d\n",
                   failed_epoch);
      return 1;
    }
    const double ms = 1e3 * secs / reps;
    std::printf("  snapshot publish (1 MiB): %.2f ms\n", ms);
    json.kv("snapshot_publish_1mib_ms", ms);
  }

  // steady's explicit share: server 2's blob of a linreg:bits=14,dims=8
  // upload, the largest record an intake WAL carries in e2e_bench.
  {
    afe::LinearRegression<F> linreg(/*d=*/8, /*bits=*/14);
    PrioClient<F, afe::LinearRegression<F>> lr_encoder(&linreg, 3, 1);
    const auto lr_blobs = lr_encoder.upload(
        {std::vector<u64>(8, 1000), 2000}, /*client_id=*/7, rng);
    const std::vector<u8>& explicit_blob = lr_blobs.back();

    const size_t kCrcBytes = 5'750;
    std::vector<u8> crc_buf(kCrcBytes);
    for (size_t i = 0; i < crc_buf.size(); ++i) {
      crc_buf[i] = static_cast<u8>(i * 131 + 7);
    }
    const int crc_reps = smoke ? 2'000 : 50'000;
    u32 sink = 0;
    const double crc_secs = benchutil::time_seconds([&] {
      for (int i = 0; i < crc_reps; ++i) sink = store::crc32(crc_buf, sink);
    });
    const double crc_us = 1e6 * crc_secs / crc_reps;

    const size_t n = smoke ? 500 : 10'000;
    TempDir dir;
    store::EpochStore est(dir.path, store::FsyncPolicy::kEpoch);
    est.open_segment(0);
    const double append_secs = benchutil::time_seconds(
        [&] {
          for (size_t i = 0; i < n; ++i) {
            est.append_intake(/*client_id=*/i, /*seq=*/0, explicit_blob);
          }
        },
        /*repeats=*/1);
    const double append_us = 1e6 * append_secs / n;

    std::printf("  crc32 (%s core) of %zu B: %.3f us  [sink %08x]\n",
                store::crc32_core_name(), kCrcBytes, crc_us, sink);
    std::printf(
        "  fsync=epoch append of a %zu B explicit-share blob: %.2f us\n",
        explicit_blob.size(), append_us);
    json.kv("crc_core", std::string(store::crc32_core_name()));
    json.kv("explicit_blob_bytes",
            static_cast<unsigned long long>(explicit_blob.size()));
    json.kv("crc32_5750b_us", crc_us);
    json.kv("wal_append_explicit_us", append_us);
  }

  std::FILE* f = std::fopen(out_path.c_str(), "wb");
  if (f != nullptr) {
    const std::string text = json.finish();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", out_path.c_str());
  }
  return 0;
}
