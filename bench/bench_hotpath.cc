// Hot-path benchmark for the batch verification engine, with a
// machine-readable JSON trajectory.
//
// Measures, on one machine:
//  * the Lagrange-row inner product: scalar reference (poly/lagrange.h)
//    vs the lazy-reduction kernel (field/kernels.h);
//  * PRG share expansion: scalar expand_share_seed vs the bulk
//    expand_share_seed_into path;
//  * the SNIP round-1 local check: legacy snip_local_check (fresh
//    allocations per call) vs the SnipVerifier engine (reused scratch),
//    including heap allocations per check via a counting allocator;
//  * the end-to-end batched pipeline (process_batch) in subs/sec.
//
// Writes BENCH_hotpath.json (or --out <path>) so perf PRs accumulate a
// recorded trajectory; --smoke shrinks the workload for CI.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <thread>

#include "afe/bitvec_sum.h"
#include "bench_util.h"
#include "core/deployment.h"
#include "field/kernels.h"
#include "obs/metrics.h"
#include "poly/lagrange.h"
#include "server/node.h"
#include "server/protocol.h"

// ---------------------------------------------------------------------------
// Counting allocator: every operator new in this binary bumps a counter,
// so "allocations per submission" is an exact count, not an estimate.
// ---------------------------------------------------------------------------
namespace {
std::atomic<unsigned long long> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace prio {
namespace {

using F = Fp64;
using Afe = afe::BitVectorSum<F>;

unsigned long long allocs_during(const std::function<void()>& fn) {
  const unsigned long long before = g_allocs.load(std::memory_order_relaxed);
  fn();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

}  // namespace
}  // namespace prio

int main(int argc, char** argv) {
  using namespace prio;
  bool smoke = false;
  std::string out_path = "BENCH_hotpath.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
  }
  const bool full = benchutil::full_mode();

  const size_t kServers = 3;
  const size_t kLen = full ? 128 : 64;                    // submission bits
  const size_t kN = smoke ? 256 : (full ? 4096 : 1024);   // submissions
  const size_t kBatch = 64;                               // Q
  const int kReps = smoke ? 1 : 3;
  Afe afe(kLen);
  const Circuit<F>& circuit = afe.valid_circuit();
  SnipProver<F> prover(&circuit);
  const size_t ext_len = prover.layout().total_len();

  benchutil::header("SNIP hot path: scalar reference vs batch engine");
  std::printf("servers=%zu  len=%zu bits  ext_len=%zu  N=%zu  Q=%zu  hw=%u%s\n",
              kServers, kLen, ext_len, kN, kBatch,
              std::thread::hardware_concurrency(), smoke ? "  [smoke]" : "");

  benchutil::JsonWriter json;
  json.kv("bench", std::string("hotpath"));
  json.kv("field", std::string("Fp64"));
  json.kv("servers", static_cast<unsigned long long>(kServers));
  json.kv("submission_bits", static_cast<unsigned long long>(kLen));
  json.kv("ext_len", static_cast<unsigned long long>(ext_len));

  // ---- inner product: scalar reference vs lazy-reduction kernel --------
  {
    const size_t n = 4096;
    const size_t iters = smoke ? 500 : 4000;
    SecureRng rng(7);
    std::vector<F> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = rng.field_element<F>();
      b[i] = rng.field_element<F>();
    }
    F sink = F::zero();
    const double t_ref = benchutil::time_seconds([&] {
      for (size_t it = 0; it < iters; ++it) {
        sink += inner_product(a, std::span<const F>(b));
      }
    }, kReps);
    const double t_ker = benchutil::time_seconds([&] {
      for (size_t it = 0; it < iters; ++it) {
        sink += kernels::inner_product<F>(a, b);
      }
    }, kReps);
    require(!sink.is_zero(), "bench: inner products vanished");
    const double ref_ns = t_ref / (iters * n) * 1e9;
    const double ker_ns = t_ker / (iters * n) * 1e9;
    std::printf("\ninner_product (n=%zu):   scalar %6.2f ns/elem   kernel %6.2f"
                " ns/elem   (%.2fx)\n", n, ref_ns, ker_ns, ref_ns / ker_ns);
    json.kv("inner_product_scalar_ns_per_elem", ref_ns);
    json.kv("inner_product_kernel_ns_per_elem", ker_ns);
  }

  // ---- PRG expansion: per-element fill(8) vs bulk blocks ---------------
  {
    const size_t iters = smoke ? 200 : 2000;
    std::array<u8, 32> seed{};
    seed[0] = 42;
    std::vector<F> buf(ext_len);
    const double t_ref = benchutil::time_seconds([&] {
      for (size_t it = 0; it < iters; ++it) {
        auto v = expand_share_seed<F>(seed, ext_len);
        buf[0] += v[0];
      }
    }, kReps);
    const double t_bulk = benchutil::time_seconds([&] {
      for (size_t it = 0; it < iters; ++it) {
        expand_share_seed_into<F>(seed, std::span<F>(buf));
      }
    }, kReps);
    const double ref_rate = iters * ext_len / t_ref / 1e6;
    const double bulk_rate = iters * ext_len / t_bulk / 1e6;
    std::printf("prg expansion (len=%zu): scalar %6.1f Melem/s  bulk  %6.1f"
                " Melem/s   (%.2fx)\n", ext_len, ref_rate, bulk_rate,
                bulk_rate / ref_rate);
    json.kv("expand_scalar_melems_per_s", ref_rate);
    json.kv("expand_bulk_melems_per_s", bulk_rate);
  }

  // ---- round-1 local check: legacy vs engine ---------------------------
  {
    const size_t iters = smoke ? 500 : 5000;
    SecureRng rng(11);
    VerificationContext<F> ctx(&circuit, kServers, 99);
    std::vector<u8> bits(kLen, 1);
    std::vector<F> enc = afe.encode(bits);
    auto ext = prover.build_extended_input(enc, rng);
    auto shares = share_vector<F>(ext, kServers, rng);
    SnipVerifier<F> ver(&circuit);

    F sink = F::zero();
    unsigned long long legacy_allocs = 0, engine_allocs = 0;
    const double t_legacy = benchutil::time_seconds([&] {
      legacy_allocs = allocs_during([&] {
        for (size_t it = 0; it < iters; ++it) {
          auto st = snip_local_check(ctx, 0, std::span<const F>(shares[0]));
          sink += st.d_share;
        }
      }) / iters;
    }, kReps);
    const double t_engine = benchutil::time_seconds([&] {
      engine_allocs = allocs_during([&] {
        for (size_t it = 0; it < iters; ++it) {
          auto st = ver.local_check(ctx, 0, std::span<const F>(shares[0]));
          sink += st.d_share;
        }
      }) / iters;
    }, kReps);
    require(!sink.is_zero() || iters == 0, "bench: checks vanished");
    const double legacy_rate = iters / t_legacy;
    const double engine_rate = iters / t_engine;
    std::printf("local check:             legacy %6.0f /s (%llu allocs)   "
                "engine %6.0f /s (%llu allocs)   (%.2fx)\n",
                legacy_rate, legacy_allocs, engine_rate, engine_allocs,
                engine_rate / legacy_rate);
    json.kv("local_check_legacy_per_s", legacy_rate);
    json.kv("local_check_engine_per_s", engine_rate);
    json.kv("local_check_legacy_allocs", legacy_allocs);
    json.kv("local_check_engine_allocs", engine_allocs);
  }

  // ---- end-to-end batched pipeline ------------------------------------
  std::vector<Submission> subs;
  {
    PrioDeployment<F, Afe> client_side(&afe, {.num_servers = kServers});
    SecureRng rng(42);
    subs.reserve(kN);
    for (u64 cid = 0; cid < kN; ++cid) {
      std::vector<u8> bits(kLen, 0);
      bits[cid % kLen] = 1;
      subs.push_back({cid, client_side.client_upload(bits, cid, rng)});
    }
  }
  double batch_rate = 0, serial_rate = 0;
  {
    PrioDeployment<F, Afe> serial_dep(&afe, {.num_servers = kServers});
    const double t_serial = benchutil::time_seconds([&] {
      for (const auto& sub : subs) {
        serial_dep.process_submission(sub.client_id, sub.blobs);
      }
    }, 1);
    serial_rate = kN / t_serial;

    PrioDeployment<F, Afe> batch_dep(&afe, {.num_servers = kServers,
                                            .batch_threads = 1});
    const double t_batch = benchutil::time_seconds([&] {
      for (size_t off = 0; off < kN; off += kBatch) {
        const size_t q = std::min(kBatch, kN - off);
        batch_dep.process_batch(
            std::span<const Submission>(subs.data() + off, q));
      }
    }, 1);
    batch_rate = kN / t_batch;
    require(batch_dep.accepted() == kN, "bench: pipeline rejected inputs");

    std::printf("pipeline:                serial %6.0f subs/s   "
                "batch(Q=%zu) %6.0f subs/s   %.0f ns/sub\n",
                serial_rate, kBatch, batch_rate, 1e9 / batch_rate);
    json.kv("pipeline_serial_subs_per_s", serial_rate);
    json.kv("pipeline_batch_subs_per_s", batch_rate);
    json.kv("pipeline_batch_ns_per_sub", 1e9 / batch_rate);
  }

  // ---- node runtime across lanes ---------------------------------------
  // The compute shape of --shards N (server/shard.h): one thread per
  // (lane, server) running ServerNode::process_batch back to back over a
  // LoopbackMesh -- protocol-faithful rounds, no sockets -- across 1/2/4
  // lanes. One lane's compute overlaps another lane's mesh waits.
  {
    for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
      std::vector<std::vector<Submission>> split(shards);
      for (const auto& sub : subs) {
        split[server::shard_of(sub.client_id, shards)].push_back(sub);
      }
      // Fresh nodes per run (the replay floor would reject a re-run of
      // the same counters); best of two runs per config damps scheduler
      // noise, which dominates on small machines.
      auto run_config = [&](obs::Registry* reg = nullptr) {
        net::LoopbackMesh mesh(kServers, 60'000, shards);
        std::vector<std::unique_ptr<net::LoopbackTransport>> bases;
        for (size_t i = 0; i < kServers; ++i) {
          bases.push_back(std::make_unique<net::LoopbackTransport>(&mesh, i));
        }
        std::vector<std::unique_ptr<net::LaneTransport>> lane_views;
        std::vector<std::unique_ptr<ServerNode<F, Afe>>> nodes;
        for (size_t l = 0; l < shards; ++l) {
          for (size_t i = 0; i < kServers; ++i) {
            lane_views.push_back(
                std::make_unique<net::LaneTransport>(bases[i].get(), l));
            ServerNodeConfig cfg;
            cfg.num_servers = kServers;
            cfg.self = i;
            cfg.lane = l;
            cfg.batch_threads = 1;
            cfg.metrics = reg;
            nodes.push_back(std::make_unique<ServerNode<F, Afe>>(
                &afe, cfg, lane_views.back().get()));
          }
        }
        const double t = benchutil::time_seconds([&] {
          std::vector<std::thread> threads;
          threads.reserve(shards * kServers);
          for (size_t l = 0; l < shards; ++l) {
            for (size_t i = 0; i < kServers; ++i) {
              ServerNode<F, Afe>* node = nodes[l * kServers + i].get();
              const std::vector<Submission>* mine = &split[l];
              threads.emplace_back([node, mine, kBatch] {
                for (size_t off = 0; off < mine->size(); off += kBatch) {
                  const size_t q = std::min(kBatch, mine->size() - off);
                  node->process_batch(node_view(
                      std::span<const Submission>(mine->data() + off, q),
                      node->self()));
                }
              });
            }
          }
          for (auto& th : threads) th.join();
        }, 1);
        u64 accepted = 0;
        for (size_t l = 0; l < shards; ++l) {
          accepted += nodes[l * kServers]->accepted();
        }
        require(accepted == kN, "bench: node runtime rejected inputs");
        return kN / t;
      };
      const double rate = std::max(run_config(), run_config());
      std::printf("pipeline node s%zu:        %6.0f subs/s   (%.2fx batch)\n",
                  shards, rate, rate / batch_rate);
      json.kv("pipeline_node_s" + std::to_string(shards) + "_subs_per_s",
              rate);

      // ---- metrics overhead (src/obs/) ---------------------------------
      // Same two-lane run, uninstrumented vs with an attached
      // obs::Registry (stage histograms + verdict counters recording).
      // Run-to-run spread on a small host reaches tens of percent, far
      // above the effect, so this reports the median on/off ratio over
      // paired, interleaved runs (alternating which side goes first)
      // instead of gating on it.
      if (shards == 2) {
        constexpr int kPairs = 5;
        std::vector<double> off, on, ratio;
        for (int p = 0; p < kPairs; ++p) {
          obs::Registry reg;
          double off_rate = 0, on_rate = 0;
          if (p % 2 == 0) {
            off_rate = run_config();
            on_rate = run_config(&reg);
          } else {
            on_rate = run_config(&reg);
            off_rate = run_config();
          }
          off.push_back(off_rate);
          on.push_back(on_rate);
          ratio.push_back(on_rate / off_rate);
        }
        auto median = [](std::vector<double> v) {
          std::sort(v.begin(), v.end());
          return v[v.size() / 2];
        };
        const double overhead = 1.0 - median(ratio);
        std::printf("metrics overhead s2:     off %6.0f subs/s   on %6.0f"
                    " subs/s   (median of %d pairs: %+.2f%%)\n",
                    median(off), median(on), kPairs, overhead * 100.0);
        json.kv("metrics_off_subs_per_s", median(off));
        json.kv("metrics_on_subs_per_s", median(on));
        json.kv("metrics_overhead_frac", overhead);
        json.kv("metrics_overhead_pairs",
                static_cast<unsigned long long>(kPairs));
      }
    }
  }

  std::string payload = json.finish();
  if (FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fwrite(payload.data(), 1, payload.size(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}
