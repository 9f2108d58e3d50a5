// Hot-path kernel benchmark for the verification engine, with a
// machine-readable JSON trajectory.
//
// Measures, on one machine:
//  * the Lagrange-row inner product: scalar reference (poly/lagrange.h)
//    vs the lazy-reduction kernel (field/kernels.h);
//  * PRG share expansion: scalar expand_share_seed vs the bulk
//    expand_share_seed_into path, plus the bulk path and Aead::open at a
//    fixed 41 KiB share (5,120 Fp64), both on the ChaCha20 core this CPU
//    runs (recorded as chacha_core), and the two non-keystream parts of
//    opening that share: its Poly1305 tag, on the Poly1305 core this CPU
//    runs (recorded as poly1305_core), and its element decode;
//  * the SNIP round-1 local check: legacy snip_local_check (fresh
//    allocations per call) vs the SnipVerifier engine (reused scratch),
//    including heap allocations per check via a counting allocator, on
//    the 64-bit circuit and on bulk's 1,024-bit one, plus the refresh of
//    r that composes the engine's rows for bulk's circuit.
//    Exits 1 if the engine allocates at all once warmed up;
//  * the client's prover on bulk's circuit: one size-2048 forward NTT on
//    0/1 and on uniform input (the reference transform), one size-2048
//    fused coset transform on the kernel this CPU runs (recorded as
//    ntt_core), one whole proof, and a Welch t statistic over proof times
//    on all-zero against random-bit input (printed, not gated);
//  * the client's share-and-seal of one bulk proof: seal_shared_vector on
//    its 4,099-element extended input at three servers.
//
// End-to-end throughput is e2e_bench's job (real prio_server processes).
// Writes BENCH_hotpath.json (or --out <path>); --smoke shrinks the
// workload for CI and ctest.

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "afe/bitvec_sum.h"
#include "bench_util.h"
#include "core/submission.h"
#include "crypto/aead.h"
#include "crypto/chacha20.h"
#include "crypto/poly1305.h"
#include "field/kernels.h"
#include "poly/lagrange.h"
#include "poly/ntt.h"
#include "snip/snip.h"

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

// Sums every computed field of a local state, so the optimizer cannot drop
// the inner products whose results a timed loop would otherwise ignore.
F check_sum(const SnipLocalState<F>& st) {
  return st.f_r + st.g_r + st.h_r + st.out_combo;
}

unsigned long long allocs_during(const std::function<void()>& fn) {
  const unsigned long long before = g_allocs.load(std::memory_order_relaxed);
  fn();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

// Welch's t statistic for the difference of two samples' means.
double welch_t(const std::vector<double>& a, const std::vector<double>& b) {
  auto mean_var = [](const std::vector<double>& v) {
    double mean = 0;
    for (double x : v) mean += x;
    mean /= static_cast<double>(v.size());
    double var = 0;
    for (double x : v) var += (x - mean) * (x - mean);
    return std::pair{mean, var / static_cast<double>(v.size() - 1)};
  };
  const auto [ma, va] = mean_var(a);
  const auto [mb, vb] = mean_var(b);
  return (ma - mb) / std::sqrt(va / static_cast<double>(a.size()) +
                               vb / static_cast<double>(b.size()));
}

}  // namespace
}  // namespace prio

int main(int argc, char** argv) {
  using namespace prio;
  const auto [smoke, out_path] =
      benchutil::parse_args(argc, argv, "BENCH_hotpath.json");
  const bool full = benchutil::full_mode();

  const size_t kServers = 3;
  const size_t kLen = full ? 128 : 64;  // submission bits
  const int kReps = smoke ? 1 : 3;
  Afe afe(kLen);
  const Circuit<F>& circuit = afe.valid_circuit();
  SnipProver<F> prover(&circuit);
  const size_t ext_len = prover.layout().total_len();

  benchutil::header("SNIP hot path: scalar reference vs batch engine");
  std::printf("servers=%zu  len=%zu bits  ext_len=%zu%s\n", kServers, kLen,
              ext_len, smoke ? "  [smoke]" : "");

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

  // ---- 41 KiB share: bulk expansion, AEAD open and its parts -----------
  // The two keystream-bound steps of prepare: s0/s1 expand a seed share,
  // s2 opens the sealed explicit share. Two parts of s2's work are timed
  // on their own: the Poly1305 tag over a 40,965 B explicit share and the
  // decode of its 5,120 elements. The size is fixed so these rows compare
  // across commits; it was e2e_bench's bulk share while the proof shipped
  // all 2N points of h (bulk's share is now 4,099 elements, 32,797 B).
  {
    const size_t kBulkLen = 5120;
    const size_t iters = smoke ? 20 : 2000;
    std::array<u8, 32> seed{};
    seed[0] = 7;
    std::vector<F> buf(kBulkLen);
    const double t_expand = benchutil::time_seconds([&] {
      for (size_t it = 0; it < iters; ++it) {
        seed[1] = static_cast<u8>(it);
        expand_share_seed_into<F>(seed, std::span<F>(buf));
      }
    }, kReps);
    const std::array<u8, Aead::kKeyLen> key{7};
    const std::array<u8, Aead::kNonceLen> nonce{};
    const std::vector<u8> sealed =
        Aead::seal(key, nonce, {}, std::vector<u8>(kBulkLen * F::kByteLen, 1));
    size_t opened = 0;
    const double t_open = benchutil::time_seconds([&] {
      for (size_t it = 0; it < iters; ++it) {
        opened += Aead::open(key, nonce, {}, sealed).value().size();
      }
    }, kReps);
    // The explicit share exactly as seal_shared_vector frames it.
    SecureRng rng(9);
    std::vector<F> elems(kBulkLen);
    for (auto& e : elems) e = rng.field_element<F>();
    net::Writer w;
    w.u8_(kShareExplicit);
    w.field_vector<F>(std::span<const F>(elems));
    const std::vector<u8> payload = w.take();
    size_t tag_bits = 0;
    const double t_poly = benchutil::time_seconds([&] {
      for (size_t it = 0; it < iters; ++it) {
        tag_bits |= Poly1305::mac(std::span<const u8>(key), payload)[it % 16];
      }
    }, kReps);
    size_t decoded = 0;
    const double t_decode = benchutil::time_seconds([&] {
      for (size_t it = 0; it < iters; ++it) {
        net::Reader r(payload);
        r.u8_();
        r.u32_();
        r.fields_into<F>(std::span<F>(buf));
        decoded += r.ok() && r.at_end();
      }
    }, kReps);
    require(opened > 0 && !buf[0].is_zero() && tag_bits != 0 && decoded > 0,
            "bench: 41 KiB work vanished");
    const double expand_us = t_expand / iters * 1e6;
    const double open_us = t_open / iters * 1e6;
    const double poly_us = t_poly / iters * 1e6;
    const double decode_us = t_decode / iters * 1e6;
    std::printf("41 KiB share (len=%zu):  expand %6.1f us   aead open %6.1f us"
                "   (chacha20 core %s)\n", kBulkLen, expand_us, open_us,
                ChaCha20::core_name());
    std::printf("  of which:  poly1305 %6.1f us   decode %6.1f us"
                "   (poly1305 core %s)\n", poly_us, decode_us,
                Poly1305::core_name());
    json.kv("expand_41k_us", expand_us);
    json.kv("aead_open_41k_us", open_us);
    json.kv("poly1305_41k_us", poly_us);
    json.kv("decode_41k_us", decode_us);
    json.kv("chacha_core", std::string(ChaCha20::core_name()));
    json.kv("poly1305_core", std::string(Poly1305::core_name()));
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

    // The engine sizes its scratch on first use; that one call is outside
    // the counted span, every timed call after it must allocate nothing.
    F sink = check_sum(ver.local_check(ctx, 0, std::span<const F>(shares[0])));
    unsigned long long legacy_allocs = 0, engine_allocs = 0;
    const double t_legacy = benchutil::time_seconds([&] {
      legacy_allocs += allocs_during([&] {
        for (size_t it = 0; it < iters; ++it) {
          sink += check_sum(
              snip_local_check(ctx, 0, std::span<const F>(shares[0])));
        }
      });
    }, kReps);
    const double t_engine = benchutil::time_seconds([&] {
      engine_allocs += allocs_during([&] {
        for (size_t it = 0; it < iters; ++it) {
          sink += check_sum(
              ver.local_check(ctx, 0, std::span<const F>(shares[0])));
        }
      });
    }, kReps);
    require(!sink.is_zero(), "bench: checks vanished");
    const size_t calls = iters * kReps;
    const double legacy_rate = iters / t_legacy;
    const double engine_rate = iters / t_engine;
    std::printf("local check:             legacy %6.0f /s (%llu allocs/call)"
                "   engine %6.0f /s (%llu allocs in %zu calls)   (%.2fx)\n",
                legacy_rate, legacy_allocs / calls, engine_rate,
                engine_allocs, calls, engine_rate / legacy_rate);
    if (engine_allocs != 0) {
      std::fprintf(stderr,
                   "bench_hotpath: SnipVerifier::local_check made %llu heap "
                   "allocations in %zu warmed-up calls; it must make none\n",
                   engine_allocs, calls);
      return 1;
    }
    json.kv("local_check_legacy_per_s", legacy_rate);
    json.kv("local_check_engine_per_s", engine_rate);
    json.kv("local_check_legacy_allocs", legacy_allocs / calls);
    json.kv("local_check_engine_allocs", engine_allocs);
  }

  // ---- bulk's circuit: local check and the refresh that composes it ----
  // e2e_bench's bulk workload verifies bitvec_sum:len=1024 (4,096 gates,
  // ext_len 5,125): the engine's four inner products against the
  // reference's wire-by-wire evaluation, and one refresh of r (Lagrange
  // rows plus their composition with the circuit).
  {
    const size_t kBulkBits = 1024;
    const size_t iters = smoke ? 20 : 2000;
    const size_t refresh_iters = smoke ? 2 : 100;
    Afe bulk_afe(kBulkBits);
    const Circuit<F>& bulk = bulk_afe.valid_circuit();
    SnipProver<F> bulk_prover(&bulk);
    SecureRng rng(13);
    VerificationContext<F> ctx(&bulk, kServers, 98);
    auto ext = bulk_prover.build_extended_input(
        bulk_afe.encode(std::vector<u8>(kBulkBits, 1)), rng);
    auto shares = share_vector<F>(ext, kServers, rng);
    const std::span<const F> share(shares[0]);
    SnipVerifier<F> ver(&bulk);

    F sink = check_sum(ver.local_check(ctx, 0, share));
    unsigned long long engine_allocs = 0;
    const double t_engine = benchutil::time_seconds([&] {
      engine_allocs += allocs_during([&] {
        for (size_t it = 0; it < iters; ++it) {
            sink += check_sum(ver.local_check(ctx, 0, share));
        }
      });
    }, kReps);
    const double t_ref = benchutil::time_seconds([&] {
      for (size_t it = 0; it < iters; ++it) {
        sink += check_sum(snip_local_check(ctx, 0, share));
      }
    }, kReps);
    const double t_refresh = benchutil::time_seconds([&] {
      for (size_t it = 0; it < refresh_iters; ++it) ctx.refresh();
    }, kReps);
    require(!sink.is_zero(), "bench: bulk checks vanished");
    const double engine_us = t_engine / iters * 1e6;
    const double ref_us = t_ref / iters * 1e6;
    const double refresh_us = t_refresh / refresh_iters * 1e6;
    std::printf("local check, bulk (len=%zu): reference %6.1f us   engine"
                " %6.2f us   (%.1fx)   refresh %6.0f us\n", kBulkBits, ref_us,
                engine_us, ref_us / engine_us, refresh_us);
    if (engine_allocs != 0) {
      std::fprintf(stderr,
                   "bench_hotpath: SnipVerifier::local_check made %llu heap "
                   "allocations on bulk's circuit; it must make none\n",
                   engine_allocs);
      return 1;
    }
    json.kv("local_check_bulk_us", engine_us);
    json.kv("local_check_bulk_reference_us", ref_us);
    json.kv("refresh_bulk_us", refresh_us);
  }

  // ---- bulk's prover: its NTT, one proof, and a timing-channel print ---
  // The client side of bulk. SnipProver runs two size-2048 fused coset
  // transforms (NttDomain::coset_from_evals), whose inverse half sees the
  // raw 0/1 encoding. The reference forward transform is timed on 0/1 and
  // on uniform input (each call copies the input in first); with no
  // data-dependent branch in the field arithmetic the two times agree.
  // The fused transform is timed once, on 0/1 input, on the kernel the
  // prover runs here.
  // The Welch t statistic compares per-call proof times on an all-zero
  // input with those on fresh random bits, the two classes interleaved in
  // random order (Reparaz, Balasch and Verbauwhede, "Dude, is my code
  // constant time?", DATE 2017; |t| > 4.5 is their leak threshold). It is
  // printed, never gated: timings on a shared host are too noisy.
  {
    const size_t kBulkBits = 1024;
    Afe bulk_afe(kBulkBits);
    SnipProver<F> bulk_prover(&bulk_afe.valid_circuit());
    const size_t n = bulk_prover.layout().n;
    const NttDomain<F> dom(n);
    SecureRng rng(17);
    auto random_bits = [&] {
      std::vector<u8> bits(kBulkBits);
      for (u8& b : bits) b = static_cast<u8>(rng.next_u64() & 1);
      return bulk_afe.encode(bits);
    };
    std::vector<F> bits_in(n), random_in(n), buf(n);
    for (size_t i = 0; i < n; ++i) {
      bits_in[i] = F::from_u64(rng.next_u64() & 1);
      random_in[i] = rng.field_element<F>();
    }
    const size_t ntt_iters = smoke ? 20 : 2000;
    auto ntt_us = [&](const std::vector<F>& in) {
      return benchutil::time_seconds([&] {
        for (size_t it = 0; it < ntt_iters; ++it) {
          std::copy(in.begin(), in.end(), buf.begin());
          dom.forward(buf);
        }
      }, kReps) / ntt_iters * 1e6;
    };
    const double ntt_bits_us = ntt_us(bits_in);
    const double ntt_random_us = ntt_us(random_in);
    const double coset_us = benchutil::time_seconds([&] {
      for (size_t it = 0; it < ntt_iters; ++it) {
        std::copy(bits_in.begin(), bits_in.end(), buf.begin());
        dom.coset_from_evals(buf);
      }
    }, kReps) / ntt_iters * 1e6;

    const size_t prove_iters = smoke ? 5 : 500;
    const std::vector<F> x_random = random_bits();
    F sink = buf[0];
    const double prove_us = benchutil::time_seconds([&] {
      for (size_t it = 0; it < prove_iters; ++it) {
        sink += bulk_prover.build_extended_input(x_random, rng).back();
      }
    }, kReps) / prove_iters * 1e6;

    const size_t samples = smoke ? 20 : 1000;
    const std::vector<F> x_zero = bulk_afe.encode(std::vector<u8>(kBulkBits, 0));
    std::vector<double> times[2];
    for (size_t s = 0; s < samples; ++s) {
      const std::vector<F> x_bits = random_bits();
      const int first = static_cast<int>(rng.next_u64() & 1);
      for (int c : {first, 1 - first}) {
        const std::vector<F>& x = c == 0 ? x_zero : x_bits;
        const auto start = std::chrono::steady_clock::now();
        sink += bulk_prover.build_extended_input(x, rng).back();
        times[c].push_back(std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - start)
                               .count());
      }
    }
    const double t = welch_t(times[0], times[1]);
    require(!sink.is_zero(), "bench: proofs vanished");
    std::printf("prover, bulk (len=%zu): %zu-point NTT  0/1 input %6.1f us"
                "   uniform input %6.1f us   proof %6.0f us\n", kBulkBits, n,
                ntt_bits_us, ntt_random_us, prove_us);
    std::printf("  fused coset transform %6.1f us   (ntt core %s)\n", coset_us,
                NttDomain<F>::coset_core_name());
    std::printf("  timing channel (printed, not gated): Welch t = %+.2f,"
                " all-zero vs random-bit input, %zu calls each\n", t,
                samples);
    json.kv("ntt_bulk_bits_us", ntt_bits_us);
    json.kv("ntt_bulk_random_us", ntt_random_us);
    json.kv("coset_bulk_us", coset_us);
    json.kv("ntt_core", std::string(NttDomain<F>::coset_core_name()));
    json.kv("prove_bulk_us", prove_us);
    json.kv("prove_bulk_welch_t", t);
  }

  // ---- bulk's seal: share and seal one proof's extended input ----------
  // The rest of a bulk upload after the proof: two PRG seed shares and the
  // explicit share, x minus both expansions, encoded into its 32,821 B
  // blob and sealed there (ChaCha20 and Poly1305 over 32,797 B).
  {
    const size_t kBulkBits = 1024;
    Afe bulk_afe(kBulkBits);
    SnipProver<F> bulk_prover(&bulk_afe.valid_circuit());
    SecureRng rng(19);
    const std::vector<F> ext = bulk_prover.build_extended_input(
        bulk_afe.encode(std::vector<u8>(kBulkBits, 1)), rng);
    const SubmissionSealer sealer(master_seed_bytes(3));
    const size_t iters = smoke ? 20 : 2000;
    size_t sealed = 0;
    u64 seq = 0;
    const double seal_us = benchutil::time_seconds([&] {
      for (size_t it = 0; it < iters; ++it) {
        sealed += seal_shared_vector<F>(sealer, std::span<const F>(ext),
                                        kServers, /*client_id=*/1, seq++, rng)
                      .back()
                      .size();
      }
    }, kReps) / iters * 1e6;
    require(sealed > 0, "bench: seals vanished");
    std::printf("seal, bulk (ext_len=%zu, %zu servers): %6.1f us\n",
                ext.size(), kServers, seal_us);
    json.kv("seal_bulk_us", seal_us);
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
