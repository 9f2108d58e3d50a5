// bench_e2e: end-to-end benchmark of the multi-process runtime -- three real
// prio_server processes driven by one generator process -- with a
// per-layer breakdown read from the servers' own /metrics.
//
// One run pre-encodes a seeded workload once (PrioClient::upload on nproc
// threads, before any server starts), then repeats ROUNDS until --seconds
// of measurement have elapsed. A round spawns a fresh 3-server cluster,
// waits until all three answer /stats.json (setup), drives every
// pre-encoded submission through it, reads the published aggregates, and
// tears the cluster down. Fresh servers have fresh replay floors, so the
// same sealed bytes are valid in every round; this keeps memory and
// encoding time bounded while the measured window grows with --seconds.
// End-to-end metrics are medians over rounds (timings pooled over rounds
// for percentiles); setup_s is a mean over set-ups (see run()). The
// CPU-bound ones are scaled to a reference host speed measured by
// HostProbe between rounds (see end_to_end()).
//
// Generator shape: one sender thread per server connection (3) plus the
// main thread, which fetches aggregates and scrapes metrics -- 4 threads.
// Each connection keeps at most kWindow submissions outstanding.
//
// Workloads (every one mixes in 4% ciphertext-tampered submissions and 4%
// with a valid ciphertext but an invalid proof):
//   bulk    bitvec_sum:len=1024, 2 shards, closed loop at epoch
//           granularity (epoch e+2 is released once epoch e is published).
//           The paper's survey workload (Fig. 5): CPU-bound; prepare is
//           about half of lane time and the largest stage on s2 (the
//           explicit-share server), while on s0/s1 the rounds, mostly
//           waiting on peers, take somewhat longer.
//   small   bitvec_sum:len=32, 1 shard, same closed loop. Telemetry-sized
//           inputs: batch round trips, intake and epoch turnover dominate,
//           so a gain in prepare shows on bulk and not here, and a gain in
//           the rounds shows here first.
//   steady  linreg:dims=8,bits=14 (Fig. 8), 2 shards, a --data-dir per
//           server with the default fsync policy, open-loop Poisson at
//           6,000/s. The only durable and paced workload: the WAL sits in
//           the ack path and latency is measured at partial load.
//
// The closed loop's epoch backpressure is required, not a tuning choice:
// each shard's intake buffer holds at most max_buffered blobs and evicts
// the oldest beyond that, and a count-delimited epoch whose blob was
// evicted never fills.
//
// Layers are measured from outside only: this file times its own calls
// into public interfaces (PrioClient::upload, the kClientSubmit ->
// kSubmitAck and kGetAggregate client protocol), reads /proc/<pid>, and
// scrapes the servers' always-on /metrics.
//
// Correctness oracle, independent of snip/ and server/: per round, the sum
// of the published sigma vectors must equal the field sum of afe.encode()
// over the honest inputs, and the published accepted total must equal the
// honest count. Every server's verify-reject counter must equal the
// planted rejects, with no batch aborts and no intake rejects.
//
// Usage:
//   bench_e2e --workload bulk|small|steady [--seed N] [--seconds S]
//             [--trace] [--smoke] [--out BENCH_e2e.json]
//             [--trace-out BENCH_e2e_trace.jsonl] [--server-bin PATH]
//             [--work-dir DIR] [--server-args key=value,...]
//
// --trace alternates untraced and traced rounds. Traced rounds run the
// servers with --trace-log, scrape every server's /metrics every 250 ms,
// keep spans in memory (run, client.upload, router.submit per server,
// router.aggregate per epoch) and merge everything into --trace-out on
// system-clock microseconds; the per-layer metrics come from the traced
// rounds and trace.overhead_frac compares their throughput with the
// untraced rounds'. Without --trace only end-to-end metrics are reported.
//
// --server-args passes extra flags to every server ("pipeline-depth=2"
// becomes "--pipeline-depth 2"). It exists for exploration only, is echoed
// into the output, and scored runs never set it.
//
// Ports come from 11000-18999, probed before use (a successful connect
// means busy), the discipline of tests/e2e_common.sh.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "afe/registry.h"
#include "core/client.h"
#include "net/tcp_transport.h"
#include "obs/stats_server.h"
#include "server/cli.h"
#include "server/protocol.h"

extern char** environ;

using namespace prio;

namespace {

using F = Fp64;

constexpr size_t kServers = 3;
constexpr size_t kWindow = 64;  // outstanding submissions per connection
constexpr size_t kBatch = 64;   // prio_server's default --batch
constexpr int kPortLo = 11000;
constexpr int kPortSpan = 8000 - 300;  // base + 2xx must stay below 19000
constexpr double kPlantFrac = 0.04;    // tampered, and again bad-proof
constexpr u64 kScrapeEveryNs = 250'000'000;
constexpr size_t kMinSetups = 40;
constexpr double kEncodeShare = 0.04;
constexpr u64 kEncodeMinNs = 20'000'000;
constexpr double kProbeRefUs = 20.0;  // HostProbe unit at the reference speed

struct Workload {
  const char* name;
  const char* afe;    // canonical AFE spec
  size_t shards;
  size_t epoch_size;  // submissions per epoch
  size_t epochs;      // epochs per round
  double rate;        // open-loop Poisson rate (subs/s); 0 = closed loop
  bool durable;       // per-server --data-dir, default fsync policy
};

// A round holds only a few epochs, so its pre-encoded frames stay within a
// few hundred MB (bulk: 15,000 x 41 KB); a run repeats rounds instead of
// growing them. Three bulk epochs are the fewest that exercise the e+2
// release rule.
constexpr Workload kWorkloads[] = {
    {"bulk", "bitvec_sum:len=1024", 2, 5000, 3, 0, false},
    {"small", "bitvec_sum:len=32", 1, 10000, 8, 0, false},
    {"steady", "linreg:bits=14,dims=8", 2, 3000, 10, 6000, true},
};

u64 now_ns() { return obs::now_ns(); }

// Offset from the steady clock to system-clock microseconds, for the
// merged trace (server trace logs stamp system-clock microseconds).
i64 system_offset_us() {
  const i64 sys = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::system_clock::now().time_since_epoch())
                      .count();
  return sys - static_cast<i64>(now_ns() / 1000);
}

// splitmix64: afe::sample_mix is its output function.
struct SplitMix {
  u64 s;
  u64 next() {
    const u64 x = s;
    s += 0x9e3779b97f4a7c15ull;
    return afe::sample_mix(x);
  }
  u64 below(u64 n) { return next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

// Linear-interpolation quantile of an unsorted sample (copied).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

// Host speed probe. The reference host is a VM on a shared machine whose
// per-core speed drifts by tens of percent over minutes, with no steal time
// reported; CPU-bound timings of the same code drift with it. The probe is
// a fixed kernel that shares no code with the program under test:
// ChaCha-style add-rotate-xor rounds and 64x64->128-bit multiplies over a
// 4 KiB table, so it measures the core's speed and not the cache state the
// work before it left. CPU-bound metrics are scaled by kProbeRefUs / (the
// probe's time next to them); see end_to_end().
class HostProbe {
 public:
  HostProbe() : table_(kWords) {
    u64 x = 1;
    for (auto& t : table_) {
      t = x = x * 6364136223846793005ull + 1442695040888963407ull;
    }
  }

  // Runs the kernel once (17-32 us on the reference host); returns its
  // duration in ns.
  u64 time_unit() {
    const u64 t0 = now_ns();
    u32 s[16];
    for (size_t i = 0; i < 16; ++i) {
      s[i] = static_cast<u32>(state_ >> (i % 2 * 32)) + static_cast<u32>(i);
    }
    u64 x = state_, at = state_ & (kWords - 1);
    for (int b = 0; b < kBlocks; ++b) {
      for (int r = 0; r < 10; ++r) {
        quarter(s, 0, 4, 8, 12), quarter(s, 1, 5, 9, 13);
        quarter(s, 2, 6, 10, 14), quarter(s, 3, 7, 11, 15);
        quarter(s, 0, 5, 10, 15), quarter(s, 1, 6, 11, 12);
        quarter(s, 2, 7, 8, 13), quarter(s, 3, 4, 9, 14);
      }
      for (size_t i = 0; i < 16; i += 2) {
        const unsigned __int128 p =
            static_cast<unsigned __int128>(x ^ table_[at]) *
            ((u64{s[i]} << 32 | s[i + 1]) | 1);
        x = static_cast<u64>(p >> 64) ^ static_cast<u64>(p);
        table_[at] = x;
        at = (at + (x >> 40) + 1) & (kWords - 1);
      }
    }
    state_ = x ^ s[0];
    return now_ns() - t0;
  }

 private:
  static constexpr size_t kWords = 512;  // 4 KiB
  static constexpr int kBlocks = 128;

  static u32 rotl(u32 v, int c) { return v << c | v >> (32 - c); }
  static void quarter(u32* s, int a, int b, int c, int d) {
    s[a] += s[b], s[d] = rotl(s[d] ^ s[a], 16);
    s[c] += s[d], s[b] = rotl(s[b] ^ s[c], 12);
    s[a] += s[b], s[d] = rotl(s[d] ^ s[a], 8);
    s[c] += s[d], s[b] = rotl(s[b] ^ s[c], 7);
  }

  std::vector<u64> table_;
  u64 state_ = 0x243f6a8885a308d3ull;
};

// ---------------------------------------------------------------------------
// Pre-encoded inputs
// ---------------------------------------------------------------------------

enum class Kind : u8 { kHonest, kTampered, kBadProof };

struct Inputs {
  size_t n = 0;
  std::vector<u64> cids;
  std::vector<Kind> kinds;
  // Every submission's wire frame to server j has the same length, so
  // server j's frames live back to back: frame i at i * frame_len[j].
  std::array<size_t, kServers> frame_len{};
  std::array<std::vector<u8>, kServers> frames;
  std::vector<u64> due_ns;          // open loop: send time after round start
  u64 honest = 0;
  u64 planted_rejects = 0;
  std::vector<F> expect_sigma;      // oracle: sum of honest encodings
};

template <typename Afe>
class Encoder {
 public:
  Encoder(const Afe* afe, u64 master_seed)
      : afe_(afe),
        client_(afe, kServers, master_seed),
        prover_(&afe->valid_circuit()),
        sealer_(master_seed_bytes(master_seed)) {}

  // Per-server sealed blobs for submission `cid`. Honest and tampered
  // submissions go through PrioClient::upload; a bad-proof submission
  // builds the extended input with the public prover, perturbs one proof
  // element, and seals it normally, so every server decrypts it and only
  // the SNIP rejects it.
  std::vector<std::vector<u8>> encode(Kind kind, u64 cid, u64 rng_seed) {
    SecureRng rng(rng_seed);
    const auto input = afe::sample_input(*afe_, cid);
    if (kind == Kind::kBadProof) {
      std::vector<F> ext =
          prover_.build_extended_input(afe_->encode(input), rng);
      ext[prover_.layout().off_h() + 1] += F::one();
      return seal_shared_vector<F>(sealer_, std::span<const F>(ext),
                                   kServers, cid, /*seq=*/0, rng);
    }
    auto blobs = client_.upload(input, cid, rng);
    if (kind == Kind::kTampered) blobs[cid % kServers][12] ^= 1;
    return blobs;
  }

  // Times one PrioClient::upload of `cid`'s input: {start, duration} ns.
  std::pair<u64, u64> time_upload(u64 cid, u64 rng_seed) {
    SecureRng rng(rng_seed);
    const auto input = afe::sample_input(*afe_, cid);
    const u64 t0 = now_ns();
    client_.upload(input, cid, rng);
    return {t0, now_ns() - t0};
  }

 private:
  const Afe* afe_;
  PrioClient<F, Afe> client_;
  SnipProver<F> prover_;
  SubmissionSealer sealer_;
};

std::vector<u8> submit_frame(u64 cid, const std::vector<u8>& blob) {
  net::Writer w;
  w.u8_(server::kClientSubmit);
  w.u64_(cid);
  w.bytes(blob);
  return net::encode_frame(w.data());
}

template <typename Afe>
Inputs encode_inputs(const Afe& afe, const Workload& w, size_t n, u64 seed,
                     u64 master_seed) {
  Inputs in;
  in.n = n;
  SplitMix r{seed};
  const u64 cid_base = (r.next() & 0xffffff) << 32;
  in.cids.resize(n);
  for (size_t i = 0; i < n; ++i) in.cids[i] = cid_base + i;

  const size_t planted =
      static_cast<size_t>(std::llround(kPlantFrac * static_cast<double>(n)));
  in.kinds.assign(n, Kind::kHonest);
  for (size_t i = 0; i < planted; ++i) {
    in.kinds[i] = Kind::kTampered;
    in.kinds[planted + i] = Kind::kBadProof;
  }
  for (size_t i = n - 1; i > 0; --i) {
    std::swap(in.kinds[i], in.kinds[r.below(i + 1)]);
  }
  in.planted_rejects = 2 * planted;
  in.honest = n - in.planted_rejects;

  if (w.rate > 0) {
    in.due_ns.resize(n);
    double t = 0;
    for (size_t i = 0; i < n; ++i) {
      t += -std::log1p(-r.unit()) / w.rate;
      in.due_ns[i] = static_cast<u64>(t * 1e9);
    }
  }

  std::vector<u64> rng_seeds(n);
  for (auto& s : rng_seeds) s = r.next();

  // Sub 0 fixes the frame lengths; the rest encode in parallel straight
  // into their slots.
  auto store = [&](size_t i, const std::vector<std::vector<u8>>& blobs) {
    for (size_t j = 0; j < kServers; ++j) {
      const auto frame = submit_frame(in.cids[i], blobs[j]);
      require(frame.size() == in.frame_len[j],
              "bench_e2e: frame length varies across submissions");
      std::memcpy(in.frames[j].data() + i * in.frame_len[j], frame.data(),
                  frame.size());
    }
  };
  auto encode_one = [&](Encoder<Afe>& enc, size_t i) {
    return enc.encode(in.kinds[i], in.cids[i], rng_seeds[i]);
  };
  {
    Encoder<Afe> enc(&afe, master_seed);
    auto blobs = encode_one(enc, 0);
    for (size_t j = 0; j < kServers; ++j) {
      in.frame_len[j] = submit_frame(in.cids[0], blobs[j]).size();
      in.frames[j].assign(n * in.frame_len[j], 0);
    }
    store(0, blobs);
  }
  const size_t threads =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  std::atomic<size_t> next{1};
  std::vector<std::thread> pool;
  std::vector<std::exception_ptr> errors(threads);
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      try {
        Encoder<Afe> enc(&afe, master_seed);
        for (size_t i = next++; i < n; i = next++) store(i, encode_one(enc, i));
      } catch (...) {
        errors[t] = std::current_exception();
        next = n;
      }
    });
  }
  for (auto& t : pool) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  in.expect_sigma.assign(afe.k_prime(), F::zero());
  for (size_t i = 0; i < n; ++i) {
    if (in.kinds[i] != Kind::kHonest) continue;
    const std::vector<F> enc = afe.encode(afe::sample_input(afe, in.cids[i]));
    for (size_t c = 0; c < afe.k_prime(); ++c) in.expect_sigma[c] += enc[c];
  }
  return in;
}

// ---------------------------------------------------------------------------
// Server processes
// ---------------------------------------------------------------------------

// One connect attempt (connect_tcp retries for its whole timeout, which
// would both slow port probing and quantize the setup measurement).
std::optional<net::Socket> connect_once(u16 port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  net::Socket sock(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return std::nullopt;
  }
  return sock;
}

// tools/prio_chaos.cc picks ports the same way, but its probe goes through
// connect_tcp and so waits 200 ms on every free port: about 2 s per
// cluster, too slow for the 40 set-ups a run makes.
std::optional<int> pick_port_base(SplitMix* rng) {
  for (int attempt = 0; attempt < 32; ++attempt) {
    const int base = kPortLo + static_cast<int>(rng->below(kPortSpan));
    bool busy = false;
    for (int off : {0, 100, 200}) {
      for (size_t j = 0; j < kServers && !busy; ++j) {
        busy = connect_once(static_cast<u16>(base + off + j)).has_value();
      }
    }
    if (!busy) return base;
  }
  return std::nullopt;
}

struct ProcStat {
  double cpu_s = 0;  // user + sys, all threads
  double hwm_mb = 0;
};

ProcStat read_proc(pid_t pid) {
  ProcStat st;
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(stat, line);
  const size_t rp = line.rfind(')');
  if (rp != std::string::npos) {
    // Fields 14 and 15 of proc(5), utime and stime in clock ticks; the
    // text after the command's ')' starts at field 3.
    std::istringstream fields(line.substr(rp + 1));
    std::string skip;
    for (int f = 3; f < 14; ++f) fields >> skip;
    u64 utime = 0, stime = 0;
    if (fields >> utime >> stime) {
      st.cpu_s = static_cast<double>(utime + stime) /
                 static_cast<double>(::sysconf(_SC_CLK_TCK));
    }
  }
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      st.hwm_mb = std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return st;
}

struct Config {
  Workload w;
  u64 seed = 1;
  u64 master_seed = 1;
  std::string server_bin;
  std::string work_dir;
  std::vector<std::string> server_args;  // already "--key", "value" pairs
};

// Three prio_server children. The destructor kills and reaps whatever is
// still running, so no exit path leaves a server behind.
class Cluster {
 public:
  Cluster() = default;
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  ~Cluster() { stop(); }

  u16 peer_port(size_t j) const { return static_cast<u16>(base_ + j); }
  u16 client_port(size_t j) const { return static_cast<u16>(base_ + 100 + j); }
  u16 stats_port(size_t j) const { return static_cast<u16>(base_ + 200 + j); }
  pid_t pid(size_t j) const { return pid_[j]; }

  // Spawns the three servers into `dir` at once, as a deployment starts
  // them, and waits until all three answer /stats.json (mesh up, stores
  // open). Returns "" and sets *setup_s on success, else an error message.
  //
  // Mesh setup is bimodal: an acceptor that takes a peer's connection
  // before the peer's hello has arrived blocks up to 200 ms in its next
  // accept poll (TcpMeshTransport::establish), so a set-up takes either a
  // few ms or about 200 ms.
  std::string start(const Config& cfg, const std::string& dir, bool traced,
                    double* setup_s) {
    SplitMix port_rng{cfg.seed ^ static_cast<u64>(::getpid()) ^ now_ns()};
    const auto base = pick_port_base(&port_rng);
    if (!base) return "no free port base in 11000-18999";
    base_ = *base;
    std::string servers;
    for (size_t j = 0; j < kServers; ++j) {
      servers += (j ? ",127.0.0.1:" : "127.0.0.1:") +
                 std::to_string(peer_port(j)) + ":" +
                 std::to_string(client_port(j));
    }
    const Workload& w = cfg.w;
    const u64 t0 = now_ns();
    for (size_t j = 0; j < kServers; ++j) {
      const std::string sj = dir + "/s" + std::to_string(j);
      std::vector<std::string> argv = {
          cfg.server_bin, "--id", std::to_string(j), "--servers", servers,
          "--afe", w.afe, "--master-seed", std::to_string(cfg.master_seed),
          "--epoch-size", std::to_string(w.epoch_size), "--epochs",
          std::to_string(w.epochs), "--shards", std::to_string(w.shards),
          "--bind", "127.0.0.1", "--stats-port",
          std::to_string(stats_port(j))};
      if (w.durable) argv.insert(argv.end(), {"--data-dir", sj});
      if (traced) argv.insert(argv.end(), {"--trace-log", sj + ".trace"});
      argv.insert(argv.end(), cfg.server_args.begin(), cfg.server_args.end());
      if (!spawn(j, argv, sj + ".log")) return "cannot spawn " + cfg.server_bin;
    }
    for (size_t j = 0; j < kServers; ++j) {
      for (;;) {
        // The probe connection must be closed before the GET (so not in
        // the same expression): the stats endpoint serves one connection
        // at a time.
        const bool listening = connect_once(stats_port(j)).has_value();
        if (listening &&
            obs::http_get("127.0.0.1", stats_port(j), "/stats.json")) {
          break;
        }
        if (auto dead = exited()) {
          return "s" + std::to_string(*dead) + " exited during setup (" +
                 dir + "/s" + std::to_string(*dead) + ".log)";
        }
        if (now_ns() - t0 > 30'000'000'000ull) {
          return "servers not ready after 30 s";
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    *setup_s = static_cast<double>(now_ns() - t0) / 1e9;
    return "";
  }

  // Names the first server that already exited, if any.
  std::optional<size_t> exited() {
    for (size_t j = 0; j < kServers; ++j) {
      if (pid_[j] <= 0) continue;
      if (::waitpid(pid_[j], nullptr, WNOHANG) == pid_[j]) {
        pid_[j] = -1;
        return j;
      }
    }
    return std::nullopt;
  }

  // SIGKILLs and reaps every server still running.
  void stop() {
    for (auto& p : pid_) {
      if (p <= 0) continue;
      ::kill(p, SIGKILL);
      ::waitpid(p, nullptr, 0);
      p = -1;
    }
  }

 private:
  bool spawn(size_t j, const std::vector<std::string>& argv,
             const std::string& log) {
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    std::vector<char*> cargv;
    for (const auto& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);
    pid_t pid = -1;
    const int rc = posix_spawn(&pid, cargv[0], &fa, nullptr, cargv.data(),
                               environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) return false;
    pid_[j] = pid;
    return true;
  }

  int base_ = 0;
  std::array<pid_t, kServers> pid_{-1, -1, -1};
};

// Family totals of a Prometheus text scrape (instances summed across
// labels; histogram buckets skipped, _sum/_count kept).
std::map<std::string, double> parse_metrics(const std::string& body) {
  std::map<std::string, double> tot;
  size_t pos = 0;
  while (pos < body.size()) {
    size_t nl = body.find('\n', pos);
    if (nl == std::string::npos) nl = body.size();
    const std::string line = body.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::string name = line.substr(0, line.find_first_of("{ "));
    const size_t sp = line.rfind(' ');
    if (sp == std::string::npos || name.ends_with("_bucket")) continue;
    tot[name] += std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return tot;
}

// ---------------------------------------------------------------------------
// One round
// ---------------------------------------------------------------------------

struct RoundResult {
  bool traced = false;
  std::string error;      // non-empty: the round failed to run
  bool oracle_ok = false;
  u64 failed = 0;         // nacked + honest missing from the aggregate
  double setup_s = 0;
  double window_s = 0;    // first send -> last publish
  double cpu_s[kServers] = {};
  double rss_mb = 0;      // sum of VmHWM
  double probe_us = 0;    // median HostProbe unit right after the round
  std::map<std::string, double> delta[kServers];  // /metrics deltas
  std::vector<double> ack_ms;        // per submission
  std::vector<double> lag_ms;        // publish lag per epoch
  std::vector<double> rtt_us[kServers];
  std::vector<double> sched_lag_ms;
  u64 accepted = 0;
  std::vector<std::pair<i64, std::string>> trace;  // (system us, JSON line)
};

// Senders, the release gate and failure state shared by one round's
// threads.
struct Drive {
  const Inputs* in = nullptr;
  bool closed = true;
  u64 t0 = 0;
  std::atomic<size_t> released{0};
  std::mutex mu;  // guards error; pairs with cv for the release gate
  std::condition_variable cv;
  std::string error;
  std::atomic<bool> stop{false};
  std::array<std::vector<u64>, kServers> send_ns, ack_ns;
  std::array<u64, kServers> nacked{};

  void fail(const std::string& why) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (error.empty()) error = why;
    }
    stop = true;
    cv.notify_all();
  }
  void release(size_t upto) {
    {
      std::lock_guard<std::mutex> lock(mu);
      released = std::max(released.load(), upto);
    }
    cv.notify_all();
  }
};

bool write_all(int fd, const u8* p, size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

// One server connection: sends the pre-built frames in order, as the
// release gate (closed loop) or the due times (open loop) allow, with at
// most kWindow unacked, and timestamps every send and ack.
void run_sender(Drive& d, size_t j, int fd) {
  const Inputs& in = *d.in;
  const size_t n = in.n;
  const size_t flen = in.frame_len[j];
  const u8* frames = in.frames[j].data();
  auto& send_ns = d.send_ns[j];
  auto& ack_ns = d.ack_ns[j];
  size_t next = 0, acked = 0;
  u8 buf[4096];
  size_t have = 0;
  u64 progress = now_ns();
  while (acked < n && !d.stop) {
    const u64 now = now_ns();
    size_t limit = std::min(n, acked + kWindow);
    if (d.closed) {
      limit = std::min(limit, d.released.load());
    } else {
      size_t due = next;
      while (due < limit && d.t0 + in.due_ns[due] <= now) ++due;
      limit = due;
    }
    if (limit > next) {
      for (size_t i = next; i < limit; ++i) send_ns[i] = now;
      if (!write_all(fd, frames + next * flen, (limit - next) * flen)) {
        d.fail("send to s" + std::to_string(j) + " failed");
        return;
      }
      next = limit;
    }
    if (next == acked) {
      if (next == n) break;
      if (d.closed) {
        std::unique_lock<std::mutex> lock(d.mu);
        d.cv.wait_for(lock, std::chrono::milliseconds(100),
                      [&] { return d.stop || d.released.load() > next; });
        progress = now_ns();
        continue;
      }
    }
    // Wait for acks, or until the next submission falls due.
    i64 wait_ns = 100'000'000;
    if (!d.closed && next < n && next < acked + kWindow) {
      wait_ns = std::clamp<i64>(
          static_cast<i64>(d.t0 + in.due_ns[next]) -
              static_cast<i64>(now_ns()),
          0, wait_ns);
    }
    pollfd pfd{fd, POLLIN, 0};
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    const int rc = ::ppoll(&pfd, next > acked ? 1 : 0, &ts, nullptr);
    if (rc <= 0) {
      if (next > acked && now_ns() - progress > 30'000'000'000ull) {
        d.fail("acks from s" + std::to_string(j) + " stalled");
        return;
      }
      continue;
    }
    const ssize_t got = ::recv(fd, buf + have, sizeof(buf) - have,
                               MSG_DONTWAIT);
    if (got == 0) {
      d.fail("s" + std::to_string(j) + " closed the connection");
      return;
    }
    if (got < 0) continue;
    have += static_cast<size_t>(got);
    const u64 ts_ack = now_ns();
    size_t off = 0;
    // An ack frame is [u32 len = 2][u8 kSubmitAck][u8 ok].
    while (have - off >= 6 && acked < next) {
      const u8* a = buf + off;
      if (a[0] != 2 || a[1] || a[2] || a[3] || a[4] != server::kSubmitAck) {
        d.fail("malformed ack from s" + std::to_string(j));
        return;
      }
      if (a[5] != 1) ++d.nacked[j];
      ack_ns[acked++] = ts_ack;
      off += 6;
    }
    std::memmove(buf, buf + off, have - off);
    have -= off;
    progress = ts_ack;
  }
}

std::string json_num(double v) {
  char b[64];
  std::snprintf(b, sizeof(b), "%.17g", v);
  return b;
}

template <typename Afe>
RoundResult run_round(const Afe& afe, const Config& cfg, const Inputs& in,
                      size_t round, bool traced, bool keep_trace) {
  RoundResult res;
  res.traced = traced;
  const Workload& w = cfg.w;
  const size_t n = in.n;
  const std::string spec = w.afe;
  const std::string dir = cfg.work_dir + "/r" + std::to_string(round);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  Cluster cluster;
  res.error = cluster.start(cfg, dir, traced, &res.setup_s);
  if (!res.error.empty()) return res;

  // ---- connections and baselines ----------------------------------------
  std::array<net::Socket, kServers> socks;
  std::optional<net::FramedConn> agg;
  try {
    for (size_t j = 0; j < kServers; ++j) {
      socks[j] = net::connect_tcp("127.0.0.1", cluster.client_port(j), 5000);
    }
    agg.emplace(net::connect_tcp("127.0.0.1", cluster.client_port(0), 5000));
  } catch (const net::TransportError& e) {
    res.error = std::string("client connect: ") + e.what();
    return res;
  }
  auto scrape = [&](size_t j) {
    auto body = obs::http_get("127.0.0.1", cluster.stats_port(j), "/metrics");
    return body ? parse_metrics(*body) : std::map<std::string, double>{};
  };
  std::map<std::string, double> before[kServers];
  ProcStat proc0[kServers];
  for (size_t j = 0; j < kServers; ++j) before[j] = scrape(j);
  for (size_t j = 0; j < kServers; ++j) proc0[j] = read_proc(cluster.pid(j));

  // ---- drive ------------------------------------------------------------
  Drive d;
  d.in = &in;
  d.closed = w.rate <= 0;
  for (size_t j = 0; j < kServers; ++j) {
    d.send_ns[j].assign(n, 0);
    d.ack_ns[j].assign(n, 0);
  }
  const size_t E = w.epoch_size;
  std::vector<u64> release_ns(w.epochs, 0), publish_ns(w.epochs, 0),
      ask_ns(w.epochs, 0);
  d.t0 = now_ns();
  d.release(d.closed ? std::min(n, 2 * E) : n);
  release_ns[0] = d.t0;
  if (w.epochs > 1) release_ns[1] = d.t0;
  std::vector<std::thread> senders;
  for (size_t j = 0; j < kServers; ++j) {
    senders.emplace_back([&d, j, fd = socks[j].fd()] {
      try {
        run_sender(d, j, fd);
      } catch (const std::exception& e) {
        d.fail(e.what());
      }
    });
  }

  const i64 sys_off = system_offset_us();
  u64 next_scrape = traced ? now_ns() : ~u64{0};
  std::vector<F> sigma(afe.k_prime(), F::zero());
  auto scrape_events = [&] {
    for (size_t j = 0; j < kServers; ++j) {
      const i64 ts = static_cast<i64>(now_ns() / 1000) + sys_off;
      const auto totals = scrape(j);
      if (!keep_trace) continue;
      for (const auto& [name, v] : totals) {
        res.trace.emplace_back(
            ts, "{\"ts_us\":" + std::to_string(ts) +
                    ",\"event\":\"counter\",\"round\":" +
                    std::to_string(round) + ",\"server\":" +
                    std::to_string(j) + ",\"name\":\"" + name +
                    "\",\"value\":" + json_num(v) + "}");
      }
    }
    next_scrape = now_ns() + kScrapeEveryNs;
  };
  for (size_t e = 0; e < w.epochs && !d.stop; ++e) {
    try {
      net::Writer ask;
      ask.u8_(server::kGetAggregate);
      ask.u32_(static_cast<u32>(e));
      ask.u8_(afe::afe_wire_id(afe));
      ask.str_(spec);
      ask_ns[e] = now_ns();
      agg->send_frame(ask.data());
      std::optional<std::vector<u8>> reply;
      while (!reply && !d.stop) {
        if (now_ns() >= next_scrape) scrape_events();
        reply = agg->try_recv_frame(traced ? 20 : 100);
        if (reply) break;
        if (agg->eof()) throw net::TransportError("s0 closed the connection");
        if (auto dead = cluster.exited()) {
          d.fail("s" + std::to_string(*dead) + " exited mid-round");
        } else if (now_ns() - ask_ns[e] > 60'000'000'000ull) {
          d.fail("epoch " + std::to_string(e) + " never published");
        }
      }
      if (!reply) break;
      publish_ns[e] = now_ns();
      net::Reader r(*reply);
      const u8 type = r.u8_();
      const u32 got_epoch = r.u32_();
      const u64 accepted = r.u64_();
      const u8 got_id = r.u8_();
      const std::string got_spec = r.str_();
      const auto s = r.field_vector<F>(afe.k_prime());
      (void)r.bytes();
      if (type != server::kAggregate || got_epoch != e || !r.ok() ||
          !r.at_end() || got_id != afe::afe_wire_id(afe) ||
          got_spec != spec || s.size() != afe.k_prime()) {
        d.fail("malformed aggregate reply for epoch " + std::to_string(e));
        break;
      }
      res.accepted += accepted;
      for (size_t c = 0; c < s.size(); ++c) sigma[c] += s[c];
      if (d.closed && e + 2 < w.epochs) {
        release_ns[e + 2] = now_ns();
        d.release(std::min(n, (e + 3) * E));
      }
    } catch (const std::exception& ex) {
      d.fail(std::string("aggregate fetch: ") + ex.what());
    }
  }
  const u64 t_end = now_ns();
  ProcStat proc1[kServers];
  for (size_t j = 0; j < kServers && !d.stop; ++j) {
    proc1[j] = read_proc(cluster.pid(j));
  }
  std::map<std::string, double> after[kServers];
  for (size_t j = 0; j < kServers && !d.stop; ++j) after[j] = scrape(j);
  for (auto& t : senders) t.join();
  if (traced && d.error.empty()) scrape_events();
  agg.reset();
  for (auto& s : socks) s.close_fd();
  // Everything the round measures has been read; a clean shutdown would
  // only add teardown time between rounds.
  cluster.stop();
  if (!d.error.empty()) {
    res.error = d.error + " (logs in " + dir + ")";
    return res;
  }

  // ---- per-round numbers ------------------------------------------------
  res.window_s = static_cast<double>(t_end - d.t0) / 1e9;
  for (size_t j = 0; j < kServers; ++j) {
    res.cpu_s[j] = proc1[j].cpu_s - proc0[j].cpu_s;
    res.rss_mb += proc1[j].hwm_mb;
    for (const auto& [k, v] : after[j]) res.delta[j][k] = v - before[j][k];
  }
  // Every submission was acked by all three servers: the senders only
  // finish early on a failure, which fails the round above.
  u64 nacked = 0;
  res.ack_ms.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    u64 first_send = ~u64{0}, last_ack = 0;
    for (size_t j = 0; j < kServers; ++j) {
      first_send = std::min(first_send, d.send_ns[j][i]);
      last_ack = std::max(last_ack, d.ack_ns[j][i]);
      res.rtt_us[j].push_back(
          static_cast<double>(d.ack_ns[j][i] - d.send_ns[j][i]) / 1e3);
    }
    const u64 from = d.closed ? first_send : d.t0 + in.due_ns[i];
    res.ack_ms.push_back(static_cast<double>(last_ack - from) / 1e6);
    if (!d.closed) {
      for (size_t j = 0; j < kServers; ++j) {
        res.sched_lag_ms.push_back(
            static_cast<double>(d.send_ns[j][i] - from) / 1e6);
      }
    }
  }
  for (size_t j = 0; j < kServers; ++j) nacked += d.nacked[j];
  for (size_t e = 0; e < w.epochs; ++e) {
    const size_t last = std::min(n, (e + 1) * E) - 1;
    u64 ack = 0;
    for (size_t j = 0; j < kServers; ++j) {
      ack = std::max(ack, d.ack_ns[j][last]);
    }
    res.lag_ms.push_back(
        (static_cast<double>(publish_ns[e]) - static_cast<double>(ack)) / 1e6);
    if (d.closed) {
      // Closed loop: how late each sender started an epoch after its
      // release.
      const size_t first = e * E;
      for (size_t j = 0; j < kServers; ++j) {
        res.sched_lag_ms.push_back(
            static_cast<double>(d.send_ns[j][first] - release_ns[e]) / 1e6);
      }
    }
  }

  // Oracle: independent of the protocol code under test.
  const bool sigma_ok = sigma == in.expect_sigma;
  res.oracle_ok = sigma_ok && res.accepted == in.honest;
  u64 missing = res.accepted < in.honest ? in.honest - res.accepted : 0;
  if (!res.oracle_ok && missing == 0) {
    missing = std::max<u64>(1, res.accepted - in.honest);
  }
  res.failed = nacked + missing;
  for (size_t j = 0; j < kServers; ++j) {
    auto& dj = res.delta[j];
    if (dj["prio_verify_rejected_total"] !=
            static_cast<double>(in.planted_rejects) ||
        dj["prio_batch_aborts_total"] != 0 ||
        dj["prio_intake_rejected_total"] != 0) {
      res.oracle_ok = false;
    }
  }

  if (keep_trace) {
    const auto sys = [&](u64 ns) {
      return static_cast<i64>(ns / 1000) + sys_off;
    };
    auto span = [&](i64 ts, i64 dur, const std::string& name,
                    const std::string& extra) {
      res.trace.emplace_back(
          ts, "{\"ts_us\":" + std::to_string(ts) + ",\"dur_us\":" +
                  std::to_string(dur) + ",\"span\":\"" + name +
                  "\",\"round\":" + std::to_string(round) + extra + "}");
    };
    span(sys(d.t0), static_cast<i64>((t_end - d.t0) / 1000), "round", "");
    for (size_t e = 0; e < w.epochs; ++e) {
      span(sys(ask_ns[e]),
           static_cast<i64>((publish_ns[e] - ask_ns[e]) / 1000),
           "router.aggregate", ",\"epoch\":" + std::to_string(e));
    }
    // Per-submission spans are capped so the merged file stays a few MB
    // on every workload.
    for (size_t i = 0; i < std::min<size_t>(n, 20'000); ++i) {
      const std::string cid = ",\"cid\":" + std::to_string(in.cids[i]);
      for (size_t j = 0; j < kServers; ++j) {
        span(sys(d.send_ns[j][i]),
             static_cast<i64>((d.ack_ns[j][i] - d.send_ns[j][i]) / 1000),
             "router.submit", cid + ",\"server\":" + std::to_string(j));
      }
    }
    for (size_t j = 0; j < kServers; ++j) {
      std::ifstream f(dir + "/s" + std::to_string(j) + ".trace");
      std::string line;
      while (std::getline(f, line)) {
        if (line.size() < 2 || line.back() != '}') continue;
        const i64 ts = std::strtoll(line.c_str() + 9, nullptr, 10);
        line.pop_back();
        res.trace.emplace_back(ts, line + ",\"round\":" +
                                       std::to_string(round) + "}");
      }
    }
  }
  // A failed round keeps its directory (server logs, stores) for the
  // post-mortem; the error paths above return before this.
  if (res.oracle_ok) std::filesystem::remove_all(dir);
  return res;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double sum_over(const std::vector<const RoundResult*>& rs, size_t j,
                const std::string& key) {
  double s = 0;
  for (const auto* r : rs) {
    auto it = r->delta[j].find(key);
    if (it != r->delta[j].end()) s += it->second;
  }
  return s;
}

// The CPU-bound metrics are reported at the reference host speed: each
// timing is multiplied by kProbeRefUs / (the HostProbe time next to it).
// A round's CPU time and a closed loop's throughput use the probe run right
// after that round; each client encode uses the probe unit right after it.
// An open loop's throughput is the offered rate, which does not depend on
// the host's speed, so it is not scaled. The unscaled values are reported
// as raw.*.
std::vector<Metric> end_to_end(const std::vector<const RoundResult*>& rs,
                               const std::vector<double>& setups,
                               const std::vector<double>& encode_us,
                               const std::vector<double>& probe_us,
                               const Workload& w, const Inputs& in,
                               u64 attempted, u64 failed) {
  const double n = static_cast<double>(in.n);
  std::vector<double> vps, cpu, raw_vps, raw_cpu, encode, mesh, rss, ack, lag;
  for (const auto* r : rs) {
    const double slow = r->probe_us / kProbeRefUs;
    raw_vps.push_back(n / r->window_s);
    raw_cpu.push_back((r->cpu_s[0] + r->cpu_s[1] + r->cpu_s[2]) / n * 1e6);
    vps.push_back(raw_vps.back() * (w.rate > 0 ? 1.0 : slow));
    cpu.push_back(raw_cpu.back() / slow);
    double bytes = 0;
    for (size_t j = 0; j < kServers; ++j) {
      bytes += r->delta[j].at("prio_mesh_bytes_sent_total");
    }
    mesh.push_back(bytes / n);
    rss.push_back(r->rss_mb);
    ack.insert(ack.end(), r->ack_ms.begin(), r->ack_ms.end());
    lag.insert(lag.end(), r->lag_ms.begin(), r->lag_ms.end());
  }
  double upload = 0;
  for (size_t j = 0; j < kServers; ++j) {
    upload += static_cast<double>(in.frame_len[j]);
  }
  for (size_t i = 0; i < encode_us.size(); ++i) {
    encode.push_back(encode_us[i] * kProbeRefUs / probe_us[i]);
  }
  return {
      {"verified_subs_per_s", median(vps), "subs/s"},
      {"server_cpu_us_per_sub", median(cpu), "us"},
      {"ack_p50_ms", quantile(ack, 0.50), "ms"},
      {"ack_p99_ms", quantile(ack, 0.99), "ms"},
      {"publish_lag_p50_ms", quantile(lag, 0.50), "ms"},
      {"mesh_bytes_per_sub", median(mesh), "B"},
      {"upload_bytes_per_sub", upload, "B"},
      {"client_encode_us", median(encode), "us"},
      {"setup_s", mean(setups), "s"},
      {"server_rss_mb", median(rss), "MB"},
      {"failed_frac",
       static_cast<double>(failed) / static_cast<double>(attempted), "ratio"},
      {"raw.verified_subs_per_s", median(raw_vps), "subs/s"},
      {"raw.server_cpu_us_per_sub", median(raw_cpu), "us"},
      {"raw.client_encode_us", median(encode_us), "us"},
      {"host.probe_us", median(probe_us), "us"},
  };
}

std::vector<Metric> per_layer(const std::vector<const RoundResult*>& traced,
                              const std::vector<const RoundResult*>& plain,
                              const Config& cfg, const Inputs& in) {
  const Workload& w = cfg.w;
  const double subs = static_cast<double>(in.n * traced.size());
  const double epochs = static_cast<double>(w.epochs * traced.size());
  double wall = 0;
  for (const auto* r : traced) wall += r->window_s;
  std::vector<Metric> out;
  for (size_t j = 0; j < kServers; ++j) {
    const std::string s = ".s" + std::to_string(j);
    auto sum = [&](const char* key) { return sum_over(traced, j, key); };
    const double prepare = sum("prio_stage_prepare_seconds_sum");
    const double rounds = sum("prio_stage_rounds_seconds_sum");
    const double commit = sum("prio_stage_commit_seconds_sum");
    const double batches = sum("prio_batches_committed_total");
    double cpu = 0;
    std::vector<double> rtt;
    for (const auto* r : traced) {
      cpu += r->cpu_s[j];
      rtt.insert(rtt.end(), r->rtt_us[j].begin(), r->rtt_us[j].end());
    }
    const double per_round = static_cast<double>(traced.size());
    out.insert(out.end(), {
        {"node.prepare_us_per_sub" + s, prepare / subs * 1e6, "us"},
        {"node.rounds_us_per_sub" + s, rounds / subs * 1e6, "us"},
        {"net.recv_wait_us_per_sub" + s,
         sum("prio_mesh_recv_wait_seconds_sum") / subs * 1e6, "us"},
        {"net.mesh_frames_per_sub" + s,
         sum("prio_mesh_frames_sent_total") / subs, "frames/sub"},
        {"store.wal_append_us_per_sub" + s,
         sum("prio_wal_append_seconds_sum") / subs * 1e6, "us"},
        {"store.wal_fsync_ms_per_epoch" + s,
         sum("prio_wal_fsync_seconds_sum") / epochs * 1e3, "ms"},
        {"router.intake_rtt_p50_us" + s, quantile(rtt, 0.50), "us"},
        {"router.intake_rtt_p99_us" + s, quantile(rtt, 0.99), "us"},
        {"shard.batch_fill" + s,
         batches > 0 ? subs / batches / static_cast<double>(kBatch) : 0,
         "ratio"},
        {"shard.commit_us_per_sub" + s, commit / subs * 1e6, "us"},
        {"shard.lane_busy_frac" + s,
         (prepare + rounds + commit) / (static_cast<double>(w.shards) * wall),
         "ratio"},
        {"server.cpu_us_per_sub" + s, cpu / subs * 1e6, "us"},
        {"node.verify_rejected" + s,
         sum("prio_verify_rejected_total") / per_round, "count"},
        {"shard.batch_aborts" + s, sum("prio_batch_aborts_total"), "count"},
        {"router.intake_rejected" + s, sum("prio_intake_rejected_total"),
         "count"},
    });
  }
  std::vector<double> lag, vt, vu, ack, publish, probe;
  for (const auto* r : traced) {
    lag.insert(lag.end(), r->sched_lag_ms.begin(), r->sched_lag_ms.end());
    vt.push_back(static_cast<double>(in.n) / r->window_s);
    probe.push_back(r->probe_us);
  }
  // Client-observed latencies that do not repeat within any allowed
  // end-to-end bound on a shared host (intake starved of CPU in the closed
  // loop, fsync and scheduler stalls); from untraced rounds.
  for (const auto* r : plain) {
    vu.push_back(static_cast<double>(in.n) / r->window_s);
    ack.insert(ack.end(), r->ack_ms.begin(), r->ack_ms.end());
    publish.insert(publish.end(), r->lag_ms.begin(), r->lag_ms.end());
  }
  out.push_back({"client.ack_p50_ms", quantile(ack, 0.50), "ms"});
  out.push_back({"client.ack_p99_ms", quantile(ack, 0.99), "ms"});
  out.push_back({"client.publish_lag_p50_ms", quantile(publish, 0.50), "ms"});
  out.push_back({"gen.sched_lag_p99_ms", quantile(lag, 0.99), "ms"});
  out.push_back({"trace.overhead_frac",
                 vu.empty() ? 0 : 1.0 - median(vt) / median(vu), "ratio"});
  out.push_back({"host.probe_us", median(probe), "us"});
  return out;
}

template <typename Afe>
int run(const Afe& afe, const Config& cfg, const server::Flags& flags) {
  const Workload& w = cfg.w;
  const bool trace = flags.has("trace");
  const bool smoke = flags.has("smoke");
  const double seconds = flags.real("seconds", 25.0);
  const std::string out_path = flags.str("out", "BENCH_e2e.json");
  const std::string trace_path =
      flags.str("trace-out", "BENCH_e2e_trace.jsonl");
  const u64 run_start = now_ns();
  const i64 sys_off = system_offset_us();

  const u64 t_enc = now_ns();
  const Inputs in = encode_inputs(afe, w, w.epoch_size * w.epochs, cfg.seed,
                                  cfg.master_seed);
  std::printf("[bench_e2e] %s: encoded %zu submissions (%llu honest, %llu "
              "planted rejects) in %.2f s\n",
              w.name, in.n, static_cast<unsigned long long>(in.honest),
              static_cast<unsigned long long>(in.planted_rejects),
              static_cast<double>(now_ns() - t_enc) / 1e9);
  std::fflush(stdout);

  // After every round, while no server runs, single-threaded
  // PrioClient::upload calls (client_encode_us), each followed by one
  // HostProbe unit, for kEncodeShare of that round's time. The round's
  // probe median scales its CPU-bound metrics (see end_to_end). The calls
  // before the first traced round also become client.upload spans.
  Encoder<Afe> sampler(&afe, cfg.master_seed);
  HostProbe probe;
  std::vector<double> encode_us, probe_us;
  std::vector<std::pair<i64, std::string>> upload_spans;
  auto sample = [&](u64 round_ns, bool spans) {
    const u64 until =
        now_ns() + std::max(kEncodeMinNs,
                            static_cast<u64>(kEncodeShare *
                                             static_cast<double>(round_ns)));
    const size_t first = probe_us.size();
    probe.time_unit();  // warm-up
    do {
      const size_t i = encode_us.size();
      const u64 cid = in.cids[i % in.n];
      const auto [t0, dur] = sampler.time_upload(cid, i);
      encode_us.push_back(static_cast<double>(dur) / 1e3);
      probe_us.push_back(static_cast<double>(probe.time_unit()) / 1e3);
      if (!spans) continue;
      const i64 ts = static_cast<i64>(t0 / 1000) + sys_off;
      upload_spans.emplace_back(
          ts, "{\"ts_us\":" + std::to_string(ts) + ",\"dur_us\":" +
                  std::to_string(dur / 1000) +
                  ",\"span\":\"client.upload\",\"cid\":" +
                  std::to_string(cid) + "}");
    } while (now_ns() < until);
    return median(std::vector<double>(
        probe_us.begin() + static_cast<std::ptrdiff_t>(first), probe_us.end()));
  };

  // Rounds until --seconds of measurement; --trace alternates untraced and
  // traced rounds, so it needs at least one of each.
  std::vector<RoundResult> rounds;
  const size_t min_rounds = trace ? 2 : 1;
  const u64 t_meas = now_ns();
  std::string error;
  while (rounds.size() < min_rounds ||
         (!smoke && static_cast<double>(now_ns() - t_meas) / 1e9 < seconds &&
          rounds.size() < 500)) {
    const size_t k = rounds.size();
    const bool traced = trace && k % 2 == 1;
    const u64 t_round = now_ns();
    rounds.push_back(run_round(afe, cfg, in, k, traced, traced && k == 1));
    const RoundResult& r = rounds.back();
    if (!r.error.empty()) {
      error = "round " + std::to_string(k) + ": " + r.error;
      break;
    }
    rounds.back().probe_us = sample(now_ns() - t_round, trace && k == 0);
    std::printf("[bench_e2e] round %zu%s: setup %.3f s, %.0f subs/s, "
                "probe %.2f us, accepted %llu/%zu, oracle %s\n",
                k, traced ? " (traced)" : "", r.setup_s,
                static_cast<double>(in.n) / r.window_s, r.probe_us,
                static_cast<unsigned long long>(r.accepted), in.n,
                r.oracle_ok ? "MATCHES" : "DIVERGES");
    std::fflush(stdout);
  }

  // setup_s is bimodal (see Cluster::start) and the slow mode's share is
  // near one half, so a median flips between the modes from run to run.
  // An untraced run reports the mean of at least kMinSetups set-ups --
  // every round's, topped up with set-up-only cycles -- which moves with
  // both the fast time and the slow mode's share.
  std::vector<double> setups;
  for (const auto& r : rounds) setups.push_back(r.setup_s);
  while (!trace && !smoke && error.empty() && setups.size() < kMinSetups) {
    const std::string dir = cfg.work_dir + "/setup";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    Cluster cluster;
    double s = 0;
    error = cluster.start(cfg, dir, false, &s);
    setups.push_back(s);
    cluster.stop();
    if (error.empty()) std::filesystem::remove_all(dir);
  }

  std::vector<const RoundResult*> plain, traced;
  bool correct = error.empty();
  u64 attempted = 0, failed = 0;
  for (const auto& r : rounds) {
    if (!r.error.empty()) continue;
    (r.traced ? traced : plain).push_back(&r);
    correct = correct && r.oracle_ok;
    attempted += in.n;
    failed += r.failed;
  }
  std::vector<Metric> metrics;
  if (error.empty()) {
    metrics = trace ? per_layer(traced, plain, cfg, in)
                    : end_to_end(plain, setups, encode_us, probe_us, w, in,
                                 attempted, failed);
  } else {
    std::fprintf(stderr, "bench_e2e: %s\n", error.c_str());
  }
  for (const auto& m : metrics) {
    std::printf("  %-34s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  std::string args;
  for (const auto& a : cfg.server_args) args += (args.empty() ? "" : " ") + a;
  std::ofstream out(out_path);
  out << "{\n  \"workload\": \"" << w.name << "\",\n  \"afe\": \"" << w.afe
      << "\",\n  \"seed\": " << cfg.seed << ",\n  \"seconds\": "
      << json_num(seconds) << ",\n  \"trace\": " << (trace ? "true" : "false")
      << ",\n  \"smoke\": " << (smoke ? "true" : "false")
      << ",\n  \"server_args\": \"" << args << "\",\n  \"rounds\": "
      << rounds.size() << ",\n  \"correct\": " << (correct ? "true" : "false")
      << ",\n  \"attempted\": " << attempted << ",\n  \"failed\": " << failed
      << ",\n  \"error\": \"" << error << "\",\n  \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ",\n    \"" : "\n    \"") << metrics[i].name
        << "\": {\"value\": " << json_num(metrics[i].value)
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "\n  },\n  \"per_round\": [";
  for (size_t k = 0; k < rounds.size(); ++k) {
    const auto& r = rounds[k];
    out << (k ? ",\n    " : "\n    ") << "{\"traced\": "
        << (r.traced ? "true" : "false") << ", \"setup_s\": "
        << json_num(r.setup_s) << ", \"window_s\": " << json_num(r.window_s)
        << ", \"probe_us\": " << json_num(r.probe_us)
        << ", \"accepted\": " << r.accepted << ", \"oracle_ok\": "
        << (r.oracle_ok ? "true" : "false") << "}";
  }
  out << "\n  ],\n  \"setup_samples_s\": [";
  for (size_t i = 0; i < setups.size(); ++i) {
    out << (i ? ", " : "") << json_num(setups[i]);
  }
  out << "]\n}\n";
  out.close();
  std::printf("[bench_e2e] %s: %zu rounds, oracle %s, failed %llu/%llu; "
              "wrote %s\n",
              w.name, rounds.size(), correct ? "MATCHES" : "FAILED",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted), out_path.c_str());

  if (trace && error.empty()) {
    std::vector<std::pair<i64, std::string>> lines;
    lines.emplace_back(
        static_cast<i64>(run_start / 1000) + sys_off,
        "{\"ts_us\":" + std::to_string(static_cast<i64>(run_start / 1000) +
                                       sys_off) +
            ",\"dur_us\":" +
            std::to_string((now_ns() - run_start) / 1000) +
            ",\"span\":\"run\",\"workload\":\"" + w.name + "\"}");
    for (auto& l : upload_spans) lines.push_back(std::move(l));
    for (auto& r : rounds) {
      for (auto& l : r.trace) lines.push_back(std::move(l));
    }
    std::stable_sort(
        lines.begin(), lines.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    std::ofstream tf(trace_path);
    for (const auto& [ts, l] : lines) tf << l << '\n';
    std::printf("[bench_e2e] wrote %s (%zu events)\n", trace_path.c_str(),
                lines.size());
  }
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    server::Flags flags(argc, argv);
    const std::string name = flags.str("workload", "");
    const Workload* wl = nullptr;
    for (const auto& w : kWorkloads) {
      if (name == w.name) wl = &w;
    }
    if (!wl) {
      std::fprintf(stderr,
                   "bench_e2e: --workload must be bulk, small or steady\n");
      return 2;
    }
    Config cfg;
    cfg.w = *wl;
    if (flags.has("smoke")) {
      // About a second through the same paths: two short epochs.
      cfg.w.epoch_size /= 4;
      cfg.w.epochs = 2;
    }
    cfg.seed = flags.num("seed", 1);
    cfg.master_seed = afe::sample_mix(cfg.seed) >> 1;
    cfg.server_bin = flags.str(
        "server-bin",
        (std::filesystem::read_symlink("/proc/self/exe").parent_path() /
         "prio_server")
            .string());
    if (::access(cfg.server_bin.c_str(), X_OK) != 0) {
      std::fprintf(stderr, "bench_e2e: no prio_server at %s\n",
                   cfg.server_bin.c_str());
      return 2;
    }
    const std::string extra = flags.str("server-args", "");
    for (size_t pos = 0; pos < extra.size();) {
      size_t comma = extra.find(',', pos);
      if (comma == std::string::npos) comma = extra.size();
      const std::string kv = extra.substr(pos, comma - pos);
      const size_t eq = kv.find('=');
      require(eq != std::string::npos && eq > 0,
              "--server-args takes key=value,key=value");
      cfg.server_args.push_back("--" + kv.substr(0, eq));
      cfg.server_args.push_back(kv.substr(eq + 1));
      pos = comma + 1;
    }
    cfg.work_dir = flags.str("work-dir", ".bench_build/e2e");
    std::filesystem::create_directories(cfg.work_dir);
    cfg.work_dir = std::filesystem::absolute(cfg.work_dir).string();

    // Only the two AFE types the workloads use are instantiated (with_afe
    // would compile the whole catalogue into this binary).
    const afe::AfeSpec spec = afe::parse_afe_spec(cfg.w.afe);
    const auto param = [&](const char* key) {
      return static_cast<size_t>(std::stoul(spec.params.at(key)));
    };
    if (spec.name == "linreg") {
      return run(afe::LinearRegression<F>(param("dims"), param("bits")), cfg,
                 flags);
    }
    return run(afe::BitVectorSum<F>(param("len")), cfg, flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: fatal: %s\n", e.what());
    return 1;
  }
}
