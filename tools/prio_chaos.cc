// prio_chaos: seeded, replayable chaos harness over the durability
// substrate.
//
// One u64 seed derives a whole run schedule -- shard count, fsync
// policy, AFE, epoch sizes, kill -9 victims and times,
// restart delays, torn-tail injections, dropped trailing batch records,
// per-server --fault-plan specs
// (store/fault.h), and the tamper/replay mix -- and the driver then runs
// that schedule against 3 external prio_server processes:
//
//   * every epoch's published aggregate is fetched from server 0 and must
//     be BIT-IDENTICAL (accepted count, sigma vector, typed result bytes)
//     to the plaintext reference (baseline/no_privacy.h): the sum of the
//     encodings of that epoch's untampered, first-delivered inputs;
//   * after every non-final epoch, each server's /metrics endpoint is
//     scraped until every shard lane's prio_lane_epoch gauge has advanced
//     past the verified epoch -- a lane that wedged fails the run;
//   * servers that die of injected faults (or scheduled kill -9) are
//     restarted from their --data-dir; recovery + mesh rejoin must
//     converge to the same aggregate regardless.
//
// The schedule is a pure function of the seed: `prio_chaos --seed X`
// reproduces the same kills, the same fault plans, and the same inputs
// bit-for-bit (the run prints the schedule up front so two runs can be
// diffed). Transient timing still varies run to run -- the invariant is
// that EVERY interleaving of the same schedule must produce the reference
// aggregate.
//
// Port discipline: bases are probed in 29200-32499, so every port a run
// binds lies in 29200-32701: disjoint from e2e_localhost.sh (bases
// 21000-28999, ports up to 29101) and bench_e2e (11000-18999), so
// concurrent ctest runs never collide, and below Linux's default
// ephemeral range (32768-60999), so no outgoing connection can take a
// downed victim's port as its source port. prio_chaos refuses to start
// on a host whose ephemeral range (/proc/sys/net/ipv4/ip_local_port_range)
// overlaps these ports.
//
// Usage:
//   prio_chaos --server-bin ./prio_server --seed 42
//   prio_chaos --server-bin ./prio_server --seed 100 --sweep 10
//   prio_chaos --server-bin ./prio_server --seed 7 --force-shards 2
//       --data-root /tmp/chaos
//
// --sweep N runs seeds seed..seed+N-1 and stops at the first failure,
// printing the failing seed and keeping its --data-root subdirectory
// (server logs + WALs + snapshots) for the post-mortem; a passing seed's
// directory is removed unless --keep is given.

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "afe/registry.h"
#include "baseline/no_privacy.h"
#include "core/client.h"
#include "net/tcp_transport.h"
#include "obs/stats_server.h"
#include "server/cli.h"
#include "server/protocol.h"
#include "store/wal.h"

using namespace prio;

namespace {

using F = Fp64;
constexpr size_t kServers = 3;
// Port bases; a run binds base + i, base + 100 + i and base + 200 + i for
// each server i, up to kPortRangeLast.
constexpr int kPortRangeStart = 29200;
constexpr int kPortRangeSpan = 3300;
constexpr int kPortRangeLast =
    kPortRangeStart + kPortRangeSpan - 1 + 200 + static_cast<int>(kServers) - 1;
static_assert(kPortRangeLast < 32768,
              "chaos ports must stay below Linux's default ephemeral range");

// ---------------------------------------------------------------------------
// Schedule derivation: a splitmix64 chain over the seed. Every draw happens
// in a fixed order before the run starts, so the schedule is bit-for-bit
// reproducible from the seed alone.
// ---------------------------------------------------------------------------

struct SplitMix {
  u64 s;
  u64 next() {
    u64 z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  u64 below(u64 n) { return next() % n; }
};

struct KillEvent {
  size_t victim = 0;
  u64 after_fresh = 0;       // kill once this many fresh submissions are in
  u64 restart_delay_ms = 0;  // down time before the restart
  bool torn_tail = false;    // append garbage to the victim's newest segment
  // Cut the victim's trailing committed-batch record: it restarts one
  // batch short and must be caught up over the mesh (kCatchUpBatch).
  bool drop_batch = false;
};

struct EpochPlan {
  std::vector<u64> fresh;       // fresh client ids, in send order
  std::vector<u64> tampered;    // subset of fresh: one flipped ciphertext
  std::vector<u64> replays;     // honest prior-epoch cids resent byte-for-byte
  std::vector<u64> replay_pos;  // insertion index of each replay in the order
  std::optional<KillEvent> kill;
};

struct Schedule {
  u64 seed = 0;
  std::string afe_spec;
  u64 master_seed = 0;
  size_t shards = 1;
  std::string fsync;
  u64 epoch_size = 0;
  u64 batch = 0;
  std::vector<EpochPlan> epochs;
  std::vector<std::string> fault_plans;  // per server; "" = none
};

bool contains(const std::vector<u64>& v, u64 x) {
  for (u64 e : v) {
    if (e == x) return true;
  }
  return false;
}

Schedule derive_schedule(u64 seed, size_t force_shards) {
  SplitMix r{seed};
  Schedule s;
  s.seed = seed;
  s.shards = force_shards ? force_shards : 1 + r.below(2);
  s.fsync = std::vector<std::string>{"epoch", "always", "off"}[r.below(3)];
  switch (r.below(3)) {
    case 0:
      s.afe_spec = "bitvec_sum:len=" + std::to_string(8 + r.below(9));
      break;
    case 1: s.afe_spec = "sum:bits=8"; break;
    default: s.afe_spec = "countmin:w=16,d=2"; break;
  }
  s.master_seed = r.next() >> 1;
  const u64 n_epochs = 2 + r.below(2);
  s.epoch_size = 12 + 4 * r.below(4);
  s.batch = 4 + 2 * r.below(3);

  for (u64 e = 0; e < n_epochs; ++e) {
    EpochPlan p;
    u64 replays = 0;
    std::vector<u64> prev_honest;
    if (e > 0) {
      const EpochPlan& prev = s.epochs.back();
      for (u64 cid : prev.fresh) {
        if (!contains(prev.tampered, cid)) prev_honest.push_back(cid);
      }
      replays = r.below(std::min<u64>(prev_honest.size(), 3) + 1);
    }
    // Replays of a prior epoch consume this epoch's quota as verify-rejects
    // (the replay floor), so the fresh count shrinks to keep the epoch at
    // exactly epoch_size announced submissions.
    const u64 fresh = s.epoch_size - replays;
    for (u64 i = 0; i < fresh; ++i) {
      const u64 cid = e * 1000 + i;
      p.fresh.push_back(cid);
      if (r.below(5) == 0) p.tampered.push_back(cid);
    }
    for (u64 i = 0; i < replays; ++i) {
      // Without replacement: swap-remove a random honest prior cid.
      const u64 idx = r.below(prev_honest.size());
      p.replays.push_back(prev_honest[idx]);
      prev_honest[idx] = prev_honest.back();
      prev_honest.pop_back();
      p.replay_pos.push_back(r.below(fresh + 1));
    }
    if (r.below(10) < 6) {
      KillEvent k;
      k.victim = r.below(kServers);
      k.after_fresh = 1 + r.below(fresh - 1);
      k.restart_delay_ms = 50 + r.below(400);
      k.torn_tail = r.below(2) == 0;
      p.kill = k;
    }
    s.epochs.push_back(std::move(p));
  }

  for (size_t j = 0; j < kServers; ++j) {
    std::string plan;
    if (r.below(2) == 0) {
      const u64 rules = 1 + r.below(2);
      for (u64 i = 0; i < rules; ++i) {
        std::string rule;
        switch (r.below(7)) {
          case 0:
            rule = "wal_append:eio:after=" + std::to_string(r.below(20));
            break;
          case 1:
            rule = "wal_append:short_write:after=" + std::to_string(r.below(20));
            break;
          case 2:
            rule = "wal_sync:eio:after=" + std::to_string(r.below(4));
            break;
          case 3:
            rule = "snap_write:eio:after=" + std::to_string(r.below(3));
            break;
          case 4:
            rule = "dir_fsync:eio:after=" + std::to_string(r.below(6)) +
                   ",count=2";
            break;
          case 5:
            rule = "mesh_send:delay:after=" + std::to_string(r.below(150)) +
                   ",count=" + std::to_string(1 + r.below(20)) + ",ms=" +
                   std::to_string(1 + r.below(12));
            break;
          default:
            rule = "mesh_send:drop:after=" + std::to_string(50 + r.below(250));
            break;
        }
        plan += (plan.empty() ? "" : ";") + rule;
      }
    }
    s.fault_plans.push_back(std::move(plan));
  }

  // Drawn last, so adding it kept every earlier seed's kill, fault and
  // input schedule.
  for (EpochPlan& p : s.epochs) {
    if (p.kill) p.kill->drop_batch = r.below(2) == 0;
  }
  return s;
}

void print_schedule(const Schedule& s) {
  std::printf(
      "chaos[%llu]: afe=%s master_seed=%llu shards=%zu fsync=%s "
      "epochs=%zu epoch_size=%llu batch=%llu\n",
      (unsigned long long)s.seed, s.afe_spec.c_str(),
      (unsigned long long)s.master_seed, s.shards, s.fsync.c_str(),
      s.epochs.size(), (unsigned long long)s.epoch_size,
      (unsigned long long)s.batch);
  for (size_t j = 0; j < kServers; ++j) {
    if (!s.fault_plans[j].empty()) {
      std::printf("chaos[%llu]:   s%zu fault plan: %s\n",
                  (unsigned long long)s.seed, j, s.fault_plans[j].c_str());
    }
  }
  for (size_t e = 0; e < s.epochs.size(); ++e) {
    const EpochPlan& p = s.epochs[e];
    std::printf("chaos[%llu]:   epoch %zu: fresh=%zu tampered=%zu replays=%zu",
                (unsigned long long)s.seed, e, p.fresh.size(),
                p.tampered.size(), p.replays.size());
    if (p.kill) {
      std::printf(" kill=s%zu@%llu+%llums%s%s", p.kill->victim,
                  (unsigned long long)p.kill->after_fresh,
                  (unsigned long long)p.kill->restart_delay_ms,
                  p.kill->drop_batch ? " drop_batch" : "",
                  p.kill->torn_tail ? " torn" : "");
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Process management: spawn, monitor, kill -9, restart.
// ---------------------------------------------------------------------------

struct Child {
  pid_t pid = -1;
  size_t id = 0;
  int restarts = 0;
  std::vector<std::string> argv;          // first spawn: may carry --fault-plan
  std::vector<std::string> restart_argv;  // restarts: plan stripped -- a fault
                                          // plan models a transient glitch, so
                                          // re-arming it on every restart would
                                          // crash-loop guaranteed-fatal rules
  std::string log_path;
};

pid_t spawn_server(const std::vector<std::string>& argv,
                   const std::string& log_path) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  // Child: stdout+stderr append to the per-server log (the failing run's
  // data dir keeps them for the post-mortem / CI artifact).
  const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd >= 0) {
    ::dup2(fd, 1);
    ::dup2(fd, 2);
    ::close(fd);
  }
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  ::execv(cargv[0], cargv.data());
  std::perror("prio_chaos: execv");
  ::_exit(127);
}

// Fails loud-and-sticky: any FAIL line carries the seed for the repro.
struct RunContext {
  u64 seed = 0;
  std::string fail_reason;
  bool failed() const { return !fail_reason.empty(); }
  void fail(const std::string& why) {
    if (fail_reason.empty()) fail_reason = why;
    std::fprintf(stderr, "chaos[%llu]: FAIL: %s\n", (unsigned long long)seed,
                 why.c_str());
  }
};

class Cluster {
 public:
  Cluster(RunContext* ctx, std::vector<Child> children, size_t shards,
          std::string seed_dir)
      : ctx_(ctx),
        children_(std::move(children)),
        shards_(shards),
        seed_dir_(std::move(seed_dir)) {}

  ~Cluster() {
    for (Child& c : children_) {
      if (c.pid > 0) {
        ::kill(c.pid, SIGKILL);
        ::waitpid(c.pid, nullptr, 0);
        c.pid = -1;
      }
    }
  }

  // Reaps servers that died on their own (an injected fault escalating to a
  // fatal exit is expected chaos) and restarts them from their data dirs.
  // Once final verification is done, deaths are logged but not restarted.
  void poll(bool restart = true) {
    for (Child& c : children_) {
      if (c.pid <= 0) continue;
      int st = 0;
      const pid_t got = ::waitpid(c.pid, &st, WNOHANG);
      if (got != c.pid) continue;
      c.pid = -1;
      std::fprintf(stderr, "chaos[%llu]: s%zu exited unexpectedly (%s %d)\n",
                   (unsigned long long)ctx_->seed, c.id,
                   WIFSIGNALED(st) ? "signal" : "status",
                   WIFSIGNALED(st) ? WTERMSIG(st) : WEXITSTATUS(st));
      if (!restart) continue;
      if (++c.restarts > 6) {
        ctx_->fail("s" + std::to_string(c.id) + " crash-looped (>6 restarts)");
        continue;
      }
      // Growing backoff between unexpected-death restarts: a restart can
      // still lose a fixed-port bind race against a transient squatter
      // (an unrelated process listening there; ephemeral source ports
      // cannot squat, since main() checks that their range misses ours),
      // and immediate respawns would burn the whole crash-loop budget
      // before the squatter lets go. Deterministic (attempt-derived, not
      // random), so schedules stay reproducible.
      std::this_thread::sleep_for(std::chrono::seconds(2 * c.restarts));
      c.pid = spawn_server(c.restart_argv, c.log_path);
      std::fprintf(stderr, "chaos[%llu]: restarted s%zu (pid %d)\n",
                   (unsigned long long)ctx_->seed, c.id, (int)c.pid);
    }
  }

  // Scheduled kill -9: SIGKILL; then, in one of the victim's shards
  // (picked by `shard_rng`), an optional dropped trailing batch record
  // and an optional torn tail in the newest WAL segment; a derived down
  // time, then the restart.
  void kill_restart(const KillEvent& k, SplitMix* shard_rng) {
    const unsigned long long seed = ctx_->seed;
    Child& c = children_[k.victim];
    if (k.drop_batch) {
      // Give the batches the victim already holds time to commit, so its
      // trailing record is most likely one to drop.
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
    }
    if (c.pid > 0) {
      ::kill(c.pid, SIGKILL);
      ::waitpid(c.pid, nullptr, 0);
      c.pid = -1;
    }
    std::fprintf(stderr, "chaos[%llu]: kill -9 s%zu%s%s\n", seed, k.victim,
                 k.drop_batch ? " (+drop batch)" : "",
                 k.torn_tail ? " (+torn tail)" : "");
    if (k.drop_batch || k.torn_tail) {
      char sub[32];
      std::snprintf(sub, sizeof(sub), "/shard-%02u",
                    (unsigned)shard_rng->below(shards_));
      const std::string dir =
          seed_dir_ + "/s" + std::to_string(k.victim) + sub;
      const auto epochs = store::list_wal_epochs(dir);
      if (!epochs.empty()) {
        const std::string seg = store::wal_segment_path(dir, epochs.back());
        if (k.drop_batch) {
          const bool dropped = store::drop_last_record(seg, store::kWalBatch);
          std::fprintf(stderr, "chaos[%llu]: s%zu%s: %s\n", seed, k.victim,
                       sub,
                       dropped ? "dropped the trailing batch record"
                               : "last record is not a batch; skipping the "
                                 "drop");
        }
        if (k.torn_tail) {
          if (std::FILE* f = std::fopen(seg.c_str(), "ab")) {
            const u8 garbage[] = {0xde, 0xad, 0xbe, 0xef, 0x17};
            (void)std::fwrite(garbage, 1, sizeof(garbage), f);
            std::fclose(f);
          }
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(k.restart_delay_ms));
    ++c.restarts;
    c.pid = spawn_server(c.restart_argv, c.log_path);
  }

  // End of run: everything alive should exit on its own once the last
  // epoch published. A process still running after the grace period is a
  // wedged drain and fails the run.
  void wait_all_exit(int grace_ms) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(grace_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      bool any = false;
      for (Child& c : children_) {
        if (c.pid <= 0) continue;
        int st = 0;
        if (::waitpid(c.pid, &st, WNOHANG) == c.pid) {
          if (WIFSIGNALED(st) || WEXITSTATUS(st) != 0) {
            std::fprintf(stderr,
                         "chaos[%llu]: s%zu exited nonzero during drain "
                         "(tolerated: faults may fire past the last publish)\n",
                         (unsigned long long)ctx_->seed, c.id);
          }
          c.pid = -1;
        } else {
          any = true;
        }
      }
      if (!any) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    for (Child& c : children_) {
      if (c.pid <= 0) continue;
      ctx_->fail("s" + std::to_string(c.id) +
                 " never exited after the final epoch (wedged drain)");
      ::kill(c.pid, SIGKILL);
      ::waitpid(c.pid, nullptr, 0);
      c.pid = -1;
    }
  }

 private:
  RunContext* ctx_;
  std::vector<Child> children_;
  size_t shards_;
  std::string seed_dir_;

  friend class Driver;
};

// ---------------------------------------------------------------------------
// Port probing (the C++ twin of pick_port_base in tests/e2e_localhost.sh,
// in the chaos range).
// ---------------------------------------------------------------------------

// The kernel's ephemeral port range, if it overlaps the chaos ports, as
// "lo-hi"; empty if it does not or the kernel does not say. While a victim
// is down, any outgoing connection may take one of its fixed ports as a
// source port in that range, and the restart then fails to bind.
std::string ephemeral_overlap() {
  std::FILE* f = std::fopen("/proc/sys/net/ipv4/ip_local_port_range", "r");
  if (f == nullptr) return {};
  int lo = 0, hi = 0;
  const bool read = std::fscanf(f, "%d %d", &lo, &hi) == 2;
  std::fclose(f);
  if (!read || hi < kPortRangeStart || lo > kPortRangeLast) return {};
  return std::to_string(lo) + "-" + std::to_string(hi);
}

bool port_free(int port) {
  try {
    net::Socket s = net::connect_tcp("127.0.0.1", (u16)port, 200);
    (void)s;
    return false;  // something answered
  } catch (const net::TransportError&) {
    return true;
  }
}

std::optional<int> pick_port_base(SplitMix* rng) {
  for (int attempt = 0; attempt < 16; ++attempt) {
    const int base = kPortRangeStart + (int)rng->below(kPortRangeSpan);
    bool busy = false;
    for (size_t i = 0; i < kServers && !busy; ++i) {
      busy = !port_free(base + (int)i) || !port_free(base + 100 + (int)i) ||
             !port_free(base + 200 + (int)i);
    }
    if (!busy) return base;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// The driver: runs one schedule against one cluster.
// ---------------------------------------------------------------------------

struct RunCfg {
  std::string server_bin;
  std::string data_root;
  bool keep = false;
};

class Driver {
 public:
  Driver(RunContext* ctx, Cluster* cluster, const Schedule& sched, int base)
      : ctx_(ctx), cluster_(cluster), sched_(sched), base_(base) {}

  // Delivers one sealed submission to server j, retrying through nacks,
  // dropped connections, and server restarts. Byte-identical resends are
  // idempotent at intake (WAL dedup at recovery, buffer try_emplace live).
  bool deliver(size_t j, u64 cid, const std::vector<u8>& blob) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (std::chrono::steady_clock::now() < deadline) {
      cluster_->poll();
      if (ctx_->failed()) return false;
      try {
        if (!conns_[j]) {
          conns_[j].emplace(net::connect_tcp(
              "127.0.0.1", (u16)(base_ + 100 + (int)j), 3000));
        }
        conns_[j]->send_frame(server::encode(server::ClientSubmit{cid, blob}));
        const auto ack =
            server::decode_submit_ack(conns_[j]->recv_frame(15'000));
        if (ack.value_or(false)) return true;
        // Nack (WAL budget / malformed): give the server a beat and retry.
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
      } catch (const net::TransportError&) {
        // Server down or connection poisoned by an injected fault.
        conns_[j].reset();
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
      }
    }
    ctx_->fail("delivery to s" + std::to_string(j) + " for cid " +
               std::to_string(cid) + " never acked");
    return false;
  }

  // Fetches epoch e's published aggregate from server 0, reconnecting
  // through crashes. Returns nullopt only on run failure.
  template <typename Afe>
  std::optional<server::Aggregate<F>> fetch(const Afe& afe,
                                            const afe::AfeSpec& spec,
                                            u32 epoch) {
    // Generous: after a kill the three servers' reestablish rounds are
    // only loosely coupled and can ping-pong (each new round closing the
    // links a peer just rebuilt) for several 20s-timeout cycles before
    // timing noise breaks the phase lock. A wedged deployment is still
    // caught -- it never publishes at all.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(240);
    while (std::chrono::steady_clock::now() < deadline) {
      cluster_->poll();
      if (ctx_->failed()) return std::nullopt;
      try {
        if (!conns_[0]) {
          conns_[0].emplace(
              net::connect_tcp("127.0.0.1", (u16)(base_ + 100), 3000));
        }
        conns_[0]->send_frame(server::encode(server::GetAggregate{
            epoch, afe::afe_wire_id(afe), spec.canonical()}));
        auto reply = server::decode_aggregate_reply<F>(
            conns_[0]->recv_frame(60'000), afe.k_prime());
        if (reply.rejected) {
          ctx_->fail("server 0 rejected our AFE spec");
          return std::nullopt;
        }
        const auto& agg = reply.published;
        if (!agg || agg->epoch != epoch ||
            agg->afe_id != afe::afe_wire_id(afe) ||
            agg->afe_spec != spec.canonical()) {
          ctx_->fail("malformed aggregate reply for epoch " +
                     std::to_string(epoch));
          return std::nullopt;
        }
        return std::move(reply.published);
      } catch (const net::TransportError&) {
        conns_[0].reset();
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
      }
    }
    ctx_->fail("epoch " + std::to_string(epoch) +
               " aggregate never became fetchable");
    return std::nullopt;
  }

  // No-lane-wedged gate: scrape every server's /metrics until each shard
  // lane's prio_lane_epoch gauge shows it entered epoch `want` or later.
  void assert_lanes_at(u32 want) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    std::vector<bool> ok(kServers, false);
    while (std::chrono::steady_clock::now() < deadline) {
      cluster_->poll();
      if (ctx_->failed()) return;
      bool all = true;
      for (size_t j = 0; j < kServers; ++j) {
        if (ok[j]) continue;
        const auto body = obs::http_get(
            "127.0.0.1", (u16)(base_ + 200 + (int)j), "/metrics");
        ok[j] = body && lanes_at_least(*body, want, sched_.shards);
        all = all && ok[j];
      }
      if (all) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    for (size_t j = 0; j < kServers; ++j) {
      if (!ok[j]) {
        ctx_->fail("s" + std::to_string(j) + " lane(s) wedged before epoch " +
                   std::to_string(want) + " (prio_lane_epoch stalled)");
      }
    }
  }

  static bool lanes_at_least(const std::string& metrics, u32 want,
                             size_t shards) {
    size_t seen = 0, pos = 0;
    const std::string key = "prio_lane_epoch{";
    while ((pos = metrics.find(key, pos)) != std::string::npos) {
      const size_t sp = metrics.find(' ', pos);
      const size_t nl = metrics.find('\n', pos);
      if (sp == std::string::npos || nl == std::string::npos || sp > nl) {
        return false;
      }
      const long v = std::strtol(metrics.c_str() + sp + 1, nullptr, 10);
      if (v < (long)want) return false;
      ++seen;
      pos = nl;
    }
    return seen >= shards;
  }

  std::optional<net::FramedConn> conns_[kServers];

 private:
  RunContext* ctx_;
  Cluster* cluster_;
  const Schedule& sched_;
  int base_;
};

// ---------------------------------------------------------------------------
// One full seeded run for a concrete AFE type.
// ---------------------------------------------------------------------------

template <typename Afe>
bool run_schedule(const Afe& afe, const afe::AfeSpec& spec,
                  const Schedule& sched, const RunCfg& cfg) {
  RunContext ctx;
  ctx.seed = sched.seed;

  // Ports come from a chain separate from the schedule's, so a busy port
  // (and its retries) can never shift what the seed means.
  SplitMix port_rng{sched.seed ^ 0x504f525453ull};
  const auto base_opt = pick_port_base(&port_rng);
  if (!base_opt) {
    ctx.fail("no free port base in " + std::to_string(kPortRangeStart) + "-" +
             std::to_string(kPortRangeStart + kPortRangeSpan - 1));
    return false;
  }
  const int base = *base_opt;

  const std::string seed_dir =
      cfg.data_root + "/seed-" + std::to_string(sched.seed);
  std::filesystem::create_directories(seed_dir);

  std::string servers_list;
  for (size_t j = 0; j < kServers; ++j) {
    servers_list += (j ? "," : "");
    servers_list += "127.0.0.1:" + std::to_string(base + (int)j) + ":" +
                    std::to_string(base + 100 + (int)j);
  }

  std::vector<Child> children;
  for (size_t j = 0; j < kServers; ++j) {
    Child c;
    c.id = j;
    c.log_path = seed_dir + "/s" + std::to_string(j) + ".log";
    c.argv = {cfg.server_bin,
              "--id", std::to_string(j),
              "--servers", servers_list,
              "--afe", spec.canonical(),
              "--master-seed", std::to_string(sched.master_seed),
              "--epoch-size", std::to_string(sched.epoch_size),
              "--batch", std::to_string(sched.batch),
              "--epochs", std::to_string(sched.epochs.size()),
              "--shards", std::to_string(sched.shards),
              "--announce-wait-ms", "20000",
              "--rejoin-timeout-ms", "60000",
              "--mesh-timeout-ms", "20000",
              "--fsync", sched.fsync,
              "--data-dir", seed_dir + "/s" + std::to_string(j),
              "--stats-port", std::to_string(base + 200 + (int)j)};
    c.restart_argv = c.argv;
    if (!sched.fault_plans[j].empty()) {
      c.argv.insert(c.argv.end(), {"--fault-plan", sched.fault_plans[j]});
    }
    c.pid = spawn_server(c.argv, c.log_path);
    children.push_back(std::move(c));
  }

  Cluster cluster(&ctx, std::move(children), sched.shards, seed_dir);
  Driver driver(&ctx, &cluster, sched, base);
  SplitMix shard_rng{sched.seed ^ 0x544f524eull};

  // The plaintext reference spans all epochs, so a replay of an earlier
  // epoch's client is never counted again -- the servers' replay floors
  // persist across epochs too.
  PrioClient<F, Afe> client(&afe, kServers, sched.master_seed);
  baseline::PlaintextReference<F, Afe> ref(&afe);
  SecureRng rng = SecureRng::from_os_entropy();
  std::map<u64, std::vector<std::vector<u8>>> enc;  // bytes as sent

  for (size_t e = 0; e < sched.epochs.size() && !ctx.failed(); ++e) {
    const EpochPlan& plan = sched.epochs[e];

    // Merged send order: fresh cids with replays spliced in at their
    // schedule-derived positions.
    struct Item {
      u64 cid;
      bool replay;
    };
    std::vector<Item> order;
    order.reserve(plan.fresh.size() + plan.replays.size());
    for (u64 cid : plan.fresh) order.push_back({cid, false});
    for (size_t i = 0; i < plan.replays.size(); ++i) {
      const size_t pos = std::min<size_t>(plan.replay_pos[i], order.size());
      order.insert(order.begin() + (long)pos, {plan.replays[i], true});
    }

    u64 fresh_sent = 0;
    bool kill_done = !plan.kill.has_value();
    for (const Item& item : order) {
      if (!kill_done && fresh_sent == plan.kill->after_fresh) {
        driver.conns_[plan.kill->victim].reset();
        cluster.kill_restart(*plan.kill, &shard_rng);
        kill_done = true;
      }
      if (!item.replay) {
        auto blobs =
            client.upload(afe::sample_input(afe, item.cid), item.cid, rng);
        if (contains(plan.tampered, item.cid)) {
          blobs[item.cid % kServers][12] ^= 1;
        } else {
          ref.add(item.cid, afe::sample_input(afe, item.cid));
        }
        enc[item.cid] = std::move(blobs);
        ++fresh_sent;
      }
      const auto& blobs = enc[item.cid];
      for (size_t j = 0; j < kServers; ++j) {
        if (!driver.deliver(j, item.cid, blobs[j])) break;
      }
      if (ctx.failed()) break;
    }
    if (!kill_done && !ctx.failed()) {
      // after_fresh == fresh count: the kill lands after the last send.
      driver.conns_[plan.kill->victim].reset();
      cluster.kill_restart(*plan.kill, &shard_rng);
    }
    if (ctx.failed()) break;

    const auto got = driver.fetch(afe, spec, (u32)e);
    if (!got) break;
    if (got->accepted != ref.accepted() || got->sigma != ref.sigma() ||
        got->typed_result != afe::result_bytes(afe, ref.result())) {
      ctx.fail("epoch " + std::to_string(e) + " aggregate DIVERGES from the "
               "plaintext reference (accepted " +
               std::to_string(got->accepted) + " vs " +
               std::to_string(ref.accepted()) + ")");
      break;
    }
    std::printf("chaos[%llu]: epoch %zu ok: accepted=%llu/%zu (bit-identical "
                "to reference)\n",
                (unsigned long long)sched.seed, e,
                (unsigned long long)ref.accepted(), order.size());
    std::fflush(stdout);
    ref.next_epoch();

    // No lane may wedge between epochs (the final epoch's liveness gate is
    // the servers' own clean exit below).
    if (e + 1 < sched.epochs.size()) driver.assert_lanes_at((u32)(e + 1));
  }

  if (!ctx.failed()) {
    for (auto& conn : driver.conns_) conn.reset();
    cluster.wait_all_exit(30'000);
  }

  if (ctx.failed()) {
    std::printf("chaos[%llu]: FAIL (%s)\n", (unsigned long long)sched.seed,
                ctx.fail_reason.c_str());
    std::printf("chaos[%llu]: data kept at %s\n",
                (unsigned long long)sched.seed, seed_dir.c_str());
    std::printf("chaos[%llu]: reproduce with: prio_chaos --server-bin %s "
                "--seed %llu\n",
                (unsigned long long)sched.seed, cfg.server_bin.c_str(),
                (unsigned long long)sched.seed);
    std::fflush(stdout);
    return false;
  }
  std::printf("chaos[%llu]: PASS\n", (unsigned long long)sched.seed);
  std::fflush(stdout);
  if (!cfg.keep) {
    std::error_code ec;
    std::filesystem::remove_all(seed_dir, ec);
  }
  return true;
}

bool run_seed(u64 seed, size_t force_shards, const RunCfg& cfg) {
  const Schedule sched = derive_schedule(seed, force_shards);
  print_schedule(sched);
  return afe::with_afe<F>(
             afe::parse_afe_spec(sched.afe_spec),
             [&](const auto& afe_obj, const afe::AfeSpec& norm) {
               return run_schedule(afe_obj, norm, sched, cfg) ? 0 : 1;
             }) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    server::Flags flags(argc, argv);
    RunCfg cfg;
    cfg.server_bin = flags.str("server-bin", "");
    if (cfg.server_bin.empty()) {
      std::fprintf(stderr, "prio_chaos: --server-bin PATH is required\n");
      return 2;
    }
    cfg.keep = flags.has("keep");
    cfg.data_root = flags.str("data-root", "");
    const u64 seed = flags.num("seed", 1);
    const u64 sweep = flags.num("sweep", 1);
    const size_t force_shards = flags.num("force-shards", 0);
    flags.reject_unread();
    if (const std::string eph = ephemeral_overlap(); !eph.empty()) {
      std::fprintf(stderr,
                   "prio_chaos: fatal: the ephemeral port range %s "
                   "(/proc/sys/net/ipv4/ip_local_port_range) overlaps the "
                   "chaos ports %d-%d; a restarted victim could find its "
                   "port taken as a source port\n",
                   eph.c_str(), kPortRangeStart, kPortRangeLast);
      return 1;
    }
    const std::string force_arg =
        force_shards ? " --force-shards " + std::to_string(force_shards) : "";

    bool temp_root = false;
    if (cfg.data_root.empty()) {
      char tmpl[] = "/tmp/prio_chaos.XXXXXX";
      const char* d = ::mkdtemp(tmpl);
      require(d != nullptr, "prio_chaos: mkdtemp failed");
      cfg.data_root = d;
      temp_root = true;
    } else {
      std::filesystem::create_directories(cfg.data_root);
    }

    u64 passed = 0;
    for (u64 i = 0; i < sweep; ++i) {
      if (!run_seed(seed + i, force_shards, cfg)) {
        std::printf("prio_chaos: FAILING SEED=%llu (reproduce: prio_chaos "
                    "--server-bin %s --seed %llu%s)\n",
                    (unsigned long long)(seed + i), cfg.server_bin.c_str(),
                    (unsigned long long)(seed + i), force_arg.c_str());
        std::printf("prio_chaos: failing run data: %s\n",
                    cfg.data_root.c_str());
        return 1;
      }
      ++passed;
    }
    std::printf("prio_chaos: PASS (%llu/%llu seeds)\n",
                (unsigned long long)passed, (unsigned long long)sweep);
    if (temp_root && !cfg.keep) {
      std::error_code ec;
      std::filesystem::remove_all(cfg.data_root, ec);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "prio_chaos: fatal: %s\n", e.what());
    return 1;
  }
}
