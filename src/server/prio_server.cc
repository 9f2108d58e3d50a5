// prio_server: one Prio server as an OS process.
//
// Runs the full distributed pipeline for any AFE in the runtime catalogue
// (afe/registry.h): accepts sealed client submissions over TCP,
// coordinates count-delimited epochs with its peer servers, runs the
// batched two-round SNIP verification protocol over the server mesh, and
// (on server 0) publishes each epoch's typed aggregate to asking clients.
//
// A three-server deployment on localhost:
//
//   SERVERS=127.0.0.1:9101:9201,127.0.0.1:9102:9202,127.0.0.1:9103:9203
//   AFE=countmin:w=256,d=4
//   ./prio_server --id 0 --servers $SERVERS --afe $AFE --epoch-size 40 &
//   ... same for --id 1 and --id 2 ...
//   ./prio_client --servers $SERVERS --afe $AFE --clients 40 --expect-clients 40
//
// Every server must be started with the same --servers list, --master-seed,
// --afe, --epoch-size, --batch, --epochs, and --shards (--afe agreement is
// enforced at mesh sync; the rest fail loudly in-protocol). --batch may not
// exceed the refresh window of 1024 submissions (each batch is verified
// under one secret point r); a larger value fails start-up. The mesh recv
// timeout is --announce-wait-ms plus 60 s. An unknown flag (a typo, or one
// a previous release accepted, like --len, --refresh-every,
// --recv-timeout-ms or --linger-ms) fails start-up with its name. Exit
// code 0 means all epochs completed (and, on server 0, were published).
//
// Sharding (--shards N, default 1): the mesh carries N lanes, and the
// ServerRouter (server/router.h) builds one ShardRuntime per lane -- client
// ids are hashed to a shard, and N independent batch lanes run through the
// one peer mesh concurrently (the mesh keeps one framed connection per
// peer and lane). This file only reads flags and opens the stores,
// listeners, mesh and stats endpoint; the router assembles the lanes. All
// servers must agree on N.
//
// Durability: with --data-dir DIR the server WAL-logs every accepted
// intake blob and every committed batch, snapshots its protocol state at
// epoch boundaries, and -- restarted with the same --data-dir after a
// crash (even kill -9 mid-epoch) -- recovers, rejoins the mesh, and the
// epoch completes with the same published aggregate as an uninterrupted
// run. The layout is DIR/shard-00 ... DIR/shard-NN, one store per shard,
// each recovered independently (--shards 1 is DIR/shard-00). --fsync
// always|epoch|off picks the durability/throughput trade-off (store/wal.h);
// --rejoin-timeout-ms bounds how long a surviving server waits for a
// crashed peer to come back.

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "afe/registry.h"
#include "crypto/chacha20.h"
#include "obs/stats_server.h"
#include "obs/trace.h"
#include "server/cli.h"
#include "server/router.h"
#include "store/fault.h"
#include "store/recovery.h"

using namespace prio;

namespace {

using F = Fp64;

// The installed --fault-plan (chaos testing, store/fault.h). Process-wide
// and immortal: the seams may tick it from any thread until exit.
std::unique_ptr<store::FaultPlan> g_fault_plan;

// The whole runtime for one concrete AFE type; instantiated once per
// catalogue entry by the with_afe dispatch in main.
template <typename Afe>
int run_server(const Afe& afe, const afe::AfeSpec& spec,
               const server::Flags& flags,
               const server::CommonConfig& common) {
  const auto& endpoints = common.endpoints;
  const size_t id = flags.num("id", 0);
  require(id < endpoints.size(), "--id out of range of --servers");
  const size_t shards = common.shards;

  // Every flag is read before reject_unread() below, and that runs before
  // anything touches the disk or the network: an unknown flag fails
  // start-up with nothing half done.
  const bool has_fault_plan = flags.has("fault-plan");
  const std::string fault_spec = flags.str("fault-plan", "");
  const bool durable = flags.has("data-dir");
  const std::string data_root = flags.str("data-dir", "");
  const auto fsync_policy =
      store::parse_fsync_policy(flags.str("fsync", "epoch"));
  require(fsync_policy.has_value(), "--fsync must be always, epoch, or off");
  const std::string trace_path = flags.str("trace-log", "");
  const std::string bind_host = flags.str("bind", "0.0.0.0");
  const int mesh_timeout_ms =
      static_cast<int>(flags.num("mesh-timeout-ms", 30'000));
  const int rejoin_timeout_ms =
      static_cast<int>(flags.num("rejoin-timeout-ms", 120'000));
  const bool has_stats = flags.has("stats-port");
  const u64 stats_port = flags.num("stats-port", 0);
  require(stats_port <= 65535, "--stats-port must be 0..65535");

  ServerNodeConfig base_cfg;
  base_cfg.num_servers = endpoints.size();
  base_cfg.self = id;
  base_cfg.master_seed = common.master_seed;

  server::RuntimeOptions opts;
  opts.epoch_size = flags.num("epoch-size", 64);
  opts.max_batch = flags.num("batch", 64);
  opts.epochs = static_cast<u32>(flags.num("epochs", 1));
  opts.announce_wait_ms =
      static_cast<int>(flags.num("announce-wait-ms", 60'000));
  opts.afe_spec = spec.canonical();
  flags.reject_unread();
  server::require_batch_within_refresh_window(opts, base_cfg);
  // Followers block in recv for the leader's next announcement while the
  // leader may legitimately wait announce_wait_ms for a batch to fill, so
  // the mesh recv timeout must comfortably exceed that.
  const int recv_timeout_ms = opts.announce_wait_ms + 60'000;

  // Seeded fault injection (--fault-plan SPEC, store/fault.h): armed
  // before any store or mesh exists so the very first I/O can fault.
  if (has_fault_plan) {
    std::string err;
    auto plan = store::FaultPlan::parse(fault_spec, &err);
    if (!plan) {
      std::fprintf(stderr, "prio_server: bad --fault-plan: %s\n", err.c_str());
      return 1;
    }
    g_fault_plan = std::make_unique<store::FaultPlan>(std::move(*plan));
    store::install_fault_plan(g_fault_plan.get());
    std::fprintf(stderr, "[server %zu] fault plan armed: %s\n", id,
                 fault_spec.c_str());
  }

  // Observability (src/obs/): the registry is always attached -- hot-path
  // recording is a relaxed atomic per event -- while the HTTP endpoint
  // (--stats-port) and the JSONL trace (--trace-log FILE) are opt-in.
  obs::Registry registry;
  opts.metrics = &registry;
  std::unique_ptr<obs::TraceLog> trace;
  if (!trace_path.empty()) {
    trace = obs::TraceLog::open(trace_path);
    opts.trace = trace.get();
  }

  // Durable epoch stores (optional), one per shard in DIR/shard-NN:
  // opened before the mesh so a corrupt directory fails fast, handed to
  // the router, which recovers each lane from its own.
  std::vector<std::unique_ptr<store::EpochStore>> stores(shards);
  if (durable) {
    // EpochStore mkdirs only its own directory; the root has to exist
    // first.
    ::mkdir(data_root.c_str(), 0777);
    for (size_t l = 0; l < shards; ++l) {
      char sub[32];
      std::snprintf(sub, sizeof(sub), "/shard-%02u", static_cast<unsigned>(l));
      stores[l] = std::make_unique<store::EpochStore>(data_root + sub,
                                                      *fsync_policy);
      stores[l]->attach_metrics(&registry, obs::label_kv("shard", l));
    }
  }

  // Listen before dialing, so peers starting in any order can connect.
  // Binds all interfaces by default so the mesh can span hosts (the
  // --servers entries carry the routable addresses peers dial).
  net::TcpListener peer_listener(endpoints[id].peer_port, bind_host);
  net::TcpListener client_listener(endpoints[id].client_port, bind_host);
  std::fprintf(stderr,
               "[server %zu] afe=%s peers=%u clients=%u shards=%zu "
               "chacha20=%s crc32=%s; joining mesh...\n",
               id, opts.afe_spec.c_str(), peer_listener.port(),
               client_listener.port(), shards, ChaCha20::core_name(),
               store::crc32_core_name());
  const std::vector<u8> mesh_secret = master_seed_bytes(base_cfg.master_seed);
  net::TcpMeshTransport mesh(id, server::peer_addrs(endpoints),
                             &peer_listener, mesh_secret, mesh_timeout_ms,
                             recv_timeout_ms, shards);
  // A crashed peer needs time to restart and redial before a surviving
  // server gives up on re-establishing the mesh.
  mesh.set_reestablish_timeout_ms(rejoin_timeout_ms);
  mesh.attach_metrics(&registry);
  std::fprintf(stderr, "[server %zu] mesh up (%zu servers, %zu lanes)\n", id,
               mesh.num_nodes(), mesh.lanes());

  // The router builds one node + shard runtime per mesh lane and recovers
  // each lane from its store (a failure throws, naming the shard).
  server::ServerRouter<F, Afe> router(&afe, &mesh, &client_listener, opts,
                                      base_cfg, std::move(stores));

  // Live stats endpoint (--stats-port N; 0 picks an ephemeral port). The
  // handler thread only reads atomics -- per-lane protocol state is
  // mirrored into gauges by each lane thread at quiescent points
  // (ShardRuntime::update_lane_gauges), never read from the nodes here.
  std::unique_ptr<obs::StatsServer> stats;
  if (has_stats) {
    auto extra = [&registry, &opts, id, shards]() {
      std::string out;
      out += "\"server\": {\"id\": " + std::to_string(id) +
             ", \"shards\": " + std::to_string(shards) +
             ", \"epochs\": " + std::to_string(opts.epochs) +
             ", \"epoch_size\": " + std::to_string(opts.epoch_size) +
             ", \"chacha_core\": \"" + ChaCha20::core_name() +
             "\", \"crc_core\": \"" + store::crc32_core_name() +
             "\"},\n  \"shards\": [";
      for (size_t l = 0; l < shards; ++l) {
        const std::string lab = obs::label_kv("shard", l);
        out += l ? ", {" : "{";
        out += "\"shard\": " + std::to_string(l);
        out += ", \"epoch\": " +
               std::to_string(registry.gauge("prio_lane_epoch", "", lab)->get());
        out += ", \"generation\": " +
               std::to_string(
                   registry.gauge("prio_lane_generation", "", lab)->get());
        out += ", \"processed\": " +
               std::to_string(
                   registry.gauge("prio_lane_processed", "", lab)->get());
        out += ", \"accepted\": " +
               std::to_string(
                   registry.gauge("prio_lane_accepted", "", lab)->get());
        out += "}";
      }
      out += "],\n  \"totals\": {";
      out += "\"intake_accepted\": " +
             std::to_string(registry.total("prio_intake_accepted_total"));
      out += ", \"intake_rejected\": " +
             std::to_string(registry.total("prio_intake_rejected_total"));
      out += ", \"verify_accepted\": " +
             std::to_string(registry.total("prio_verify_accepted_total"));
      out += ", \"verify_rejected\": " +
             std::to_string(registry.total("prio_verify_rejected_total"));
      out += ", \"replay_hits\": " +
             std::to_string(registry.total("prio_replay_hits_total"));
      out += ", \"batches_committed\": " +
             std::to_string(registry.total("prio_batches_committed_total"));
      out += ", \"batch_aborts\": " +
             std::to_string(registry.total("prio_batch_aborts_total"));
      out += ", \"wal_rotations\": " +
             std::to_string(registry.total("prio_wal_rotations_total"));
      out += "}";
      return out;
    };
    stats = std::make_unique<obs::StatsServer>(
        static_cast<u16>(stats_port), &registry, std::move(extra), bind_host);
    std::fprintf(stderr, "[server %zu] stats endpoint on port %u\n", id,
                 stats->port());
  }

  std::thread intake([&] { router.serve_clients(); });

  // The intake thread must be joined on every path out of the epoch loop;
  // letting an exception unwind past a joinable std::thread would turn a
  // reportable protocol failure into std::terminate.
  int rc = 0;
  try {
    auto last = router.run_epochs();
    if (last) {
      std::printf("[server %zu] epoch %u published: accepted=%llu sigma=[",
                  id, last->epoch,
                  static_cast<unsigned long long>(last->accepted));
      const size_t show = std::min<size_t>(last->sigma.size(), 8);
      for (size_t i = 0; i < show; ++i) {
        std::printf("%s%llu", i ? " " : "",
                    static_cast<unsigned long long>(last->sigma[i].to_u64()));
      }
      std::printf("%s]\n", last->sigma.size() > show ? " ..." : "");
      std::fflush(stdout);
    }
    router.drain_and_stop();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "prio_server: fatal: %s\n", e.what());
    router.stop();
    rc = 1;
  }
  intake.join();
  u64 processed = 0;
  for (size_t l = 0; l < shards; ++l) {
    processed += router.shard(l)->node()->processed();
  }
  std::fprintf(stderr, "[server %zu] done (%llu submissions processed)\n",
               id, static_cast<unsigned long long>(processed));
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    server::Flags flags(argc, argv);
    const auto common = server::parse_common_config(flags);
    return afe::with_afe<F>(
        common.spec, [&](const auto& afe_obj, const afe::AfeSpec& norm) {
          return run_server(afe_obj, norm, flags, common);
        });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "prio_server: fatal: %s\n", e.what());
    return 1;
  }
}
