// In-process Prio cluster over real TCP sockets.
//
// Runs N prio_server runtimes (router + per-shard lanes + mesh) inside one
// process, each on its own thread, with every listener bound to an
// ephemeral loopback port -- the exact wiring of src/server/prio_server.cc
// minus argv and durable stores. Frames cross real sockets, so everything
// a multi-process deployment exercises (framing, the sealed mesh, the
// client protocol, lane multiplexing) is exercised here too; only process
// isolation is elided.
//
// This is the harness the load generator (tools/prio_loadgen.cc) and the
// registry e2e tests (tests/test_registry.cc) build per-AFE clusters with:
//
//   server::InprocCluster<F, Afe> cluster(&afe, opts);   // starts servers
//   ... connect to cluster.client_port(j), run the client protocol ...
//   auto agg = cluster.finish();       // joins; server 0's last aggregate
//
// Client listeners exist as soon as the constructor returns (connections
// queue in the accept backlog until the mesh is up and intake starts), so
// callers never race the servers' startup. Any server thread's exception
// is captured and rethrown from finish().
#pragma once

#include <exception>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "obs/stats_server.h"
#include "server/router.h"

namespace prio::server {

template <PrimeField F, typename Afe>
class InprocCluster {
 public:
  using Node = ServerNode<F, Afe>;
  using Router = ServerRouter<F, Afe>;
  using EpochAggregate = typename Node::EpochAggregate;

  struct Options {
    size_t num_servers = 3;
    size_t shards = 1;
    u64 master_seed = 1;
    size_t batch_threads = 1;
    int mesh_timeout_ms = 15'000;
    int recv_timeout_ms = 60'000;
    // With stats=true every server gets its own obs::Registry and server 0
    // additionally serves /metrics + /stats.json on an ephemeral loopback
    // port (stats_port()) -- the in-process mirror of prio_server
    // --stats-port, used by prio_loadgen --scrape self and the tests.
    bool stats = false;
    RuntimeOptions runtime;  // afe_spec must name the cluster's AFE
  };

  InprocCluster(const Afe* afe, Options opts)
      : afe_(afe), opts_(std::move(opts)), results_(opts_.num_servers) {
    require(opts_.num_servers >= 2, "InprocCluster: need at least 2 servers");
    // All listeners exist before any server thread dials: peers can start
    // in any order, and client connections queue until intake runs.
    std::vector<net::TcpMeshTransport::PeerAddr> addrs;
    for (size_t i = 0; i < opts_.num_servers; ++i) {
      peer_listeners_.push_back(std::make_unique<net::TcpListener>(0));
      client_listeners_.push_back(std::make_unique<net::TcpListener>(0));
      addrs.push_back({"127.0.0.1", peer_listeners_.back()->port()});
      if (opts_.stats) registries_.push_back(std::make_unique<obs::Registry>());
    }
    if (opts_.stats) {
      // Instruments register concurrently from the server threads below;
      // the Registry serializes registration against scrapes, so the
      // endpoint can come up first.
      obs::Registry* reg = registries_[0].get();
      const size_t shards = opts_.shards;
      stats_ = std::make_unique<obs::StatsServer>(0, reg, [reg, shards]() {
        std::string out = "\"server\": {\"id\": 0, \"shards\": " +
                          std::to_string(shards) + "},\n  \"totals\": {";
        out += "\"intake_accepted\": " +
               std::to_string(reg->total("prio_intake_accepted_total"));
        out += ", \"intake_rejected\": " +
               std::to_string(reg->total("prio_intake_rejected_total"));
        out += ", \"verify_accepted\": " +
               std::to_string(reg->total("prio_verify_accepted_total"));
        out += ", \"verify_rejected\": " +
               std::to_string(reg->total("prio_verify_rejected_total"));
        out += ", \"replay_hits\": " +
               std::to_string(reg->total("prio_replay_hits_total"));
        out += ", \"batches_committed\": " +
               std::to_string(reg->total("prio_batches_committed_total"));
        out += "}";
        return out;
      });
    }
    for (size_t i = 0; i < opts_.num_servers; ++i) {
      threads_.emplace_back([this, addrs, i] { run_server(addrs, i); });
    }
  }

  ~InprocCluster() {
    try {
      finish();
    } catch (...) {
      // finish() already ran and rethrew, or the caller never asked for
      // the result; either way destruction must not terminate.
    }
  }

  u16 client_port(size_t i) const { return client_listeners_.at(i)->port(); }
  size_t num_servers() const { return opts_.num_servers; }

  // Server 0's stats endpoint port; only valid with Options::stats.
  u16 stats_port() const {
    require(stats_ != nullptr, "InprocCluster: stats not enabled");
    return stats_->port();
  }
  // Server i's registry (scrape-time reads only); null without stats.
  const obs::Registry* registry(size_t i) const {
    return opts_.stats ? registries_.at(i).get() : nullptr;
  }

  // Joins every server thread, rethrows the first captured failure, and
  // returns server 0's last published epoch aggregate.
  std::optional<EpochAggregate> finish() {
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
    for (auto& r : results_) {
      if (r.error) std::rethrow_exception(r.error);
    }
    return results_[0].last;
  }

 private:
  struct ServerResult {
    std::optional<EpochAggregate> last;
    std::exception_ptr error;
  };

  // One server's whole lifetime; mirrors prio_server.cc's main.
  void run_server(const std::vector<net::TcpMeshTransport::PeerAddr>& addrs,
                  size_t id) {
    try {
      const std::vector<u8> secret = master_seed_bytes(opts_.master_seed);
      net::TcpMeshTransport mesh(id, addrs, peer_listeners_[id].get(), secret,
                                 opts_.mesh_timeout_ms, opts_.recv_timeout_ms,
                                 opts_.shards);
      RuntimeOptions runtime = opts_.runtime;
      if (opts_.stats) {
        runtime.metrics = registries_[id].get();
        mesh.attach_metrics(registries_[id].get());
      }
      ThreadPool pool(opts_.batch_threads);
      Router router(afe_, &mesh, client_listeners_[id].get(), runtime);
      std::vector<std::unique_ptr<net::LaneTransport>> lanes;
      std::vector<std::unique_ptr<Node>> nodes;
      std::vector<std::unique_ptr<typename Router::Shard>> shard_runtimes;
      for (size_t l = 0; l < opts_.shards; ++l) {
        lanes.push_back(std::make_unique<net::LaneTransport>(&mesh, l));
        ServerNodeConfig cfg;
        cfg.num_servers = opts_.num_servers;
        cfg.self = id;
        cfg.master_seed = opts_.master_seed;
        cfg.lane = l;
        cfg.shared_pool = &pool;
        cfg.metrics = runtime.metrics;
        nodes.push_back(std::make_unique<Node>(afe_, cfg, lanes.back().get()));
        shard_runtimes.push_back(std::make_unique<typename Router::Shard>(
            nodes.back().get(), lanes.back().get(), &router, runtime,
            opts_.shards));
        router.add_shard(shard_runtimes.back().get());
      }
      router.finish_setup();
      std::thread intake([&] { router.serve_clients(); });
      try {
        results_[id].last = router.run_epochs();
        router.drain_and_stop();
      } catch (...) {
        results_[id].error = std::current_exception();
        router.stop();
      }
      intake.join();
    } catch (...) {
      results_[id].error = std::current_exception();
    }
  }

  const Afe* afe_;
  Options opts_;
  std::vector<std::unique_ptr<obs::Registry>> registries_;
  std::unique_ptr<obs::StatsServer> stats_;
  std::vector<std::unique_ptr<net::TcpListener>> peer_listeners_;
  std::vector<std::unique_ptr<net::TcpListener>> client_listeners_;
  std::vector<ServerResult> results_;
  std::vector<std::thread> threads_;
};

}  // namespace prio::server
