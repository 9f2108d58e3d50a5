// In-process Prio cluster over real TCP sockets.
//
// Runs three prio_server runtimes inside one process, each on its own
// thread, with every listener bound to an ephemeral loopback port: each
// server is a TcpMeshTransport plus the ServerRouter that builds its lanes,
// as in src/server/prio_server.cc minus argv, stores and the stats
// endpoint. Frames cross real sockets, so everything a multi-process
// deployment exercises (framing, the sealed mesh, the client protocol,
// lane multiplexing) is exercised here too; only process isolation is
// elided.
//
// The registry e2e tests (tests/test_registry.cc) build per-AFE clusters
// with it:
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

#include "server/router.h"

namespace prio::server {

template <PrimeField F, typename Afe>
class InprocCluster {
 public:
  using Router = ServerRouter<F, Afe>;
  using EpochAggregate = typename Router::EpochAggregate;

  static constexpr size_t kServers = 3;

  struct Options {
    size_t shards = 1;
    u64 master_seed = 1;
    RuntimeOptions runtime;  // afe_spec must name the cluster's AFE
  };

  InprocCluster(const Afe* afe, Options opts)
      : afe_(afe), opts_(std::move(opts)), results_(kServers) {
    // All listeners exist before any server thread dials: peers can start
    // in any order, and client connections queue until intake runs.
    std::vector<net::TcpMeshTransport::PeerAddr> addrs;
    for (size_t i = 0; i < kServers; ++i) {
      peer_listeners_.push_back(std::make_unique<net::TcpListener>(0));
      client_listeners_.push_back(std::make_unique<net::TcpListener>(0));
      addrs.push_back({"127.0.0.1", peer_listeners_.back()->port()});
    }
    for (size_t i = 0; i < kServers; ++i) {
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

  // One server's whole lifetime.
  void run_server(const std::vector<net::TcpMeshTransport::PeerAddr>& addrs,
                  size_t id) {
    try {
      const std::vector<u8> secret = master_seed_bytes(opts_.master_seed);
      net::TcpMeshTransport mesh(id, addrs, peer_listeners_[id].get(), secret,
                                 /*setup_timeout_ms=*/15'000,
                                 /*recv_timeout_ms=*/60'000, opts_.shards);
      ServerNodeConfig cfg;
      cfg.num_servers = kServers;
      cfg.self = id;
      cfg.master_seed = opts_.master_seed;
      Router router(afe_, &mesh, client_listeners_[id].get(), opts_.runtime,
                    cfg);
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
  std::vector<std::unique_ptr<net::TcpListener>> peer_listeners_;
  std::vector<std::unique_ptr<net::TcpListener>> client_listeners_;
  std::vector<ServerResult> results_;
  std::vector<std::thread> threads_;
};

}  // namespace prio::server
