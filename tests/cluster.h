// The in-process cluster the mesh test suites share, and the workload
// helpers they build its inputs with.
//
// Cluster runs one ServerRouter per server thread -- the router prio_server
// builds -- over a net::LoopbackMesh (tests submit through router(i)) or
// over TCP (a TcpMeshTransport and a client listener per server, at
// client_port(i)). Both meshes share one lifecycle:
//
//   test::Cluster<F, Afe> cluster(&afe, test::Mesh::kTcp, opts);  // build
//   cluster.router(i).submit(...);     // optional: feed or inspect lanes
//   cluster.start();                   // one thread per server
//   const auto& results = cluster.finish();  // joins every server thread
//
// Each result is the server's last published aggregate and the error its
// run threw, if any. TCP clients that connect before start() wait in the
// accept backlog until intake runs.
#pragma once

#include <gtest/gtest.h>

#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "baseline/no_privacy.h"
#include "core/client.h"
#include "net/tcp_transport.h"
#include "net/transport.h"
#include "server/router.h"
#include "store/recovery.h"

namespace prio::test {

inline constexpr size_t kServers = 3;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

// What a suite's workloads are built from. Each suite keeps its own values:
// changing one changes every ciphertext its tests run on.
struct Seeds {
  u64 master_seed;  // the deployment's: sealing keys and mesh secret
  u64 rng_seed;     // the clients'; a workload from first_cid uses +first_cid
  // Client ids with cid % 8 == 5 seal an encoding that fails Valid, so only
  // the SNIP rounds can reject them.
  bool bad_proofs = false;
};

struct Workload {
  std::vector<Submission> subs;
  std::vector<u8> expected;  // 1 = must be accepted
};

// Client cid's one-hot bit vector.
template <typename Afe>
std::vector<u8> input_for(const Afe& afe, u64 cid) {
  std::vector<u8> bits(afe.length(), 0);
  bits[cid % afe.length()] = 1;
  return bits;
}

// n submissions from clients first_cid, first_cid + 1, ...: every fourth
// (k % 4 == 3) has one server's ciphertext tampered, which the AEAD rejects
// before any round; with seeds.bad_proofs, cid % 8 == 5 is a bad proof.
template <typename Afe>
Workload make_workload(const Afe& afe, size_t n, const Seeds& seeds,
                       u64 first_cid = 0) {
  using F = typename Afe::Field;
  PrioClient<F, Afe> encoder(&afe, kServers, seeds.master_seed);
  SecureRng rng(seeds.rng_seed + first_cid);
  Workload w;
  for (u64 k = 0; k < n; ++k) {
    const u64 cid = first_cid + k;
    std::vector<F> enc = afe.encode(input_for(afe, cid));
    u8 expect = 1;
    if (seeds.bad_proofs && cid % 8 == 5) {
      enc[0] += F::from_u64(2);  // a "bit" of 2 or 3
      expect = 0;
    }
    auto blobs = encoder.upload_encoding(enc, cid, rng);
    if (k % 4 == 3) {
      blobs[cid % kServers][12] ^= 1;
      expect = 0;
    }
    w.subs.push_back({cid, std::move(blobs)});
    w.expected.push_back(expect);
  }
  return w;
}

// What the servers must publish for a workload: its honest inputs only.
template <typename Afe,
          typename Ref = baseline::PlaintextReference<typename Afe::Field, Afe>>
Ref reference(const Afe& afe, const Workload& w) {
  Ref ref(&afe);
  for (size_t k = 0; k < w.subs.size(); ++k) {
    const u64 cid = w.subs[k].client_id;
    if (w.expected[k]) ref.add(cid, input_for(afe, cid));
  }
  return ref;
}

// ---------------------------------------------------------------------------
// Meshes
// ---------------------------------------------------------------------------

inline ServerNodeConfig node_config(size_t self, u64 master_seed) {
  ServerNodeConfig cfg;
  cfg.num_servers = kServers;
  cfg.self = self;
  cfg.master_seed = master_seed;
  return cfg;
}

// Runs fn(i) concurrently for i < n, as separate server threads.
template <typename Fn>
void on_all_nodes(size_t n, Fn fn) {
  std::vector<std::thread> threads;
  for (size_t i = 0; i < n; ++i) threads.emplace_back([&fn, i] { fn(i); });
  for (auto& t : threads) t.join();
}

// One ServerNode per server over the loopback mesh; links[i] is node i's.
template <typename Afe, typename Node = ServerNode<typename Afe::Field, Afe>>
std::vector<std::unique_ptr<Node>> make_nodes(
    const Afe& afe, net::LoopbackMesh& mesh,
    std::vector<net::LoopbackTransport>& links, u64 master_seed,
    size_t refresh_every = 1024) {
  links.clear();
  links.reserve(kServers);
  for (size_t i = 0; i < kServers; ++i) links.emplace_back(&mesh, i);
  std::vector<std::unique_ptr<Node>> nodes;
  for (size_t i = 0; i < kServers; ++i) {
    ServerNodeConfig cfg = node_config(i, master_seed);
    cfg.refresh_every = refresh_every;
    nodes.push_back(std::make_unique<Node>(&afe, cfg, &links[i]));
  }
  return nodes;
}

// n listeners on ephemeral loopback ports, and the addresses to dial them.
struct Listeners {
  std::vector<std::unique_ptr<net::TcpListener>> sockets;
  std::vector<net::TcpMeshTransport::PeerAddr> addrs;
};

inline Listeners listen_loopback(size_t n) {
  Listeners l;
  for (size_t i = 0; i < n; ++i) {
    l.sockets.push_back(std::make_unique<net::TcpListener>(0));
    l.addrs.push_back({"127.0.0.1", l.sockets.back()->port()});
  }
  return l;
}

// ---------------------------------------------------------------------------
// Cluster: one ServerRouter per server thread
// ---------------------------------------------------------------------------

enum class Mesh { kLoopback, kTcp };

using Stores = std::vector<std::unique_ptr<store::EpochStore>>;

struct ClusterOptions {
  size_t shards = 1;  // mesh lanes, one router lane each
  u64 master_seed = 1;
  int recv_timeout_ms = 60'000;
  server::RuntimeOptions runtime;  // every server's, before runtime_for

  // Per-server hooks, each optional.
  // Adjusts server i's options: its metrics, trace or afe_spec.
  std::function<void(size_t i, server::RuntimeOptions&)> runtime_for;
  // Server i's stores, one per lane: the server recovers from them and
  // logs to them.
  std::function<Stores(size_t i)> stores_for;
  // Server i's view of the mesh, wrapping `mesh`; null keeps `mesh`.
  std::function<std::unique_ptr<net::Transport>(size_t i,
                                                net::Transport& mesh)>
      wrap_mesh;
};

template <PrimeField F, typename Afe>
class Cluster {
 public:
  using Router = server::ServerRouter<F, Afe>;
  using EpochAggregate = typename Router::EpochAggregate;

  struct Result {
    std::optional<EpochAggregate> last;  // the last epoch it published
    std::optional<std::string> error;    // what its run threw
  };

  Cluster(const Afe* afe, Mesh mesh, ClusterOptions opts)
      : results_(kServers) {
    if (mesh == Mesh::kLoopback) {
      loopback_ = std::make_unique<net::LoopbackMesh>(
          kServers, opts.recv_timeout_ms, opts.shards);
      for (size_t i = 0; i < kServers; ++i) {
        meshes_.push_back(
            std::make_unique<net::LoopbackTransport>(loopback_.get(), i));
      }
    } else {
      peers_ = listen_loopback(kServers);
      clients_ = listen_loopback(kServers);
      // Every peer dials every other, so the meshes come up together.
      const std::vector<u8> secret = master_seed_bytes(opts.master_seed);
      meshes_.resize(kServers);
      std::vector<std::exception_ptr> errors(kServers);
      on_all_nodes(kServers, [&](size_t i) {
        try {
          meshes_[i] = std::make_unique<net::TcpMeshTransport>(
              i, peers_.addrs, peers_.sockets[i].get(), secret,
              /*setup_timeout_ms=*/15'000, opts.recv_timeout_ms, opts.shards);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
      for (const auto& e : errors) {
        if (e) std::rethrow_exception(e);
      }
    }
    for (size_t i = 0; i < kServers; ++i) {
      net::Transport* view = meshes_[i].get();
      if (opts.wrap_mesh) {
        if (auto wrapped = opts.wrap_mesh(i, *view)) {
          view = wrapped.get();
          views_.push_back(std::move(wrapped));
        }
      }
      server::RuntimeOptions runtime = opts.runtime;
      if (opts.runtime_for) opts.runtime_for(i, runtime);
      net::TcpListener* intake =
          clients_.sockets.empty() ? nullptr : clients_.sockets[i].get();
      routers_.push_back(std::make_unique<Router>(
          afe, view, intake, runtime, node_config(i, opts.master_seed),
          opts.stores_for ? opts.stores_for(i) : Stores{}));
    }
  }

  // The server threads hold `this`.
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  ~Cluster() { finish(); }

  Router& router(size_t i) { return *routers_.at(i); }
  u16 client_port(size_t i) const { return clients_.sockets.at(i)->port(); }

  // Runs every server's epochs on its own thread.
  void start() {
    for (size_t i = 0; i < kServers; ++i) {
      threads_.emplace_back([this, i] { run(i); });
    }
  }

  // Joins every server thread; result i is server i's.
  const std::vector<Result>& finish() {
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
    return results_;
  }

 private:
  // One server's whole run, as prio_server's main thread runs it.
  void run(size_t i) {
    Router& r = *routers_[i];
    std::thread intake;
    if (!clients_.sockets.empty()) {
      intake = std::thread([&r] { r.serve_clients(); });
    }
    try {
      results_[i].last = r.run_epochs();
      r.drain_and_stop();
    } catch (const std::exception& e) {
      results_[i].error = e.what();
      r.stop();
    } catch (...) {
      results_[i].error = "unknown error";
      r.stop();
    }
    if (intake.joinable()) intake.join();
  }

  // Declared in teardown order, last first: routers before the mesh views
  // they run on, and the meshes before their listeners.
  std::unique_ptr<net::LoopbackMesh> loopback_;
  Listeners peers_;
  Listeners clients_;
  std::vector<std::unique_ptr<net::Transport>> meshes_;
  std::vector<std::unique_ptr<net::Transport>> views_;
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<Result> results_;
  std::vector<std::thread> threads_;
};

// Expects every server to have finished its run without an error.
template <typename Result>
void expect_clean(const std::vector<Result>& results) {
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_FALSE(results[i].error)
        << "server " << i << ": " << *results[i].error;
  }
}

}  // namespace prio::test
