// Loopback vs TCP verification throughput: the same batched SNIP protocol
// run by ServerNode protocol nodes exchanging sealed frames (a) over
// in-process loopback queues -- what PrioDeployment runs -- and (b) over
// real TCP sockets on localhost. The spread is the price of socket I/O;
// the paper's deployments are compute-bound, so the batched pipeline should
// keep TCP within a small factor of loopback on a loaded host.

#include <cstdio>
#include <latch>
#include <thread>

#include "afe/bitvec_sum.h"
#include "bench_util.h"
#include "core/client.h"
#include "net/tcp_transport.h"
#include "net/transport.h"
#include "server/node.h"

namespace prio {
namespace {

using F = Fp64;
using Afe = afe::BitVectorSum<F>;

constexpr size_t kServers = 3;
constexpr u64 kMasterSeed = 9;

std::vector<Submission> make_workload(const Afe& afe, size_t n) {
  PrioClient<F, Afe> encoder(&afe, kServers, kMasterSeed);
  SecureRng rng(4242);
  std::vector<Submission> subs;
  subs.reserve(n);
  const size_t len = afe.length();
  for (u64 cid = 0; cid < n; ++cid) {
    std::vector<u8> bits(len, 0);
    bits[cid % len] = 1;
    subs.push_back({cid, encoder.upload(bits, cid, rng)});
  }
  return subs;
}

ServerNodeConfig node_cfg(size_t self) {
  ServerNodeConfig cfg;
  cfg.num_servers = kServers;
  cfg.self = self;
  cfg.master_seed = kMasterSeed;
  return cfg;
}

// Times only the verification traffic: every thread builds its transport
// and node (TCP connect/hello handshakes, context setup) before the clock
// starts, then all nodes are released together.
template <typename MakeTransport>
double mesh_rate(const Afe& afe, const std::vector<Submission>& subs,
                 size_t batch, MakeTransport make_transport, u64* bytes_out) {
  std::latch ready(kServers + 1);
  std::latch go(1);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kServers; ++i) {
    threads.emplace_back([&, i] {
      auto transport = make_transport(i);
      ServerNode<F, Afe> node(&afe, node_cfg(i), transport.get());
      auto view = node_view(std::span<const Submission>(subs), i);
      ready.count_down();
      go.wait();
      for (size_t off = 0; off < view.size(); off += batch) {
        const size_t q = std::min(batch, view.size() - off);
        node.process_batch(
            std::span<const SubmissionShare>(view.data() + off, q));
      }
      node.publish_epoch();
      if (bytes_out && i == 0) {
        if (auto* tcp = dynamic_cast<net::TcpMeshTransport*>(transport.get())) {
          *bytes_out = tcp->bytes_sent();
        }
      }
    });
  }
  ready.arrive_and_wait();  // all meshes up, nothing verified yet
  const auto t0 = std::chrono::steady_clock::now();
  go.count_down();
  for (auto& t : threads) t.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return static_cast<double>(subs.size()) / secs;
}

}  // namespace
}  // namespace prio

int main() {
  using namespace prio;
  const bool full = benchutil::full_mode();
  const size_t kLen = 64;
  const size_t kN = full ? 2048 : 512;
  const size_t kBatch = 64;
  Afe afe(kLen);

  benchutil::header("loopback vs TCP transport (batched SNIP verification)");
  std::printf("servers=%zu  submission_len=%zu  N=%zu  Q=%zu  hw_threads=%u\n",
              kServers, kLen, kN, kBatch, std::thread::hardware_concurrency());

  auto subs = make_workload(afe, kN);

  // (a) Protocol nodes over loopback queues (frames serialized and sealed,
  // no sockets).
  double loop_rate;
  {
    net::LoopbackMesh mesh(kServers, /*recv_timeout_ms=*/60'000);
    loop_rate = mesh_rate(afe, subs, kBatch, [&](size_t i) {
      return std::make_unique<net::LoopbackTransport>(&mesh, i);
    }, nullptr);
    std::printf("\n%-34s %12.0f subs/s   (baseline)  [%.1f wire B/sub]\n",
                "ServerNode mesh, loopback", loop_rate,
                static_cast<double>(mesh.sim().total_bytes()) / kN);
  }

  // (b) The same nodes over real TCP sockets on localhost.
  {
    std::vector<std::unique_ptr<net::TcpListener>> listeners;
    std::vector<net::TcpMeshTransport::PeerAddr> addrs;
    for (size_t i = 0; i < kServers; ++i) {
      listeners.push_back(std::make_unique<net::TcpListener>(0));
      addrs.push_back({"127.0.0.1", listeners.back()->port()});
    }
    const std::vector<u8> mesh_secret = master_seed_bytes(kMasterSeed);
    u64 bytes = 0;
    auto rate = mesh_rate(afe, subs, kBatch, [&](size_t i) {
      return std::make_unique<net::TcpMeshTransport>(
          i, addrs, listeners[i].get(), mesh_secret, 30'000, 60'000);
    }, &bytes);
    std::printf("%-34s %12.0f subs/s   (%.2fx loopback)  [server0 sent %.1f B/sub]\n",
                "ServerNode mesh, TCP localhost", rate, rate / loop_rate,
                static_cast<double>(bytes) / kN);
  }
  return 0;
}
