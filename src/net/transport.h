// Node-centric server-to-server transport abstraction.
//
// The protocol node (server/node.h) is written from the perspective of a
// single server that really ships and receives frames; this interface is
// its view of the network. Two implementations exist:
//
//   - LoopbackMesh/LoopbackTransport (here): s in-process nodes connected
//     by blocking per-link queues; a SimNetwork (net/simnet.h) counts
//     every frame and its bytes per link. PrioDeployment
//     (core/deployment.h), tests and benches run real multi-threaded
//     protocol nodes over it without sockets.
//   - TcpMeshTransport (net/tcp_transport.h): length-prefixed frames over
//     real TCP sockets, one OS process per server.
//
// Frames on a directed link are delivered reliably and in order (TCP per
// connection; a FIFO queue per link here), which is what lets the
// counter-nonce SecureChannel sealing above this layer stay synchronized.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "net/simnet.h"
#include "util/common.h"

namespace prio::net {

// Thrown when a peer link fails (disconnect, timeout, malformed frame):
// the protocol cannot continue without the peer, so this is fatal for the
// current batch, not a per-submission soft failure.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// One server's view of the server mesh. `self()` names this node; frames
// are addressed by peer node id.
//
// Lanes: a sharded server (server/router.h) runs N independent batch
// lanes through ONE mesh; between each pair of servers there are
// `lanes()` ordered streams, addressed by a lane id (over TCP, one
// connection each). Every transport supports at least lane 0, and the
// single-lane send/recv entry points are exactly {send,recv}_lane on lane
// 0, so unsharded callers never see lanes. Ordering is guaranteed per
// (link, lane) -- which is all the counter-nonce SecureChannel sealing
// above needs, since every sealed channel is scoped to one lane.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual size_t num_nodes() const = 0;
  virtual size_t self() const = 0;

  // How many lanes this transport carries per link (>= 1).
  virtual size_t lanes() const { return 1; }

  // Ships one frame to `to`.
  virtual void send(size_t to, std::vector<u8> frame) = 0;

  // Blocks until the next frame from `from` arrives; throws TransportError
  // on link failure or timeout.
  virtual std::vector<u8> recv(size_t from) = 0;

  // Lane-addressed variants. The defaults make every transport a valid
  // 1-lane transport; multi-lane implementations override all three.
  virtual void send_lane(size_t lane, size_t to, std::vector<u8> frame) {
    if (lane != 0) throw TransportError("transport has a single lane");
    send(to, std::move(frame));
  }
  virtual std::vector<u8> recv_lane(size_t lane, size_t from) {
    if (lane != 0) throw TransportError("transport has a single lane");
    return recv(from);
  }

  // Tears down and re-establishes every peer link (crash recovery: a peer
  // died and is restarting, so the survivors drop their broken links and
  // rendezvous with the new process). Closing the links is itself the
  // abort signal -- any peer still blocked on one of them fails its recv
  // and enters its own reestablish. Transports without real connections
  // (the in-process loopback mesh) cannot lose a peer process, so the
  // default refuses and the caller's retry loop surfaces the original
  // failure as before.
  virtual void reestablish() {
    throw TransportError("transport does not support reestablish");
  }

  // Wakes every thread blocked in a send/recv on this transport and makes
  // further operations fail fast with TransportError, without tearing the
  // links down yet. The sharded runtime uses it to park ALL lane threads
  // before one of them runs reestablish() -- a reestablish that raced a
  // blocked reader would swap the connection under it. Default: no-op
  // (single-lane callers reestablish directly, nothing else is blocked).
  virtual void interrupt() {}
};

// A single-lane view of one lane of a multi-lane transport: what each
// ShardRuntime/ServerNode holds, so all the protocol code stays written
// against the plain single-lane Transport interface. reestablish() is
// deliberately NOT forwarded -- recovering the shared mesh must be
// coordinated across every lane (server/router.h), never triggered from
// one lane's view.
class LaneTransport final : public Transport {
 public:
  LaneTransport(Transport* base, size_t lane) : base_(base), lane_(lane) {
    require(lane < base->lanes(), "LaneTransport: lane out of range");
  }

  size_t num_nodes() const override { return base_->num_nodes(); }
  size_t self() const override { return base_->self(); }
  size_t lane() const { return lane_; }

  void send(size_t to, std::vector<u8> frame) override {
    base_->send_lane(lane_, to, std::move(frame));
  }
  std::vector<u8> recv(size_t from) override {
    return base_->recv_lane(lane_, from);
  }

 private:
  Transport* base_;
  size_t lane_;
};

// Shared state for s in-process nodes: one FIFO of frames per directed
// link, plus a SimNetwork that counts every frame and its bytes per link --
// the numbers behind the paper-figure benches and the tests' frame counts.
class LoopbackMesh {
 public:
  explicit LoopbackMesh(size_t num_nodes, u64 recv_timeout_ms = 10'000,
                        size_t lanes = 1)
      : n_(num_nodes), lanes_(lanes), timeout_ms_(recv_timeout_ms),
        sim_(num_nodes), queues_(num_nodes * num_nodes * lanes),
        arrived_(num_nodes) {
    require(lanes >= 1, "LoopbackMesh: need >= 1 lane");
  }

  size_t num_nodes() const { return n_; }
  size_t lanes() const { return lanes_; }
  SimNetwork& sim() { return sim_; }

  void send(size_t from, size_t to, std::vector<u8> frame, size_t lane = 0) {
    require(from < n_ && to < n_ && lane < lanes_,
            "LoopbackMesh::send: bad node or lane id");
    {
      std::lock_guard<std::mutex> lock(mu_);
      sim_.record(from, to, frame.size());
      queues_[(from * n_ + to) * lanes_ + lane].push_back(std::move(frame));
    }
    arrived_[to].notify_all();
  }

  std::vector<u8> recv(size_t from, size_t to, size_t lane = 0) {
    require(from < n_ && to < n_ && lane < lanes_,
            "LoopbackMesh::recv: bad node or lane id");
    std::unique_lock<std::mutex> lock(mu_);
    auto& q = queues_[(from * n_ + to) * lanes_ + lane];
    if (!arrived_[to].wait_for(lock, std::chrono::milliseconds(timeout_ms_),
                               [&] { return !q.empty(); })) {
      throw TransportError("LoopbackMesh::recv: timeout");
    }
    std::vector<u8> frame = std::move(q.front());
    q.pop_front();
    return frame;
  }

 private:
  size_t n_;
  size_t lanes_;
  u64 timeout_ms_;
  SimNetwork sim_;
  std::vector<std::deque<std::vector<u8>>> queues_;
  std::mutex mu_;
  // One per receiving node, so a send wakes only its receiver's threads.
  std::vector<std::condition_variable> arrived_;
};

// One node's handle onto a LoopbackMesh.
class LoopbackTransport final : public Transport {
 public:
  LoopbackTransport(LoopbackMesh* mesh, size_t self)
      : mesh_(mesh), self_(self) {
    require(self < mesh->num_nodes(), "LoopbackTransport: bad node id");
  }

  size_t num_nodes() const override { return mesh_->num_nodes(); }
  size_t self() const override { return self_; }
  size_t lanes() const override { return mesh_->lanes(); }

  void send(size_t to, std::vector<u8> frame) override {
    mesh_->send(self_, to, std::move(frame));
  }

  std::vector<u8> recv(size_t from) override {
    return mesh_->recv(from, self_);
  }

  void send_lane(size_t lane, size_t to, std::vector<u8> frame) override {
    mesh_->send(self_, to, std::move(frame), lane);
  }

  std::vector<u8> recv_lane(size_t lane, size_t from) override {
    return mesh_->recv(from, self_, lane);
  }

 private:
  LoopbackMesh* mesh_;
  size_t self_;
};

}  // namespace prio::net
