// Traffic accounting for in-process Prio servers.
//
// SUBSTITUTION NOTE: the paper runs five servers in five Amazon
// datacenters. We run server instances in one process and model the network
// as point-to-point links, each with exact byte and frame counters (the
// bytes regenerate Figure 6). The loopback mesh (net/transport.h) that
// PrioDeployment's server threads exchange frames over records every frame
// here; the Prio-MPC variant and the baselines record their frames
// directly. Throughput in the paper's setup is compute-bound (clients
// stream over persistent connections), so the harness reports throughput
// from per-server busy time, not from latency.
#pragma once

#include <time.h>

#include <algorithm>
#include <chrono>
#include <mutex>
#include <vector>

#include "util/common.h"

namespace prio::net {

struct LinkStats {
  u64 bytes = 0;
  u64 frames = 0;
};

class SimNetwork {
 public:
  explicit SimNetwork(size_t num_nodes)
      : n_(num_nodes), links_(num_nodes * num_nodes) {}

  // Records one frame of `bytes` bytes on the directed link from -> to.
  void record(size_t from, size_t to, size_t bytes) {
    require(from < n_ && to < n_, "SimNetwork::record: bad node id");
    LinkStats& link = links_[from * n_ + to];
    link.bytes += bytes;
    link.frames += 1;
  }

  const LinkStats& link(size_t from, size_t to) const {
    return links_[from * n_ + to];
  }

  // Total bytes transmitted by a node.
  u64 bytes_sent_by(size_t node) const {
    u64 total = 0;
    for (size_t to = 0; to < n_; ++to) total += links_[node * n_ + to].bytes;
    return total;
  }

  u64 total_bytes() const {
    u64 total = 0;
    for (const auto& l : links_) total += l.bytes;
    return total;
  }

  u64 total_frames() const {
    u64 total = 0;
    for (const auto& l : links_) total += l.frames;
    return total;
  }

 private:
  size_t n_;
  std::vector<LinkStats> links_;
};

// Accumulates per-server compute time; the throughput harness divides work
// done by max busy time across servers (perfect pipelining assumption,
// matching the paper's streaming clients).
class BusyClock {
 public:
  explicit BusyClock(size_t num_nodes) : busy_us_(num_nodes, 0.0) {}

  class Scope {
   public:
    Scope(BusyClock& clock, size_t node)
        : clock_(clock), node_(node), start_(std::chrono::steady_clock::now()) {}
    ~Scope() {
      auto end = std::chrono::steady_clock::now();
      clock_.add_busy(node_,
          std::chrono::duration<double, std::micro>(end - start_).count());
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    BusyClock& clock_;
    size_t node_;
    std::chrono::steady_clock::time_point start_;
  };

  Scope measure(size_t node) { return Scope(*this, node); }

  // CPU time the calling thread has consumed, in microseconds. Unlike wall
  // time it excludes time spent blocked (e.g. in a mesh recv), so a server
  // thread's delta over a call is the work it did.
  static double thread_cpu_us() {
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e6 +
           static_cast<double>(ts.tv_nsec) / 1e3;
  }

  // Thread-safe accumulation: PrioDeployment's node threads each credit
  // their own server's CPU time here, concurrently.
  void add_busy(size_t node, double us) {
    std::lock_guard<std::mutex> lock(mu_);
    busy_us_[node] += us;
  }

  double busy_us(size_t node) const { return busy_us_[node]; }
  double max_busy_us() const {
    double m = 0;
    for (double b : busy_us_) m = std::max(m, b);
    return m;
  }
  void reset() { std::fill(busy_us_.begin(), busy_us_.end(), 0.0); }

 private:
  std::mutex mu_;
  std::vector<double> busy_us_;
};

}  // namespace prio::net
