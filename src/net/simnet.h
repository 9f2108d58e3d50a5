// Traffic accounting for in-process Prio servers.
//
// SUBSTITUTION NOTE (DESIGN.md §2): the paper runs five servers in five
// Amazon datacenters. We run server instances in one process and model the
// network as point-to-point links with (a) exact per-link byte counters --
// these regenerate Figure 6 -- and (b) a configurable one-way latency used
// to report pipeline depth. The loopback mesh (net/transport.h) that
// PrioDeployment's server threads exchange frames over records every frame
// here; the Prio-MPC variant and the baselines account their messages
// directly. Throughput in the paper's setup is compute-bound (clients
// stream over persistent connections), so the harness reports throughput
// from per-server busy time, not from latency.
#pragma once

#include <time.h>

#include <chrono>
#include <deque>
#include <mutex>
#include <vector>

#include "util/common.h"

namespace prio::net {

struct LinkStats {
  u64 bytes = 0;
  u64 messages = 0;  // physical wire messages
  // Protocol-level messages carried. The serial pipeline sends one physical
  // message per protocol message (logical == messages); the batch pipeline
  // coalesces Q per-submission messages into one wire message, so logical
  // grows by Q while messages grows by 1.
  u64 logical = 0;
};

class SimNetwork {
 public:
  // latency_us: one-way latency applied to every link (same-DC ~ 250us,
  // inter-DC WAN ~ 40'000us in the paper's deployments).
  explicit SimNetwork(size_t num_nodes, u64 latency_us = 250)
      : n_(num_nodes), latency_us_(latency_us), links_(num_nodes * num_nodes) {}

  size_t num_nodes() const { return n_; }
  u64 latency_us() const { return latency_us_; }

  // Records and delivers a message; returns the payload for the receiver.
  // Synchronous delivery -- the pipeline drives rounds explicitly; latency
  // is accounted in round_trips() rather than by blocking.
  std::vector<u8> send(size_t from, size_t to, std::vector<u8> payload) {
    require(from < n_ && to < n_, "SimNetwork::send: bad node id");
    LinkStats& link = links_[from * n_ + to];
    link.bytes += payload.size();
    link.messages += 1;
    link.logical += 1;
    return payload;
  }

  // Coalesced send: one wire message carrying `logical` protocol-level
  // messages (the batch pipeline ships Q (d, e) pairs in one message).
  void send_coalesced(size_t from, size_t to, size_t bytes, u64 logical) {
    require(from < n_ && to < n_, "SimNetwork::send_coalesced: bad node id");
    LinkStats& link = links_[from * n_ + to];
    link.bytes += bytes;
    link.messages += 1;
    link.logical += logical;
  }

  // Marks the end of a communication round (all sends in a round overlap,
  // so a round costs one latency). `submissions` is how many protocol
  // instances the round covered: 1 for the serial pipeline, Q for a batch
  // round, so rounds-per-submission stays comparable across pipelines.
  void end_round(u64 submissions = 1) {
    ++rounds_;
    round_submissions_ += submissions;
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

  u64 bytes_received_by(size_t node) const {
    u64 total = 0;
    for (size_t from = 0; from < n_; ++from) {
      total += links_[from * n_ + node].bytes;
    }
    return total;
  }

  u64 total_bytes() const {
    u64 total = 0;
    for (const auto& l : links_) total += l.bytes;
    return total;
  }

  u64 rounds() const { return rounds_; }
  // Protocol instances covered by the recorded rounds; with batching this
  // exceeds rounds(), and rounds()/round_submissions() is the per-submission
  // round amortization factor.
  u64 round_submissions() const { return round_submissions_; }
  // Simulated wall-clock latency cost of the recorded rounds.
  u64 simulated_latency_us() const { return rounds_ * latency_us_; }

  u64 total_messages() const {
    u64 total = 0;
    for (const auto& l : links_) total += l.messages;
    return total;
  }

  u64 total_logical_messages() const {
    u64 total = 0;
    for (const auto& l : links_) total += l.logical;
    return total;
  }

  void reset_counters() {
    for (auto& l : links_) l = LinkStats{};
    rounds_ = 0;
    round_submissions_ = 0;
  }

 private:
  size_t n_;
  u64 latency_us_;
  std::vector<LinkStats> links_;
  u64 rounds_ = 0;
  u64 round_submissions_ = 0;
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

  // Microseconds elapsed since t0, for workers that time a task themselves
  // before crediting it via add_busy.
  static double us_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0)
        .count();
  }

  // CPU time the calling thread has consumed, in microseconds. Unlike wall
  // time it excludes time spent blocked (e.g. in a mesh recv), so a server
  // thread's delta over a call is the work it did.
  static double thread_cpu_us() {
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e6 +
           static_cast<double>(ts.tv_nsec) / 1e3;
  }

  // Thread-safe accumulation: the batch pipeline's workers time their own
  // tasks and credit the busy time here from pool threads.
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
