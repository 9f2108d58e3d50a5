// The full Prio pipeline (Section 5.1 "Putting it all together" and
// Appendix H): Upload -> Validate -> Aggregate -> Publish, in one process.
//
// One PrioDeployment is a thin harness over s ServerNodes (server/node.h),
// the same protocol node the prio_server binary runs, connected by one
// LoopbackMesh. Each node runs on its own thread and exchanges real sealed
// frames with its peers, so the four SNIP rounds exist once, in
// ServerNode::run_rounds. The mesh's SimNetwork accounts every frame
// (network()), and clocks() credits each server with its node thread's CPU
// time, so time a node spends blocked waiting for a peer is not busy time.
//
// Batch b is led by server b mod s (Section 6.1's load balancing: the
// leader relays the broadcasts, so rotating it spreads the extra traffic
// evenly and throughput stays flat as servers are added -- Figure 5).
// process_submission is a batch of one; process_batch amortizes the rounds
// over Q submissions (Section 6 / Appendix I): each of the four rounds
// ships one coalesced frame per link. A non-leader transmits a constant
// number of bytes per submission regardless of submission length -- the
// flat Prio line of Figure 6.
#pragma once

#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "core/client.h"
#include "net/transport.h"
#include "server/node.h"

namespace prio {

struct DeploymentOptions {
  size_t num_servers = 5;
  u64 master_seed = 1;          // deployment master secret (tests/benches)
  size_t refresh_every = 1024;  // resample r after this many submissions
  // Each server's local-check pool; 0 = hardware. At 1 the checks run on
  // the node's own thread, so clocks() sees all of a server's work.
  size_t batch_threads = 1;
  // Test-only override for the servers' local differential-privacy noise
  // RNGs. Production (nullopt) draws every server's noise from its own OS
  // entropy, so noise is unpredictable even to someone who knows
  // master_seed.
  std::optional<u64> noise_seed;
};

// Submission sealing, the Submission struct, and the replay guard live in
// core/submission.h, shared with the standalone client encoder and the
// distributed multi-process runtime.

// Splits a batch into refresh-window-sized chunks so the servers' secret
// point r never serves more than `window` submissions, concatenating the
// per-chunk verdicts.
template <typename ChunkFn>
std::vector<u8> process_in_refresh_chunks(std::span<const Submission> batch,
                                          size_t window, ChunkFn&& chunk_fn) {
  require(window > 0, "process_in_refresh_chunks: refresh window must be > 0");
  if (batch.size() <= window) return chunk_fn(batch);
  std::vector<u8> verdicts;
  verdicts.reserve(batch.size());
  for (size_t off = 0; off < batch.size(); off += window) {
    const size_t q = std::min(window, batch.size() - off);
    auto v = chunk_fn(batch.subspan(off, q));
    verdicts.insert(verdicts.end(), v.begin(), v.end());
  }
  return verdicts;
}

template <PrimeField F, typename Afe>
class PrioDeployment {
 public:
  PrioDeployment(const Afe* afe, DeploymentOptions opts)
      : afe_(afe),
        opts_(opts),
        client_(afe, opts.num_servers, opts.master_seed),
        mesh_(opts.num_servers),
        clocks_(opts.num_servers),
        published_sigma_(afe->k_prime(), F::zero()) {
    for (size_t i = 0; i < opts.num_servers; ++i) {
      links_.push_back(std::make_unique<net::LoopbackTransport>(&mesh_, i));
      ServerNodeConfig cfg;
      cfg.num_servers = opts.num_servers;
      cfg.self = i;
      cfg.master_seed = opts.master_seed;
      cfg.refresh_every = opts.refresh_every;
      cfg.batch_threads = opts.batch_threads;
      nodes_.push_back(
          std::make_unique<ServerNode<F, Afe>>(afe, cfg, links_.back().get()));
      noise_rngs_.push_back(make_noise_rng(i));
    }
    try {
      for (size_t i = 0; i < opts.num_servers; ++i) {
        threads_.emplace_back([this, i] { serve(i); });
      }
    } catch (...) {
      stop_threads();
      throw;
    }
  }

  ~PrioDeployment() { stop_threads(); }
  PrioDeployment(const PrioDeployment&) = delete;
  PrioDeployment& operator=(const PrioDeployment&) = delete;

  const Afe& afe() const { return *afe_; }
  net::SimNetwork& network() { return mesh_.sim(); }
  net::BusyClock& clocks() { return clocks_; }
  size_t accepted() const {
    return published_accepted_ + nodes_.front()->accepted();
  }
  size_t processed() const { return nodes_.front()->processed(); }

  // -------------------------------------------------------------------
  // Client side. Returns one sealed blob per server. Shares 0..s-2 are PRG
  // seeds; share s-1 is explicit (Appendix I compression). Each call
  // advances the client's submission counter, which keys the sealing, so
  // repeated submissions never reuse a (key, nonce).
  // -------------------------------------------------------------------
  std::vector<std::vector<u8>> client_upload(const typename Afe::Input& in,
                                             u64 client_id,
                                             SecureRng& rng) const {
    return client_.upload(in, client_id, rng);
  }

  // Feeds one submission through validation + aggregation as a batch of
  // one. Returns true iff the servers accepted (and accumulated) it.
  bool process_submission(u64 client_id,
                          const std::vector<std::vector<u8>>& blobs) {
    const Submission sub{client_id, blobs};
    return process_batch(std::span<const Submission>(&sub, 1))[0] == 1;
  }

  // Verifies a batch in refresh-window-sized chunks, each one ServerNode
  // batch: four coalesced rounds, then the replay floor and aggregation in
  // submission order. Returns one 0/1 verdict per submission.
  std::vector<u8> process_batch(std::span<const Submission> batch) {
    return process_in_refresh_chunks(
        batch, opts_.refresh_every, [this](std::span<const Submission> chunk) {
          for (const auto& sub : chunk) {
            require(sub.blobs.size() == nodes_.size(),
                    "process_batch: blob count");
          }
          std::vector<std::vector<u8>> verdicts(nodes_.size());
          on_every_node([&](size_t i) {
            verdicts[i] = nodes_[i]->process_batch(node_view(chunk, i));
          });
          return verdicts.front();
        });
  }

  // -------------------------------------------------------------------
  // Publish: the servers reveal their accumulators to server 0, which
  // decodes. The nodes close an epoch each time; the harness keeps the
  // running total, so every publish covers all submissions so far.
  // -------------------------------------------------------------------
  typename Afe::Result publish() {
    std::optional<typename ServerNode<F, Afe>::EpochAggregate> agg;
    on_every_node([&](size_t i) {
      auto a = nodes_[i]->publish_epoch();
      if (i == 0) agg = std::move(a);
    });
    for (size_t c = 0; c < published_sigma_.size(); ++c) {
      published_sigma_[c] += agg->sigma[c];
    }
    published_accepted_ += agg->accepted;
    return afe_->decode(std::span<const F>(published_sigma_),
                        published_accepted_);
  }

  // Publishes only once a quorum of accepted (registered) clients is in --
  // the paper's defense against selective denial-of-service (Section 7):
  // without a quorum gate, an adversary who isolates a single honest
  // client could read that client's value out of the "aggregate".
  std::optional<typename Afe::Result> publish_if_quorum(size_t min_clients) {
    if (accepted() < min_clients) return std::nullopt;
    return publish();
  }

  // Publishes with distributed differential-privacy noise (Section 7):
  // every server adds an independent noise share to what it reveals, so the
  // published totals carry discrete-Laplace noise and no server ever sees
  // the un-noised aggregate. NoiseGen must expose
  // noise_share_field<F>(SecureRng&) (see core/dp.h). Each server draws
  // from its own local SecureRng (OS entropy unless the test-only
  // noise_seed override is set) -- never from the shared master seed,
  // which the aggregate's consumers may know. The revealed values are
  // summed, so the harness adds the shares to the running total.
  template <typename NoiseGen>
  typename Afe::Result publish_with_noise(const NoiseGen& noise) {
    for (auto& rng : noise_rngs_) {
      for (auto& c : published_sigma_) {
        c += noise.template noise_share_field<F>(rng);
      }
    }
    return publish();
  }

 private:
  SecureRng make_noise_rng(size_t server) const {
    if (opts_.noise_seed) {
      return SecureRng(*opts_.noise_seed * 0x9e3779b97f4a7c15ull + server + 1);
    }
    return SecureRng::from_os_entropy();
  }

  void stop_threads() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    job_ready_.notify_all();
    for (auto& t : threads_) t.join();
  }

  // Hands fn to every server's thread, waits until all have run it, and
  // rethrows the first node failure.
  void on_every_node(std::function<void(size_t)> fn) {
    std::unique_lock<std::mutex> lock(mu_);
    job_ = std::move(fn);
    errors_.assign(nodes_.size(), nullptr);
    running_ = nodes_.size();
    ++job_gen_;
    job_ready_.notify_all();
    job_done_.wait(lock, [&] { return running_ == 0; });
    for (const auto& e : errors_) {
      if (e) std::rethrow_exception(e);
    }
  }

  // Server i's thread: runs every job, crediting server i with the
  // thread's CPU time.
  void serve(size_t i) {
    u64 seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      job_ready_.wait(lock, [&] { return stop_ || job_gen_ != seen; });
      if (stop_) return;
      seen = job_gen_;
      lock.unlock();
      const double t0 = net::BusyClock::thread_cpu_us();
      try {
        job_(i);
      } catch (...) {
        errors_[i] = std::current_exception();
      }
      clocks_.add_busy(i, net::BusyClock::thread_cpu_us() - t0);
      lock.lock();
      if (--running_ == 0) job_done_.notify_all();
    }
  }

  const Afe* afe_;
  DeploymentOptions opts_;
  PrioClient<F, Afe> client_;
  net::LoopbackMesh mesh_;
  net::BusyClock clocks_;
  std::vector<std::unique_ptr<net::LoopbackTransport>> links_;
  std::vector<std::unique_ptr<ServerNode<F, Afe>>> nodes_;
  std::vector<SecureRng> noise_rngs_;  // local, secret randomness per server
  std::vector<F> published_sigma_;     // sum of every published epoch
  size_t published_accepted_ = 0;

  // The server threads and the job they are handed (guarded by mu_).
  std::mutex mu_;
  std::condition_variable job_ready_, job_done_;
  std::function<void(size_t)> job_;
  std::vector<std::exception_ptr> errors_;
  u64 job_gen_ = 0;
  size_t running_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace prio
