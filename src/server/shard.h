// Per-shard server runtime: one batch lane of a sharded prio_server.
//
// A ShardRuntime is one protocol loop scoped to ONE shard of the client-id
// space: it owns the shard's intake buffer and eviction queue, the shard's
// replay floors (held inside its ServerNode), the shard's in-flight batch,
// and the shard's own WAL segment stream (a per-shard store::EpochStore).
// N ShardRuntimes run N independent batch lanes through the shared mesh
// concurrently -- each lane is a net::LaneTransport view of the one
// TcpMeshTransport, which gives each lane its own connection per peer --
// behind a thin ServerRouter (server/router.h) that owns the client
// listener, hashes client_id -> shard (protocol.h shard_of), and
// coordinates the pieces that must be global: the epoch submission quota,
// mesh repair, and the cross-lane published aggregate.
//
// What is per-lane and what is global:
//   per-lane: batch membership + order (server 0's lane-i thread announces
//     lane i's batches), the 2-round SNIP protocol, sealed channel keys
//     (generation- AND lane-scoped), the deterministic r-refresh schedule,
//     the WAL/snapshot stream, rejoin catch-up.
//   global: the epoch boundary (an epoch closes after epoch_size
//     submissions ACROSS lanes -- the router's quota hands out per-batch
//     allowances and a lane closes its epoch when the quota is exhausted),
//     mesh repair (one reestablish per disruption, behind the router's
//     all-lanes-parked barrier), the published aggregate (the router sums
//     the per-lane aggregates; field addition commutes, so the global
//     sigma is bit-identical to an unsharded run over the same inputs).
//
// Epoch close across the mesh, per lane: the lane's sequencer (server 0)
// broadcasts a plaintext kLaneClose marker at the top of EVERY publish
// attempt; a follower that sees it in its batch loop stops assembling and
// enters publication. Because a failed publish attempt is retried under a
// fresh channel generation and the leader re-broadcasts the marker each
// attempt, a follower consumes exactly one marker per attempt
// (pending_close_ tracks a marker consumed early, in the batch loop).
//
// With --shards 1 there is one lane, lane 0, whose channel endpoint names
// and context seed carry no lane suffix (ServerNode), and the quota is
// simply epoch_size minus what the epoch has already processed.
//
// Each lane is ONE thread running one batch at a time (announce or
// receive -> assemble -> ServerNode::process_batch -> commit_batch).
// Compute overlaps mesh waits across lanes instead of within one: while
// one lane blocks on a round trip, another lane's thread decrypts and
// checks its own batch.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <optional>

#include "net/tcp_transport.h"
#include "obs/trace.h"
#include "server/node.h"
#include "server/protocol.h"
#include "store/recovery.h"

namespace prio::server {

// Shared by ShardRuntime and ServerRouter (every shard of a server runs
// under one Options value; all servers must agree on the epoch geometry).
struct RuntimeOptions {
  size_t epoch_size = 64;   // submissions per epoch, across ALL shards
  size_t max_batch = 64;    // per-lane announcement cap
  u32 epochs = 1;
  int announce_wait_ms = 60'000;  // leader: deadline for batch traffic
  int assemble_wait_ms = 5'000;   // followers: grace for in-flight blobs
  // Mesh-disruption budget: how many repair+sync attempts a single lane
  // may burn on one failure before it gives up.
  int max_resyncs = 8;
  // Intake bound PER SHARD: see the comment on evict_oldest_locked().
  size_t max_buffered = 1 << 16;
  size_t max_blob_bytes = 1 << 20;
  // Canonical AFE spec (afe/registry.h) of this deployment. Exchanged in
  // kSyncHello so a server configured with a different encoding fails at
  // the first mesh sync, and compared against kGetAggregate queries so a
  // mismatched client gets kAggregateReject instead of mis-decoded field
  // elements. Empty in harnesses that never see spec'd traffic.
  std::string afe_spec;
  // Observability (src/obs/): when set, every ShardRuntime and the router
  // register per-shard counters/histograms/gauges here, and trace emits a
  // JSONL event per batch lifecycle step. Null = uninstrumented (one
  // predictable branch per event). Neither is owned; both must outlive the
  // runtime.
  obs::Registry* metrics = nullptr;
  obs::TraceLog* trace = nullptr;
};

// One shard's runtime, built only by the router (server/router.h). `Host`
// is the router (templated to keep this header free of a circular
// include); it provides the global pieces:
//   size_t shards()                                // total shard count
//   u64    quota_remaining(u32 epoch)
//   size_t quota_acquire(u32 epoch, size_t want)   // clamps, may return 0
//   void   repair_mesh(const std::string& reason)  // barrier + reestablish
//   void   lane_closed(size_t lane, const EpochAggregate& agg)  // server 0
template <PrimeField F, typename Afe, typename Host>
class ShardRuntime {
 public:
  using Node = ServerNode<F, Afe>;
  using EpochAggregate = typename Node::EpochAggregate;

  // Multi-shard only: once a lane has at least one buffered submission it
  // lingers this long for a fuller batch before announcing a partial one
  // (hash-split traffic rarely fills every lane's batch exactly).
  static constexpr std::chrono::milliseconds kLinger{50};

  // `lane_transport` is this lane's single-lane view of the shared mesh
  // (net::LaneTransport; the same transport the node was built over).
  // `store` may be null: in-memory only, no recovery.
  ShardRuntime(Node* node, net::Transport* lane_transport, Host* host,
               RuntimeOptions opts, store::EpochStore* store)
      : node_(node), lane_(lane_transport), host_(host), opts_(opts),
        shards_(host->shards()), lane_id_(node->lane()), store_(store) {
    if (opts_.metrics) {
      obs::Registry* reg = opts_.metrics;
      const std::string label = obs::label_kv("shard", lane_id_);
      m_commits_ = reg->counter("prio_batches_committed_total",
                                "Verification batches committed", label);
      m_commit_lat_ = reg->histogram(
          "prio_stage_commit_seconds",
          "Batch commit latency (WAL batch record + in-flight release)",
          label);
      m_aborts_ = reg->counter(
          "prio_batch_aborts_total",
          "Batch attempts aborted by a mesh disruption (later retried)",
          label);
      m_resyncs_ = reg->counter("prio_lane_resyncs_total",
                                "Successful post-disruption lane resyncs "
                                "(rejoins)",
                                label);
      m_misroute_ = reg->counter(
          "prio_reject_misroute_total",
          "Announcements naming a client id hashed to a different shard",
          label);
      m_spec_mismatch_ = reg->counter(
          "prio_reject_spec_mismatch_total",
          "Lane syncs refused over a divergent AFE spec", label);
      g_epoch_ = reg->gauge("prio_lane_epoch", "Lane protocol epoch", label);
      g_generation_ = reg->gauge("prio_lane_generation",
                                 "Lane mesh channel-key generation", label);
      g_processed_ = reg->gauge("prio_lane_processed",
                                "Submissions processed by this lane", label);
      g_accepted_ = reg->gauge(
          "prio_lane_accepted",
          "Submissions accepted by this lane in the open epoch", label);
    }
  }

  size_t lane() const { return lane_id_; }
  Node* node() { return node_; }

  // Adopts what recovery rebuilt from this shard's WAL. Call before
  // run_lane(); single-threaded setup.
  void seed_recovered(store::RecoveryResult<F, Afe>&& rec) {
    std::lock_guard<std::mutex> lock(mu_);
    buffer_ = std::move(rec.buffer);
    intake_order_.clear();
    for (const auto& [key, blob] : buffer_) intake_order_.push_back(key);
    published_ = std::move(rec.published);
    last_batch_ = std::move(rec.last_batch);
  }

  // Recovered per-lane aggregates (router start-up reads these to rebuild
  // the cross-lane published map). Single-threaded setup only.
  const std::map<u32, EpochAggregate>& recovered_published() const {
    return published_;
  }

  // ---- intake (called from the router's per-connection threads) --------

  // WAL-before-ack, then buffer. Returns false when the WAL refuses the
  // blob (segment intake budget exhausted): the submission must be nacked
  // rather than acked without durability. The shard mutex spans BOTH the
  // WAL append and the buffer insert, in the same mu_ -> store order
  // rotate_store uses: if rotation could slip between them, the blob would
  // be logged into the closing epoch's segment yet miss the carry-over
  // built from buffer_, and the prune would delete its only durable copy.
  bool submit(u64 client_id, u64 seq, std::vector<u8> blob) {
    bool ok = true;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (store_ && !store_->append_intake(client_id, seq, blob)) {
        ok = false;
      } else {
        if (buffer_.size() >= opts_.max_buffered) evict_oldest_locked();
        auto [it, inserted] =
            buffer_.try_emplace({client_id, seq}, std::move(blob));
        // intake_order_ is the single insertion-order record: it drives
        // eviction on every server AND batch sequencing on server 0.
        if (inserted) intake_order_.push_back({client_id, seq});
      }
    }
    cv_.notify_all();
    return ok;
  }

  // ---- router coordination hooks ---------------------------------------

  // Wakes every wait this lane's thread might be parked in (announce wait,
  // straggler wait) and makes them fail over to the repair path; called by
  // the router when any lane trips a mesh disruption, so ALL lanes
  // converge on the repair barrier instead of sleeping through it.
  void interrupt_waiters() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      mesh_down_ = true;
    }
    cv_.notify_all();
  }

  void clear_interrupt() {
    std::lock_guard<std::mutex> lock(mu_);
    mesh_down_ = false;
  }

  // Router quota_acquire pokes every lane (AFTER dropping its own lock)
  // so leaders waiting for the epoch quota to drain re-check.
  void notify() { cv_.notify_all(); }

  // ---- the lane protocol loop ------------------------------------------

  // Runs this lane through the configured epochs (resuming wherever
  // recovery left the node). A mesh disruption rolls the attempt back,
  // converges on the router's repair barrier, re-syncs this lane, and
  // retries; only a disruption that survives the resync budget escapes.
  void run_lane() {
    try {
      lane_sync();
    } catch (const net::TransportError& e) {
      repair_and_sync(e.what());
    }
    update_lane_gauges();
    while (node_->epoch() < opts_.epochs) {
      const u32 closing = node_->epoch();
      // Batch phase: until the lane's share of the epoch quota is done.
      while (node_->epoch() == closing) {
        std::vector<std::pair<u64, u64>> ids;
        std::vector<SubmissionShare> shares;
        try {
          bool close = false;
          ids = node_->self() == 0 ? announce_or_close(closing, &close)
                                   : recv_announcement_or_close(closing, &close);
          if (close) break;
          shares = assemble(ids);
          auto verdicts = node_->process_batch(shares);
          commit_batch(ids, verdicts);
        } catch (const net::TransportError& e) {
          // The blobs were moved into `shares` for the aborted attempt;
          // put them back so the retry (or a catch-up) can re-use them.
          if (m_aborts_) m_aborts_->inc();
          if (opts_.trace) {
            opts_.trace->event(
                "batch_aborted",
                {{"server", static_cast<long long>(node_->self())},
                 {"lane", static_cast<long long>(lane_id_)},
                 {"epoch", static_cast<long long>(closing)},
                 {"n", static_cast<long long>(ids.size())}});
          }
          {
            std::lock_guard<std::mutex> lock(mu_);
            for (size_t v = 0; v < shares.size(); ++v) {
              if (!shares[v].blob.empty()) {
                inflight_blobs_[ids[v]] = std::move(shares[v].blob);
              }
            }
          }
          repair_and_sync(e.what());  // may catch this lane up past the batch
        }
      }
      // Publish, retrying across disruptions -- the commit round keeps an
      // aborted publication side-effect-free on every survivor. The lane
      // may already have been caught up past the close during a repair.
      while (node_->epoch() == closing) {
        try {
          if (node_->self() == 0) {
            broadcast(encode(LaneClose{static_cast<u32>(lane_id_), closing}));
          } else {
            consume_close(closing);
          }
          node_->publish_epoch([&](const EpochAggregate* agg) {
            durable_epoch_close(agg);
          });
        } catch (const net::TransportError& e) {
          // The leader re-broadcasts the close marker on every attempt, so
          // a consumed-but-unused marker must not satisfy the retry.
          {
            std::lock_guard<std::mutex> lock(mu_);
            pending_close_ = false;
          }
          repair_and_sync(e.what());
        }
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        pending_close_ = false;
      }
      // Epoch boundary: snapshot + segment rotation (idempotent; the
      // catch-up path may already have rotated for this boundary).
      rotate_store();
      update_lane_gauges();
      if (opts_.trace) {
        opts_.trace->event(
            "epoch_closed",
            {{"server", static_cast<long long>(node_->self())},
             {"lane", static_cast<long long>(lane_id_)},
             {"epoch", static_cast<long long>(closing)}});
      }
    }
  }

 private:
  using Clock = std::chrono::steady_clock;

  // ---- batch sequencing (server 0's lane thread) -----------------------

  // Decides this lane's next step for epoch `closing`: re-announce an
  // aborted in-flight batch, announce a fresh batch (acquiring its
  // submissions from the router's epoch quota), or -- once the quota is
  // exhausted -- close the lane's epoch (*close = true, empty ids).
  std::vector<std::pair<u64, u64>> announce_or_close(u32 closing,
                                                     bool* close) {
    *close = false;
    std::vector<std::pair<u64, u64>> ids;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (!inflight_ids_.empty()) {
        // Retry of an aborted attempt: the SAME ids, so a rejoined mesh
        // re-runs the identical batch. Their quota is already held.
        ids = inflight_ids_;
      } else {
        const auto deadline =
            Clock::now() + std::chrono::milliseconds(opts_.announce_wait_ms);
        std::optional<Clock::time_point> linger;
        size_t grant = 0;
        for (;;) {
          if (mesh_down_) {
            throw net::TransportError("lane interrupted for mesh repair");
          }
          const u64 rem = host_->quota_remaining(closing);
          if (rem == 0) {
            *close = true;
            return {};
          }
          const size_t want =
              static_cast<size_t>(std::min<u64>(opts_.max_batch, rem));
          if (buffer_.size() >= want) {
            grant = host_->quota_acquire(closing, want);
            break;
          }
          if (shards_ > 1 && !buffer_.empty()) {
            // Hash-split traffic rarely fills every lane exactly: linger
            // briefly for a fuller batch, then announce what we have.
            if (!linger) linger = Clock::now() + kLinger;
            if (Clock::now() >= *linger) {
              grant = host_->quota_acquire(
                  closing, std::min(buffer_.size(), want));
              break;
            }
          }
          if (Clock::now() >= deadline) {
            // Deliberately NOT a TransportError: the mesh is healthy, the
            // deployment just lacks client traffic; this propagates as a
            // fatal exit (the followers then fail their resync budget and
            // exit too).
            throw std::runtime_error(
                "leader: batch never filled (insufficient client traffic)");
          }
          // Bounded wait slices: quota movement on other lanes is signaled
          // by the router, but a notify racing the wait must only cost one
          // slice, never the whole announce deadline.
          auto wake = std::min(deadline,
                               Clock::now() + std::chrono::milliseconds(100));
          if (linger && *linger < wake) wake = *linger;
          cv_.wait_until(lock, wake);
        }
        if (grant == 0) {  // another lane drained the quota under us
          *close = true;
          return {};
        }
        ids.reserve(grant);
        while (ids.size() < grant) {
          // Every live buffered key appears in intake_order_ exactly once,
          // so the deque cannot run dry before `grant` live keys surface
          // (grant <= buffer_.size(), checked above under this lock).
          auto key = intake_order_.front();
          intake_order_.pop_front();
          auto it = buffer_.find(key);
          if (it == buffer_.end()) continue;  // stale: consumed or evicted
          inflight_blobs_.emplace(key, std::move(it->second));
          buffer_.erase(it);
          ids.push_back(key);
        }
        inflight_ids_ = ids;
      }
    }
    broadcast(encode(BatchAnnounce{static_cast<u32>(lane_id_), ids}));
    if (opts_.trace) {
      opts_.trace->event("batch_announced",
                         {{"server", static_cast<long long>(node_->self())},
                          {"lane", static_cast<long long>(lane_id_)},
                          {"epoch", static_cast<long long>(closing)},
                          {"n", static_cast<long long>(ids.size())}});
    }
    return ids;
  }

  // Follower: the next sequencer frame on this lane is either a batch
  // announcement or the epoch-close marker. Every announced client id must
  // hash to THIS shard -- a blob replayed (or misdirected) to the wrong
  // shard can never be smuggled into another shard's batch, because the
  // announcement naming it fails validation right here.
  std::vector<std::pair<u64, u64>> recv_announcement_or_close(u32 closing,
                                                              bool* close) {
    *close = false;
    const auto frame = lane_->recv(0);
    if (const auto marker = decode<LaneClose>(frame)) {
      if (marker->lane != lane_id_ || marker->epoch != closing) {
        throw net::TransportError("malformed lane-close frame");
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        pending_close_ = true;  // consumed early; first publish attempt skips
      }
      *close = true;
      return {};
    }
    auto announced = decode<BatchAnnounce>(frame);
    if (!announced || announced->lane != lane_id_) {
      throw net::TransportError("malformed batch announcement");
    }
    for (const auto& [cid, seq] : announced->ids) {
      if (shard_of(cid, shards_) != lane_id_) {
        if (m_misroute_) m_misroute_->inc();
        std::fprintf(stderr,
                     "event=misroute server=%zu lane=%zu client_id=%llu "
                     "expected_shard=%zu\n",
                     node_->self(), lane_id_,
                     static_cast<unsigned long long>(cid),
                     shard_of(cid, shards_));
        throw net::TransportError(
            "announced client id routed to the wrong shard");
      }
    }
    return std::move(announced->ids);
  }

  // Server 0's sequencer frames go to every follower on this lane.
  void broadcast(const std::vector<u8>& frame) {
    for (size_t j = 1; j < lane_->num_nodes(); ++j) lane_->send(j, frame);
  }

  // Follower's side of the close handshake: each publish attempt consumes
  // exactly one close marker -- the one the batch loop already swallowed
  // (pending_close_), or the re-broadcast a retried attempt begins with.
  void consume_close(u32 closing) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (pending_close_) {
        pending_close_ = false;
        return;
      }
    }
    const auto marker = decode<LaneClose>(lane_->recv(0));
    if (!marker || marker->lane != lane_id_ || marker->epoch != closing) {
      throw net::TransportError("expected lane-close frame");
    }
  }

  // Builds the node's view of the announced batch. The straggler wait also
  // wakes on a mesh interrupt -- it then proceeds with whatever it has
  // (empty shares vote reject) and lets the batch's own mesh rounds surface
  // the failure, so the blob-return-to-inflight logic in run_lane covers
  // both cases.
  std::vector<SubmissionShare> assemble(
      const std::vector<std::pair<u64, u64>>& ids) {
    std::vector<SubmissionShare> shares(ids.size());
    const auto deadline = Clock::now() +
                          std::chrono::milliseconds(opts_.assemble_wait_ms);
    std::unique_lock<std::mutex> lock(mu_);
    inflight_ids_ = ids;
    for (size_t v = 0; v < ids.size(); ++v) {
      shares[v].client_id = ids[v].first;
      shares[v].seq = ids[v].second;
      auto pit = inflight_blobs_.find(ids[v]);
      if (pit == inflight_blobs_.end()) {
        cv_.wait_until(lock, deadline, [&] {
          return buffer_.count(ids[v]) > 0 || mesh_down_;
        });
        auto it = buffer_.find(ids[v]);
        if (it == buffer_.end()) continue;  // empty share: votes reject
        pit = inflight_blobs_.emplace(ids[v], std::move(it->second)).first;
        buffer_.erase(it);
      }
      // Moved, not copied -- the steady-state path stays allocation-free.
      shares[v].blob = std::move(pit->second);
    }
    // Trim the consumed prefix of the eviction queue so it tracks the
    // buffer's size instead of total submissions ever seen.
    while (!intake_order_.empty() &&
           buffer_.count(intake_order_.front()) == 0) {
      intake_order_.pop_front();
    }
    return shares;
  }

  // A batch the whole mesh committed: make it durable, remember it as the
  // catch-up record a behind peer may ask for, release the in-flight hold.
  void commit_batch(const std::vector<std::pair<u64, u64>>& ids,
                    const std::vector<u8>& verdicts) {
    const u64 t0 = m_commit_lat_ || opts_.trace ? obs::now_ns() : 0;
    if (store_) {
      store_->append_batch(std::span<const std::pair<u64, u64>>(ids),
                           std::span<const u8>(verdicts));
    }
    last_batch_ = {ids, verdicts};
    std::lock_guard<std::mutex> lock(mu_);
    inflight_ids_.clear();
    for (const auto& key : ids) inflight_blobs_.erase(key);
    // Anything left was stashed by a previously ABORTED announcement that
    // this batch did not name (the sequencer restarted and announced a
    // different id set). Return those blobs to the evictable buffer so a
    // later announcement naming them does not assemble an empty share.
    for (auto& [key, blob] : inflight_blobs_) {
      auto [it, inserted] = buffer_.try_emplace(key, std::move(blob));
      if (inserted) intake_order_.push_back(key);
    }
    inflight_blobs_.clear();
    if (m_commits_) {
      m_commits_->inc();
      m_commit_lat_->observe_ns(obs::now_ns() - t0);
    }
    update_lane_gauges();
    if (opts_.trace) {
      opts_.trace->event(
          "batch_committed",
          {{"server", static_cast<long long>(node_->self())},
           {"lane", static_cast<long long>(lane_id_)},
           {"epoch", static_cast<long long>(node_->epoch())},
           {"n", static_cast<long long>(ids.size())},
           {"dur_us", static_cast<long long>((obs::now_ns() - t0) / 1000)}});
    }
  }

  // Mirrors the node's plain protocol counters into relaxed-atomic gauges
  // so the stats endpoint can report epoch/generation/shard state without
  // racing the lane thread. Called only from the lane thread, at points
  // where the node's state is quiescent (post-commit, post-sync,
  // post-rotate).
  void update_lane_gauges() {
    if (!g_epoch_) return;
    g_epoch_->set(static_cast<std::int64_t>(node_->epoch()));
    g_generation_->set(static_cast<std::int64_t>(node_->generation()));
    g_processed_->set(static_cast<std::int64_t>(node_->processed()));
    g_accepted_->set(static_cast<std::int64_t>(node_->accepted()));
  }

  // Commit-point hook for ServerNode::publish_epoch: the WAL epoch-close
  // record is written BEFORE any in-memory reset, and on server 0 before
  // the commit broadcast. Server 0 additionally reports the lane's
  // aggregate to the router, which sums lanes into the global publication.
  void durable_epoch_close(const EpochAggregate* agg) {
    if (agg != nullptr) {  // server 0: the decoded lane aggregate itself
      if (store_) {
        net::Writer sig;
        sig.field_vector<F>(std::span<const F>(agg->sigma));
        store_->append_epoch_close(agg->epoch, agg->accepted, sig.data());
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        published_[agg->epoch] = *agg;
      }
      cv_.notify_all();
      host_->lane_closed(lane_id_, *agg);
    } else if (store_) {
      store_->append_epoch_close(node_->epoch(), node_->accepted(), {});
    }
  }

  // ---- rejoin ----------------------------------------------------------

  // Position + generation sync for THIS lane after every mesh
  // (re)establishment; the frame layouts and the at-most-one-step catch-up
  // argument are in server/protocol.h. Runs per lane because each lane is
  // an independent instance of the batch protocol (own generation, own
  // committed position, own catch-up record).
  void lane_sync() {
    const size_t n = lane_->num_nodes();
    const size_t me = node_->self();
    std::vector<SyncHello> pos(n);
    pos[me] = {static_cast<u32>(lane_id_), node_->epoch(), node_->processed(),
               node_->accepted(), node_->generation(), opts_.afe_spec};
    const std::vector<u8> hello = encode(pos[me]);
    for (size_t j = 0; j < n; ++j) {
      if (j != me) lane_->send(j, hello);
    }
    for (size_t j = 0; j < n; ++j) {
      if (j == me) continue;
      auto peer = decode<SyncHello>(lane_->recv(j));
      if (!peer || peer->lane != lane_id_) {
        throw net::TransportError("rejoin: malformed sync hello");
      }
      pos[j] = std::move(*peer);
      const std::string& peer_spec = pos[j].afe_spec;
      // Divergent AFE configuration is unrecoverable misconfiguration:
      // the circuits would disagree on every batch. Not a TransportError
      // on purpose -- retrying the sync cannot fix it, so it escapes the
      // repair loop and fails the server immediately.
      if (peer_spec != opts_.afe_spec) {
        if (m_spec_mismatch_) m_spec_mismatch_->inc();
        std::fprintf(stderr,
                     "event=spec_mismatch server=%zu lane=%zu peer=%zu "
                     "ours=\"%s\" theirs=\"%s\"\n",
                     node_->self(), lane_id_, j, opts_.afe_spec.c_str(),
                     peer_spec.c_str());
        throw std::runtime_error("sync: AFE spec mismatch (ours '" +
                                 opts_.afe_spec + "', server " +
                                 std::to_string(j) + " runs '" + peer_spec +
                                 "')");
      }
    }
    // Fresh channel-key generation, strictly above anything any node has
    // used on this lane. WAL-logged (and synced) BEFORE the node seals
    // anything under it, so a restart recovers at least this generation:
    // an unlogged bump would let a retried batch reseal different
    // plaintext under a reused (key, nonce).
    u64 gen = 0;
    for (const auto& p : pos) gen = std::max(gen, p.generation);
    if (store_) store_->append_generation(gen + 1);
    node_->set_generation(gen + 1);

    // Two nodes at the same committed position must agree on how many
    // submissions that position accepted; anything else is divergent
    // replicated state catch-up cannot repair (split brain).
    for (size_t j = 0; j < n; ++j) {
      if (j != me && pos[j].epoch == pos[me].epoch &&
          pos[j].processed == pos[me].processed &&
          pos[j].accepted != pos[me].accepted) {
        throw net::TransportError("rejoin: accepted-count divergence");
      }
    }

    // The frontier is the furthest committed position; its lowest-id
    // holder catches everyone else up.
    auto key = [](const SyncHello& p) {
      return std::pair<u64, u64>(p.epoch, p.processed);
    };
    size_t helper = 0;
    for (size_t j = 0; j < n; ++j) {
      if (key(pos[j]) > key(pos[helper])) helper = j;
    }
    for (size_t j = 0; j < n; ++j) {
      if (key(pos[j]) == key(pos[helper])) {
        helper = j;
        break;
      }
    }
    const auto frontier = key(pos[helper]);
    if (key(pos[me]) == frontier) {
      if (me == helper) {
        for (size_t j = 0; j < n; ++j) {
          if (j != me && key(pos[j]) != frontier) send_catch_up(j, pos[j]);
        }
      }
    } else {
      while (std::pair<u64, u64>(node_->epoch(), node_->processed()) !=
             frontier) {
        apply_catch_up(helper, lane_->recv(helper));
      }
    }
  }

  // Catch-up frames are sealed under the just-negotiated generation's
  // control keys (lane-scoped, ServerNode::seal_control): unlike the
  // id-only announcement they commit verdicts directly into a node's
  // accumulator and replay floors.
  void send_catch_up(size_t to, const SyncHello& peer) {
    if (peer.processed < node_->processed()) {
      if (last_batch_.ids.empty() ||
          peer.processed + last_batch_.ids.size() != node_->processed()) {
        // The protocol bounds the gap at one batch (no batch completes
        // without every server); a wider gap means lost durable state.
        throw net::TransportError("rejoin: peer too far behind to catch up");
      }
      const auto sealed = node_->seal_control(
          to, "cub",
          encode_batch_record(last_batch_.ids, last_batch_.verdicts));
      lane_->send(to, encode_catch_up(kCatchUpBatch, sealed));
    }
    if (peer.epoch < node_->epoch()) {
      if (peer.epoch + 1 != node_->epoch()) {
        throw net::TransportError("rejoin: peer too many epochs behind");
      }
      const auto sealed = node_->seal_control(
          to, "cue", encode_catch_up_epoch_body(peer.epoch));
      lane_->send(to, encode_catch_up(kCatchUpEpoch, sealed));
    }
  }

  void apply_catch_up(size_t from, const std::vector<u8>& frame) {
    const auto sealed_batch = decode_catch_up(kCatchUpBatch, frame);
    const auto sealed_epoch = decode_catch_up(kCatchUpEpoch, frame);
    if (!sealed_batch && !sealed_epoch) {
      throw net::TransportError("rejoin: unexpected catch-up frame");
    }
    auto body = sealed_batch ? node_->open_control(from, "cub", *sealed_batch)
                             : node_->open_control(from, "cue", *sealed_epoch);
    if (!body) {
      throw net::TransportError("rejoin: catch-up frame failed to open");
    }
    if (sealed_batch) {
      auto batch = decode_batch_record(*body);
      if (!batch) {
        throw net::TransportError("rejoin: malformed catch-up batch");
      }
      const std::vector<std::pair<u64, u64>>& ids = batch->ids;
      const u32 count = static_cast<u32>(ids.size());
      // The batch runs against this node's OWN blobs -- catch-up carries
      // identifiers and verdicts, never share material.
      std::vector<SubmissionShare> shares(count);
      bool quota_held = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        // Server 0 already drew quota for its own in-flight announcement;
        // any other caught-up batch (e.g. one announced before a restart,
        // whose record the WAL lost) must be debited here, or the
        // sequencer hands out quota the epoch already consumed.
        quota_held = ids == inflight_ids_;
        for (u32 i = 0; i < count; ++i) {
          shares[i].client_id = ids[i].first;
          shares[i].seq = ids[i].second;
          auto pit = inflight_blobs_.find(ids[i]);
          if (pit != inflight_blobs_.end()) {
            shares[i].blob = std::move(pit->second);
            continue;
          }
          auto it = buffer_.find(ids[i]);
          if (it != buffer_.end()) {
            shares[i].blob = std::move(it->second);
            buffer_.erase(it);
          }
        }
      }
      const u32 epoch = node_->epoch();
      if (!node_->apply_batch_record(shares, batch->verdicts)) {
        throw net::TransportError("rejoin: catch-up batch failed to apply");
      }
      if (node_->self() == 0 && !quota_held) host_->quota_acquire(epoch, count);
      commit_batch(ids, batch->verdicts);
      std::fprintf(stderr,
                   "[server %zu lane %zu] caught up on one batch (%u "
                   "submissions) from server %zu\n",
                   node_->self(), lane_id_, count, from);
    } else {
      const auto closed = decode_catch_up_epoch_body(*body);
      if (!closed || *closed != node_->epoch()) {
        throw net::TransportError("rejoin: malformed catch-up epoch");
      }
      const u32 epoch = *closed;
      if (node_->self() == 0) {
        // Server 0 can only be one commit-broadcast behind, in which case
        // its durable hook already ran and the aggregate is in published_.
        std::lock_guard<std::mutex> lock(mu_);
        if (published_.count(epoch) == 0) {
          throw net::TransportError(
              "rejoin: peers closed an epoch this server never published");
        }
      } else if (store_) {
        store_->append_epoch_close(epoch, node_->accepted(), {});
      }
      node_->close_epoch_local();
      {
        std::lock_guard<std::mutex> lock(mu_);
        pending_close_ = false;  // the close this marker would have signaled
      }
      rotate_store();
      std::fprintf(stderr,
                   "[server %zu lane %zu] caught up on epoch %u's close from "
                   "server %zu\n",
                   node_->self(), lane_id_, epoch, from);
    }
  }

  // Epoch-boundary rotation: the intake blobs this epoch acked but never
  // consumed ride along into the new segment. The in-flight hold is empty
  // here -- a lane's epoch only closes after its last batch committed.
  void rotate_store() {
    if (!store_) return;
    const std::vector<u8> snap = node_->snapshot();
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<store::EpochStore::CarryOver> carry;
    carry.reserve(buffer_.size());
    for (const auto& [key, blob] : buffer_) {
      carry.push_back({key.first, key.second, std::span<const u8>(blob)});
    }
    store_->rotate(node_->epoch(), snap,
                   std::span<const store::EpochStore::CarryOver>(carry));
  }

  // Repairs a mesh disruption: converge on the router's all-lanes-parked
  // barrier (one lane runs the actual reestablish), then re-sync THIS
  // lane's protocol position. Retried within the budget because the repair
  // itself can race another failure.
  void repair_and_sync(const std::string& reason) {
    std::fprintf(stderr,
                 "[server %zu lane %zu] mesh disruption (%s); resyncing\n",
                 node_->self(), lane_id_, reason.c_str());
    for (int attempt = 1;; ++attempt) {
      try {
        host_->repair_mesh(reason);
        lane_sync();
        if (m_resyncs_) m_resyncs_->inc();
        update_lane_gauges();
        if (opts_.trace) {
          opts_.trace->event(
              "lane_resynced",
              {{"server", static_cast<long long>(node_->self())},
               {"lane", static_cast<long long>(lane_id_)},
               {"generation", static_cast<long long>(node_->generation())}});
        }
        std::fprintf(
            stderr, "[server %zu lane %zu] resynced (generation %llu)\n",
            node_->self(), lane_id_,
            static_cast<unsigned long long>(node_->generation()));
        return;
      } catch (const net::TransportError& e) {
        if (attempt >= opts_.max_resyncs) {
          throw net::TransportError(std::string("resync failed: ") + e.what());
        }
        std::fprintf(stderr,
                     "[server %zu lane %zu] resync attempt %d failed (%s)\n",
                     node_->self(), lane_id_, attempt, e.what());
      }
    }
  }

  // Intake bound: when the buffer is full, the oldest still-buffered
  // submission is dropped to admit the new one. Stale keys (already
  // consumed by a batch) are skipped and popped.
  void evict_oldest_locked() {
    while (!intake_order_.empty()) {
      auto key = intake_order_.front();
      intake_order_.pop_front();
      if (buffer_.erase(key) > 0) return;
    }
  }

  Node* node_;
  net::Transport* lane_;
  Host* host_;
  RuntimeOptions opts_;
  size_t shards_;
  size_t lane_id_;
  store::EpochStore* store_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool mesh_down_ = false;      // set by interrupt_waiters()
  bool pending_close_ = false;  // close marker consumed in the batch loop
  std::map<std::pair<u64, u64>, std::vector<u8>> buffer_;
  std::deque<std::pair<u64, u64>> intake_order_;
  // The announced-but-uncommitted batch, held apart from buffer_ and so
  // exempt from eviction: intake pressure must never evict a submission the
  // mesh was promised, and an aborted attempt (or a catch-up) re-runs these
  // blobs.
  std::vector<std::pair<u64, u64>> inflight_ids_;
  std::map<std::pair<u64, u64>, std::vector<u8>> inflight_blobs_;
  // The last committed batch: the catch-up record a behind peer asks for.
  BatchRecord last_batch_;
  // Server 0: this LANE's published aggregates (the router sums lanes).
  std::map<u32, EpochAggregate> published_;

  // Observability instruments (null when opts_.metrics is unset).
  obs::Counter* m_commits_ = nullptr;
  obs::Histogram* m_commit_lat_ = nullptr;
  obs::Counter* m_aborts_ = nullptr;
  obs::Counter* m_resyncs_ = nullptr;
  obs::Counter* m_misroute_ = nullptr;
  obs::Counter* m_spec_mismatch_ = nullptr;
  obs::Gauge* g_epoch_ = nullptr;
  obs::Gauge* g_generation_ = nullptr;
  obs::Gauge* g_processed_ = nullptr;
  obs::Gauge* g_accepted_ = nullptr;
};

}  // namespace prio::server
