// The "Prio-MPC" pipeline variant (Section 4.4 / Appendix E): the servers
// evaluate Valid themselves with Beaver MPC instead of checking a SNIP.
//
// Upload: the client sends shares of (encoding x || M Beaver triples), plus
// a SNIP *over the triple list* proving a_t * b_t = c_t for every t, so
// that malformed triples cannot break robustness. Validation then runs the
// circuit across servers: one broadcast round of (d, e) per circuit depth
// level, Theta(M) field elements of server-to-server traffic per
// submission -- the growing Prio-MPC curve of Figure 6 (vs. Prio's flat
// line).
//
// Unlike PrioDeployment, this variant simulates all s servers from one
// thread and only accounts its traffic. process_batch fans per-server local
// work (decrypt, triple-SNIP checks, Beaver round messages) out over a
// thread pool and every broadcast round ships one coalesced message for the
// whole batch. The Beaver evaluations advance in lock-step, so a batch of Q
// submissions still pays only one round-trip per circuit depth level.
#pragma once

#include "core/deployment.h"
#include "net/channel.h"
#include "snip/mpc.h"

namespace prio {

// r may serve at most refresh_every submissions; `upcoming` are about to be
// verified under the current r, so refresh every server's context first if
// that would overrun (batch-safe, unlike a processed % refresh_every test).
// ServerRange elements must expose a VerificationContext member `ctx`.
template <typename ServerRange>
void refresh_contexts_if_due(ServerRange& servers, size_t refresh_every,
                             size_t upcoming) {
  if (servers.front().ctx.refresh_due(refresh_every, upcoming)) {
    for (auto& srv : servers) srv.ctx.refresh();
  }
  for (auto& srv : servers) srv.ctx.note_submissions(upcoming);
}

// Wire accounting for server-to-server traffic (TLS in the paper): payload
// plus AEAD framing, one physical message carrying `logical` protocol-level
// messages.
inline void framed_send(net::SimNetwork& net, size_t from, size_t to,
                        size_t payload_len, u64 logical = 1) {
  net.send_coalesced(from, to, payload_len + net::SecureChannel::kOverhead,
                     logical);
}

inline void framed_broadcast(net::SimNetwork& net, size_t num_servers,
                             size_t from, size_t payload_len,
                             u64 logical = 1) {
  for (size_t to = 0; to < num_servers; ++to) {
    if (to != from) framed_send(net, from, to, payload_len, logical);
  }
}

template <PrimeField F, typename Afe>
class PrioMpcDeployment {
 public:
  PrioMpcDeployment(const Afe* afe, DeploymentOptions opts)
      : afe_(afe),
        opts_(opts),
        triple_circuit_(
            make_triple_check_circuit<F>(afe->valid_circuit().num_mul_gates())),
        triple_prover_(&triple_circuit_),
        net_(opts.num_servers),
        clocks_(opts.num_servers),
        sealer_(master_seed_bytes(opts.master_seed)) {
    require(opts.num_servers >= 2, "PrioMpcDeployment: need >= 2 servers");
    for (size_t i = 0; i < opts.num_servers; ++i) {
      servers_.push_back(ServerState{
          VerificationContext<F>(&triple_circuit_, opts.num_servers,
                                 opts.master_seed ^ 0x3e3d),
          std::vector<F>(afe->k_prime(), F::zero())});
    }
  }

  net::SimNetwork& network() { return net_; }
  net::BusyClock& clocks() { return clocks_; }
  size_t accepted() const { return accepted_; }
  size_t processed() const { return processed_; }

  // Client upload: flat vector [ x-encoding (k) || triple-SNIP extended
  // input (3M + proof) ], PRG-compressed shares, sealed per server with a
  // per-(client, submission) key and counter nonce (see core/deployment.h).
  std::vector<std::vector<u8>> client_upload(const typename Afe::Input& in,
                                             u64 client_id,
                                             SecureRng& rng) const {
    std::vector<F> encoding = afe_->encode(in);
    std::vector<F> triples =
        make_beaver_triples<F>(afe_->valid_circuit().num_mul_gates(), rng);
    std::vector<F> triple_ext = triple_prover_.build_extended_input(triples, rng);

    std::vector<F> flat;
    flat.reserve(encoding.size() + triple_ext.size());
    flat.insert(flat.end(), encoding.begin(), encoding.end());
    flat.insert(flat.end(), triple_ext.begin(), triple_ext.end());
    return seal_shared_vector<F>(sealer_, std::span<const F>(flat),
                                 opts_.num_servers, client_id,
                                 sealer_.next_seq(client_id), rng);
  }

  bool process_submission(u64 client_id,
                          const std::vector<std::vector<u8>>& blobs) {
    const size_t s = opts_.num_servers;
    const size_t leader = static_cast<size_t>(client_id % s);
    const size_t k = afe_->k();
    const size_t m = afe_->valid_circuit().num_mul_gates();
    const size_t flat_len = k + triple_prover_.layout().total_len();

    refresh_contexts_if_due(servers_, opts_.refresh_every, 1);

    // Phase 0: decrypt + expand. Replayed submission counters are
    // rejected up front, like malformed blobs.
    std::vector<std::vector<F>> flat(s);
    u64 seq = 0;
    bool parse_ok = true;
    for (size_t i = 0; i < s; ++i) {
      auto scope = clocks_.measure(i);
      auto share = open_sealed_share<F>(sealer_, client_id, i, blobs[i],
                                        flat_len, i == 0 ? &seq : nullptr);
      if (!share) {
        parse_ok = false;
        continue;
      }
      flat[i] = std::move(*share);
    }
    ++processed_;
    if (!parse_ok || !replay_.fresh(client_id, seq)) return false;

    // Phase 1: SNIP over the triples (same rounds as the SNIP pipeline),
    // run through the allocation-free engine scratch.
    ensure_verifiers(1);
    F d = F::zero(), e = F::zero();
    std::vector<SnipLocalState<F>> states;
    states.reserve(s);
    for (size_t i = 0; i < s; ++i) {
      auto scope = clocks_.measure(i);
      states.push_back(verifiers_[0].local_check(
          servers_[i].ctx, i,
          std::span<const F>(flat[i].data() + k, flat_len - k)));
      d += states.back().d_share;
      e += states.back().e_share;
      if (i != leader) send(i, leader, 2 * F::kByteLen);
    }
    net_.end_round();
    framed_broadcast(net_, s, leader, 2 * F::kByteLen);
    net_.end_round();
    F sigma = F::zero(), out = F::zero();
    for (size_t i = 0; i < s; ++i) {
      auto scope = clocks_.measure(i);
      sigma += snip_sigma_share(servers_[i].ctx, states[i], d, e);
      out += states[i].out_combo;
      if (i != leader) send(i, leader, 2 * F::kByteLen);
    }
    net_.end_round();
    framed_broadcast(net_, s, leader, 1);
    net_.end_round();
    if (!snip_accept(sigma, out)) return false;

    // Phase 2: Beaver-MPC evaluation of Valid on the x shares.
    std::vector<BeaverMpcSession<F>> sessions;
    sessions.reserve(s);
    for (size_t i = 0; i < s; ++i) {
      auto scope = clocks_.measure(i);
      sessions.emplace_back(&afe_->valid_circuit(), s, i,
                            std::span<const F>(flat[i].data(), k),
                            std::span<const F>(flat[i].data() + k, 3 * m));
    }
    while (!sessions[0].done()) {
      std::vector<std::pair<F, F>> totals;
      for (size_t i = 0; i < s; ++i) {
        auto scope = clocks_.measure(i);
        auto msgs = sessions[i].round_messages();
        if (totals.empty()) totals.assign(msgs.size(), {F::zero(), F::zero()});
        for (size_t j = 0; j < msgs.size(); ++j) {
          totals[j].first += msgs[j].first;
          totals[j].second += msgs[j].second;
        }
        if (i != leader) send(i, leader, msgs.size() * 2 * F::kByteLen);
      }
      net_.end_round();
      framed_broadcast(net_, s, leader, totals.size() * 2 * F::kByteLen);
      net_.end_round();
      for (size_t i = 0; i < s; ++i) {
        auto scope = clocks_.measure(i);
        sessions[i].resolve_round(totals);
      }
    }

    // Output check: every output wire must sum to zero.
    const size_t n_out = afe_->valid_circuit().outputs().size();
    std::vector<F> outs(n_out, F::zero());
    for (size_t i = 0; i < s; ++i) {
      auto scope = clocks_.measure(i);
      auto o = sessions[i].output_shares();
      for (size_t j = 0; j < n_out; ++j) outs[j] += o[j];
      if (i != leader) send(i, leader, n_out * F::kByteLen);
    }
    net_.end_round();
    framed_broadcast(net_, s, leader, 1);
    net_.end_round();
    bool accept = true;
    for (const auto& o : outs) accept = accept && o.is_zero();

    if (accept) {
      for (size_t i = 0; i < s; ++i) {
        auto scope = clocks_.measure(i);
        for (size_t c = 0; c < afe_->k_prime(); ++c) {
          servers_[i].accumulator[c] += flat[i][c];
        }
      }
      replay_.accept(client_id, seq);
      ++accepted_;
    }
    return accept;
  }

  // Batched Prio-MPC pipeline: thread-pooled local work, coalesced rounds,
  // lock-step Beaver evaluation across the batch. Decisions match feeding
  // each submission through process_submission.
  std::vector<u8> process_batch(std::span<const Submission> batch) {
    return process_in_refresh_chunks(
        batch, opts_.refresh_every,
        [this](std::span<const Submission> chunk) {
          return process_batch_chunk(chunk);
        });
  }

 private:
  std::vector<u8> process_batch_chunk(std::span<const Submission> batch) {
    const size_t q_total = batch.size();
    std::vector<u8> verdicts(q_total, 0);
    if (q_total == 0) return verdicts;
    const size_t s = opts_.num_servers;
    for (const auto& sub : batch) {
      require(sub.blobs.size() == s, "process_batch: blob count");
    }
    const size_t k = afe_->k();
    const size_t m = afe_->valid_circuit().num_mul_gates();
    const size_t flat_len = k + triple_prover_.layout().total_len();
    const size_t kp = afe_->k_prime();
    const size_t leader = static_cast<size_t>(batch_counter_++ % s);
    refresh_contexts_if_due(servers_, opts_.refresh_every, q_total);
    ThreadPool& pool = ensure_pool();
    ensure_verifiers(pool.size());

    // Phase 0 (pooled): decrypt + expand + triple-SNIP local check. The
    // flat share vector outlives this phase (the Beaver MPC and the
    // aggregation read it), so it is still materialized per (q, i); the
    // local check itself runs on each worker's reusable engine scratch.
    std::vector<std::vector<F>> flat(q_total * s);
    std::vector<std::optional<SnipLocalState<F>>> states(q_total * s);
    std::vector<u64> seqs(q_total, 0);
    pool.parallel_for(q_total * s, [&](size_t task, size_t worker) {
      const size_t q = task / s, i = task % s;
      const auto t0 = std::chrono::steady_clock::now();
      auto share = open_sealed_share<F>(sealer_, batch[q].client_id, i,
                                        batch[q].blobs[i], flat_len,
                                        i == 0 ? &seqs[q] : nullptr);
      if (share) {
        flat[task] = std::move(*share);
        states[task] = verifiers_[worker].local_check(
            servers_[i].ctx, i,
            std::span<const F>(flat[task].data() + k, flat_len - k));
      }
      clocks_.add_busy(i, net::BusyClock::us_since(t0));
    });

    std::vector<size_t> live;
    live.reserve(q_total);
    for (size_t q = 0; q < q_total; ++q) {
      bool ok = true;
      for (size_t i = 0; i < s; ++i) ok = ok && states[q * s + i].has_value();
      if (ok) live.push_back(q);
    }
    processed_ += q_total;
    if (live.empty()) return verdicts;
    const size_t ql = live.size();

    // Triple-SNIP rounds 1-4, coalesced across the batch.
    std::vector<F> d_total(ql, F::zero()), e_total(ql, F::zero());
    for (size_t i = 0; i < s; ++i) {
      for (size_t v = 0; v < ql; ++v) {
        const auto& st = *states[live[v] * s + i];
        d_total[v] += st.d_share;
        e_total[v] += st.e_share;
      }
      if (i != leader) framed_send(net_, i, leader, net::field_pairs_len<F>(ql), ql);
    }
    net_.end_round(ql);
    framed_broadcast(net_, s, leader, net::field_pairs_len<F>(ql), ql);
    net_.end_round(ql);

    std::vector<F> sigma_shares(ql * s), out_shares(ql * s);
    pool.parallel_for(ql * s, [&](size_t task, size_t) {
      const size_t v = task / s, i = task % s;
      const auto t0 = std::chrono::steady_clock::now();
      const auto& st = *states[live[v] * s + i];
      sigma_shares[task] =
          snip_sigma_share(servers_[i].ctx, st, d_total[v], e_total[v]);
      out_shares[task] = st.out_combo;
      clocks_.add_busy(i, net::BusyClock::us_since(t0));
    });
    for (size_t i = 0; i < s; ++i) {
      if (i != leader) framed_send(net_, i, leader, net::field_pairs_len<F>(ql), ql);
    }
    net_.end_round(ql);
    framed_broadcast(net_, s, leader, net::bitmap_len(ql), ql);
    net_.end_round(ql);

    // Submissions whose triple SNIP verified advance to the Beaver MPC.
    std::vector<size_t> mpc_live;
    mpc_live.reserve(ql);
    for (size_t v = 0; v < ql; ++v) {
      F sigma = F::zero(), out = F::zero();
      for (size_t i = 0; i < s; ++i) {
        sigma += sigma_shares[v * s + i];
        out += out_shares[v * s + i];
      }
      if (snip_accept(sigma, out)) mpc_live.push_back(live[v]);
    }
    if (mpc_live.empty()) return verdicts;
    const size_t ml = mpc_live.size();

    // Phase 2 (pooled, lock-step): one Beaver session per (submission,
    // server); all sessions share the circuit, so their round schedules
    // are identical and each depth level costs the batch one round-trip.
    std::vector<std::optional<BeaverMpcSession<F>>> sessions(ml * s);
    pool.parallel_for(ml * s, [&](size_t task, size_t) {
      const size_t v = task / s, i = task % s;
      const auto t0 = std::chrono::steady_clock::now();
      const std::vector<F>& f = flat[mpc_live[v] * s + i];
      sessions[task].emplace(&afe_->valid_circuit(), s, i,
                             std::span<const F>(f.data(), k),
                             std::span<const F>(f.data() + k, 3 * m));
      clocks_.add_busy(i, net::BusyClock::us_since(t0));
    });

    while (!sessions[0]->done()) {
      std::vector<std::vector<std::pair<F, F>>> msgs(ml * s);
      pool.parallel_for(ml * s, [&](size_t task, size_t) {
        const size_t i = task % s;
        const auto t0 = std::chrono::steady_clock::now();
        msgs[task] = sessions[task]->round_messages();
        clocks_.add_busy(i, net::BusyClock::us_since(t0));
      });
      const size_t gates = msgs[0].size();
      std::vector<std::vector<std::pair<F, F>>> totals(
          ml, std::vector<std::pair<F, F>>(gates, {F::zero(), F::zero()}));
      for (size_t v = 0; v < ml; ++v) {
        for (size_t i = 0; i < s; ++i) {
          for (size_t j = 0; j < gates; ++j) {
            totals[v][j].first += msgs[v * s + i][j].first;
            totals[v][j].second += msgs[v * s + i][j].second;
          }
        }
      }
      for (size_t i = 0; i < s; ++i) {
        if (i != leader) {
          framed_send(net_, i, leader, net::field_pairs_len<F>(ml * gates), ml);
        }
      }
      net_.end_round(ml);
      framed_broadcast(net_, s, leader, net::field_pairs_len<F>(ml * gates), ml);
      net_.end_round(ml);
      pool.parallel_for(ml * s, [&](size_t task, size_t) {
        const size_t v = task / s, i = task % s;
        const auto t0 = std::chrono::steady_clock::now();
        sessions[task]->resolve_round(totals[v]);
        clocks_.add_busy(i, net::BusyClock::us_since(t0));
      });
    }

    // Output check + decision bitmap, one coalesced round.
    const size_t n_out = afe_->valid_circuit().outputs().size();
    std::vector<u8> decisions(ml, 1);
    for (size_t v = 0; v < ml; ++v) {
      std::vector<F> outs(n_out, F::zero());
      for (size_t i = 0; i < s; ++i) {
        auto scope = clocks_.measure(i);
        auto o = sessions[v * s + i]->output_shares();
        for (size_t j = 0; j < n_out; ++j) outs[j] += o[j];
      }
      for (const auto& o : outs) {
        if (!o.is_zero()) {
          decisions[v] = 0;
          break;
        }
      }
    }
    for (size_t i = 0; i < s; ++i) {
      if (i != leader) {
        framed_send(net_, i, leader, 4 + ml * n_out * F::kByteLen, ml);
      }
    }
    net_.end_round(ml);
    framed_broadcast(net_, s, leader, net::bitmap_len(ml), ml);
    net_.end_round(ml);

    // Aggregation: per-worker accumulators merged at batch end. The
    // replay floor is applied in submission order, as the serial path
    // would: replayed counters flip to reject, accepts advance the floor.
    std::vector<size_t> accepted_subs;
    for (size_t v = 0; v < ml; ++v) {
      if (!decisions[v]) continue;
      const size_t q = mpc_live[v];
      if (!replay_.fresh(batch[q].client_id, seqs[q])) continue;
      replay_.accept(batch[q].client_id, seqs[q]);
      verdicts[q] = 1;
      accepted_subs.push_back(q);
    }
    if (!accepted_subs.empty()) {
      const size_t workers = pool.size();
      std::vector<std::vector<F>> acc(workers,
                                      std::vector<F>(s * kp, F::zero()));
      pool.parallel_for(accepted_subs.size(), [&](size_t task, size_t worker) {
        const auto t0 = std::chrono::steady_clock::now();
        const size_t q = accepted_subs[task];
        std::vector<F>& a = acc[worker];
        for (size_t i = 0; i < s; ++i) {
          const std::vector<F>& f = flat[q * s + i];
          for (size_t c = 0; c < kp; ++c) a[i * kp + c] += f[c];
        }
        // One task does every server's share of the work; split the time.
        const double us = net::BusyClock::us_since(t0) / static_cast<double>(s);
        for (size_t i = 0; i < s; ++i) clocks_.add_busy(i, us);
      });
      for (size_t w = 0; w < workers; ++w) {
        for (size_t i = 0; i < s; ++i) {
          for (size_t c = 0; c < kp; ++c) {
            servers_[i].accumulator[c] += acc[w][i * kp + c];
          }
        }
      }
      accepted_ += accepted_subs.size();
    }
    return verdicts;
  }

 public:
  typename Afe::Result publish() {
    std::vector<F> sigma(afe_->k_prime(), F::zero());
    for (size_t i = 0; i < opts_.num_servers; ++i) {
      for (size_t c = 0; c < afe_->k_prime(); ++c) {
        sigma[c] += servers_[i].accumulator[c];
      }
      if (i != 0) send(i, 0, afe_->k_prime() * F::kByteLen);
    }
    net_.end_round();
    return afe_->decode(sigma, accepted_);
  }

 private:
  struct ServerState {
    VerificationContext<F> ctx;  // for the triple-check SNIP
    std::vector<F> accumulator;
  };

  ThreadPool& ensure_pool() {
    if (!pool_) pool_ = std::make_unique<ThreadPool>(opts_.batch_threads);
    return *pool_;
  }

  // Per-worker engine scratch for the triple-check SNIP (index 0 serves
  // the serial path).
  void ensure_verifiers(size_t count) {
    while (verifiers_.size() < count) verifiers_.emplace_back(&triple_circuit_);
  }

  void send(size_t from, size_t to, size_t payload_len) {
    framed_send(net_, from, to, payload_len);
  }

  const Afe* afe_;
  DeploymentOptions opts_;
  Circuit<F> triple_circuit_;
  SnipProver<F> triple_prover_;
  net::SimNetwork net_;
  net::BusyClock clocks_;
  std::vector<ServerState> servers_;
  SubmissionSealer sealer_;
  ReplayGuard replay_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<SnipVerifier<F>> verifiers_;  // per-worker engine scratch
  u64 batch_counter_ = 0;
  size_t accepted_ = 0;
  size_t processed_ = 0;
};

}  // namespace prio
