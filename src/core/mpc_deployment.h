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
// thread and only accounts its traffic, crediting each server's share of
// the local work (decrypt, triple-SNIP checks, Beaver round messages) to
// its clock. The protocol exists once, in process_batch; process_submission
// is a batch of one. Batch b is led by server b mod s, and every round
// ships one coalesced frame per link for the whole batch (field_pairs_len /
// bitmap_len payloads, as ServerNode's rounds do). The Beaver evaluations
// advance in lock-step, so a batch of Q submissions still pays only one
// round trip per circuit depth level.
#pragma once

#include "core/deployment.h"
#include "net/channel.h"
#include "snip/mpc.h"

namespace prio {

// Wire accounting for server-to-server traffic (TLS in the paper): one
// frame of payload plus AEAD framing.
inline void framed_send(net::SimNetwork& net, size_t from, size_t to,
                        size_t payload_len) {
  net.record(from, to, payload_len + net::SecureChannel::kOverhead);
}

inline void framed_broadcast(net::SimNetwork& net, size_t num_servers,
                             size_t from, size_t payload_len) {
  for (size_t to = 0; to < num_servers; ++to) {
    if (to != from) framed_send(net, from, to, payload_len);
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
        sealer_(master_seed_bytes(opts.master_seed)),
        verifier_(&triple_circuit_) {
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

  // Feeds one submission through validation + aggregation as a batch of
  // one. Returns true iff the servers accepted (and accumulated) it.
  bool process_submission(u64 client_id,
                          const std::vector<std::vector<u8>>& blobs) {
    const Submission sub{client_id, blobs};
    return process_batch(std::span<const Submission>(&sub, 1))[0] == 1;
  }

  // Verifies a batch in refresh-window-sized chunks, each under one r:
  // the two coalesced triple-SNIP rounds, one coalesced round trip per
  // Beaver depth level, the output check, then the replay floor and
  // aggregation in submission order. Returns one 0/1 verdict per
  // submission.
  std::vector<u8> process_batch(std::span<const Submission> batch) {
    return process_in_refresh_chunks(
        batch, opts_.refresh_every,
        [this](std::span<const Submission> chunk) {
          return process_batch_chunk(chunk);
        });
  }

  // The servers reveal their accumulators to server 0, which decodes.
  typename Afe::Result publish() {
    std::vector<F> sigma(afe_->k_prime(), F::zero());
    for (size_t i = 0; i < opts_.num_servers; ++i) {
      for (size_t c = 0; c < afe_->k_prime(); ++c) {
        sigma[c] += servers_[i].accumulator[c];
      }
      if (i != 0) framed_send(net_, i, 0, afe_->k_prime() * F::kByteLen);
    }
    return afe_->decode(sigma, accepted_);
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
    // r may serve at most refresh_every submissions: refresh every
    // server's context first if this chunk would overrun it.
    if (servers_.front().ctx.refresh_due(opts_.refresh_every, q_total)) {
      for (auto& srv : servers_) srv.ctx.refresh();
    }
    for (auto& srv : servers_) srv.ctx.note_submissions(q_total);

    // Phase 0: decrypt + expand every share into one buffer this chunk
    // owns (row q * s + i: x-encoding, then the triple-SNIP extended
    // input), which the Beaver MPC and the aggregation read later; the
    // triple-SNIP local check runs on the reusable engine scratch. As in
    // ServerNode, a share counts as parsed only if its announced id (server
    // 0's blob counter) is above the replay floor and it opens under that
    // seq, so no triple SNIP is opened twice.
    std::vector<F> ext(q_total * s * flat_len, F::zero());
    auto row = [&](size_t task) {
      return std::span<F>(ext.data() + task * flat_len, flat_len);
    };
    std::vector<std::optional<SnipLocalState<F>>> states(q_total * s);
    std::vector<u64> seqs(q_total, 0);
    std::vector<size_t> parsed(s, 0);
    for (size_t task = 0; task < q_total * s; ++task) {
      const size_t q = task / s, i = task % s;
      auto scope = clocks_.measure(i);
      if (i == 0) seqs[q] = sealed_seq(batch[q].blobs[0]);
      u64 seq = 0;
      if (replay_.fresh(batch[q].client_id, seqs[q]) &&
          open_sealed_share_into<F>(sealer_, batch[q].client_id, i,
                                    batch[q].blobs[i], row(task), &seq) &&
          seq == seqs[q]) {
        states[task] = verifier_.local_check(servers_[i].ctx, i,
                                             row(task).subspan(k));
        ++parsed[i];
      }
    }

    // Triple-SNIP rounds 1-2, coalesced across the batch: each non-leader
    // sends its parse bitmap and four value shares per parsed submission,
    // and the leader broadcasts the decisions.
    for (size_t i = 0; i < s; ++i) {
      if (i != leader) {
        framed_send(net_, i, leader,
                    net::bitmap_len(q_total) +
                        net::field_vector_len<F>(4 * parsed[i]));
      }
    }
    framed_broadcast(net_, s, leader, net::bitmap_len(q_total));
    processed_ += q_total;

    // Submissions every server parsed and whose triple SNIP verified
    // advance to the Beaver MPC. Every id advances its client's floor,
    // accepted or not; the aggregation below needs each id's freshness
    // from before its own advance, so it is recorded here.
    std::vector<size_t> mpc_live;
    mpc_live.reserve(q_total);
    std::vector<u8> fresh(q_total, 0);
    for (size_t q = 0; q < q_total; ++q) {
      SnipLocalState<F> total;
      bool live = true;
      for (size_t i = 0; i < s && live; ++i) {
        live = states[q * s + i].has_value();
        if (live) total += *states[q * s + i];
      }
      if (live && snip_accept(total)) mpc_live.push_back(q);
      fresh[q] = replay_.fresh(batch[q].client_id, seqs[q]);
      replay_.advance(batch[q].client_id, seqs[q]);
    }
    if (mpc_live.empty()) return verdicts;
    const size_t ml = mpc_live.size();

    // Phase 2 (lock-step): one Beaver session per (submission, server);
    // all sessions share the circuit, so their round schedules are
    // identical and each depth level costs the batch one round-trip.
    std::vector<std::optional<BeaverMpcSession<F>>> sessions(ml * s);
    for (size_t task = 0; task < ml * s; ++task) {
      const size_t v = task / s, i = task % s;
      auto scope = clocks_.measure(i);
      const std::span<const F> f = row(mpc_live[v] * s + i);
      sessions[task].emplace(&afe_->valid_circuit(), s, i, f.first(k),
                             f.subspan(k, 3 * m));
    }

    while (!sessions[0]->done()) {
      std::vector<std::vector<std::pair<F, F>>> msgs(ml * s);
      for (size_t task = 0; task < ml * s; ++task) {
        auto scope = clocks_.measure(task % s);
        msgs[task] = sessions[task]->round_messages();
      }
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
          framed_send(net_, i, leader, net::field_pairs_len<F>(ml * gates));
        }
      }
      framed_broadcast(net_, s, leader, net::field_pairs_len<F>(ml * gates));
      for (size_t task = 0; task < ml * s; ++task) {
        auto scope = clocks_.measure(task % s);
        sessions[task]->resolve_round(totals[task / s]);
      }
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
        framed_send(net_, i, leader, 4 + ml * n_out * F::kByteLen);
      }
    }
    framed_broadcast(net_, s, leader, net::bitmap_len(ml));

    // Aggregation, in submission order with the replay floor applied: an
    // id the floor had passed, such as a duplicate later in the same batch,
    // is refused.
    for (size_t v = 0; v < ml; ++v) {
      const size_t q = mpc_live[v];
      if (!decisions[v] || !fresh[q]) continue;
      verdicts[q] = 1;
      for (size_t i = 0; i < s; ++i) {
        auto scope = clocks_.measure(i);
        const std::span<const F> f = row(q * s + i);
        for (size_t c = 0; c < kp; ++c) servers_[i].accumulator[c] += f[c];
      }
      ++accepted_;
    }
    return verdicts;
  }

  struct ServerState {
    VerificationContext<F> ctx;  // for the triple-check SNIP
    std::vector<F> accumulator;
  };

  const Afe* afe_;
  DeploymentOptions opts_;
  Circuit<F> triple_circuit_;
  SnipProver<F> triple_prover_;
  net::SimNetwork net_;
  net::BusyClock clocks_;
  std::vector<ServerState> servers_;
  SubmissionSealer sealer_;
  ReplayGuard replay_;
  SnipVerifier<F> verifier_;  // engine scratch for the triple-check SNIP
  u64 batch_counter_ = 0;
  size_t accepted_ = 0;
  size_t processed_ = 0;
};

}  // namespace prio
