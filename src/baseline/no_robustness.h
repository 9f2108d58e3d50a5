// "No robustness" baseline (Section 6.1 / Figure 4): the secret-sharing
// scheme of Section 3 -- clients split their encodings into s additive
// shares, servers accumulate blindly, no proof of well-formedness. Privacy
// without robustness: a single malicious client can corrupt the aggregate.
#pragma once

#include "afe/afe.h"
#include "core/submission.h"
#include "net/simnet.h"

namespace prio::baseline {

template <PrimeField F, typename Afe>
class NoRobustnessDeployment {
 public:
  NoRobustnessDeployment(const Afe* afe, size_t num_servers, u64 master_seed)
      : afe_(afe),
        num_servers_(num_servers),
        net_(num_servers),
        clocks_(num_servers),
        sealer_(master_seed_bytes(master_seed)),
        accumulators_(num_servers,
                      std::vector<F>(afe->k_prime(), F::zero())) {
    require(num_servers >= 2, "NoRobustnessDeployment: need >= 2 servers");
  }

  net::SimNetwork& network() { return net_; }
  net::BusyClock& clocks() { return clocks_; }
  size_t accepted() const { return accepted_; }

  // PRG-compressed shares of the bare encoding, sealed per server under
  // the client's next submission counter -- Prio's upload path
  // (core/submission.h) without the SNIP.
  std::vector<std::vector<u8>> client_upload(const typename Afe::Input& in,
                                             u64 client_id,
                                             SecureRng& rng) const {
    std::vector<F> encoding = afe_->encode(in);
    return seal_shared_vector<F>(sealer_, std::span<const F>(encoding),
                                 num_servers_, client_id,
                                 sealer_.next_seq(client_id), rng);
  }

  bool process_submission(u64 client_id,
                          const std::vector<std::vector<u8>>& blobs) {
    bool ok = true;
    std::vector<F> share(afe_->k());
    for (size_t i = 0; i < num_servers_; ++i) {
      auto scope = clocks_.measure(i);
      if (!open_sealed_share_into<F>(sealer_, client_id, i, blobs[i],
                                     std::span<F>(share))) {
        ok = false;
        continue;
      }
      for (size_t c = 0; c < afe_->k_prime(); ++c) {
        accumulators_[i][c] += share[c];
      }
    }
    if (ok) ++accepted_;
    return ok;
  }

  typename Afe::Result publish() {
    std::vector<F> sigma(afe_->k_prime(), F::zero());
    for (size_t i = 0; i < num_servers_; ++i) {
      for (size_t c = 0; c < afe_->k_prime(); ++c) {
        sigma[c] += accumulators_[i][c];
      }
      if (i != 0) net_.record(i, 0, afe_->k_prime() * F::kByteLen + 16);
    }
    return afe_->decode(sigma, accepted_);
  }

 private:
  const Afe* afe_;
  size_t num_servers_;
  net::SimNetwork net_;
  net::BusyClock clocks_;
  SubmissionSealer sealer_;
  std::vector<std::vector<F>> accumulators_;
  size_t accepted_ = 0;
};

}  // namespace prio::baseline
