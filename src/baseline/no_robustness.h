// "No robustness" baseline (Section 6.1 / Figure 4): the secret-sharing
// scheme of Section 3 -- clients split their encodings into s additive
// shares, servers accumulate blindly, no proof of well-formedness. Privacy
// without robustness: a single malicious client can corrupt the aggregate.
#pragma once

#include "afe/afe.h"
#include "crypto/aead.h"
#include "crypto/hkdf.h"
#include "crypto/rng.h"
#include "net/simnet.h"
#include "net/wire.h"
#include "share/share.h"

namespace prio::baseline {

template <PrimeField F, typename Afe>
class NoRobustnessDeployment {
 public:
  NoRobustnessDeployment(const Afe* afe, size_t num_servers, u64 master_seed)
      : afe_(afe),
        num_servers_(num_servers),
        net_(num_servers),
        clocks_(num_servers),
        accumulators_(num_servers,
                      std::vector<F>(afe->k_prime(), F::zero())) {
    require(num_servers >= 2, "NoRobustnessDeployment: need >= 2 servers");
    master_.resize(32);
    for (int i = 0; i < 8; ++i) master_[i] = static_cast<u8>(master_seed >> (8 * i));
  }

  net::SimNetwork& network() { return net_; }
  net::BusyClock& clocks() { return clocks_; }
  size_t accepted() const { return accepted_; }

  std::vector<std::vector<u8>> client_upload(const typename Afe::Input& in,
                                             u64 client_id,
                                             SecureRng& rng) const {
    std::vector<F> encoding = afe_->encode(in);
    auto cs = share_vector_compressed<F>(encoding, num_servers_, rng);
    std::vector<std::vector<u8>> blobs;
    for (size_t j = 0; j < num_servers_; ++j) {
      net::Writer w;
      if (j + 1 < num_servers_) {
        w.u8_(0);
        w.raw(cs.seeds[j]);
      } else {
        w.u8_(1);
        w.field_vector<F>(std::span<const F>(cs.explicit_share));
      }
      std::array<u8, 12> nonce{};
      blobs.push_back(
          Aead::seal(key_for(client_id, j), nonce, {}, w.data()));
    }
    return blobs;
  }

  bool process_submission(u64 client_id,
                          const std::vector<std::vector<u8>>& blobs) {
    bool ok = true;
    for (size_t i = 0; i < num_servers_; ++i) {
      auto scope = clocks_.measure(i);
      std::array<u8, 12> nonce{};
      auto pt = Aead::open(key_for(client_id, i), nonce, {}, blobs[i]);
      if (!pt) {
        ok = false;
        continue;
      }
      net::Reader r(*pt);
      u8 kind = r.u8_();
      std::vector<F> share;
      if (kind == 0 && r.remaining() == 32) {
        std::vector<u8> seed = {pt->begin() + 1, pt->end()};
        share = expand_share_seed<F>(seed, afe_->k());
      } else if (kind == 1) {
        share = r.template field_vector<F>();
        if (!r.ok() || share.size() != afe_->k()) {
          ok = false;
          continue;
        }
      } else {
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
      if (i != 0) {
        std::vector<u8> msg(afe_->k_prime() * F::kByteLen + 16);
        net_.send(i, 0, std::move(msg));
      }
    }
    net_.end_round();
    return afe_->decode(sigma, accepted_);
  }

 private:
  std::array<u8, 32> key_for(u64 client_id, size_t server) const {
    net::Writer label;
    label.u64_(client_id);
    label.u64_(server);
    auto k = hkdf_sha256(master_, label.data(), {}, 32);
    std::array<u8, 32> out;
    std::copy(k.begin(), k.end(), out.begin());
    return out;
  }

  const Afe* afe_;
  size_t num_servers_;
  net::SimNetwork net_;
  net::BusyClock clocks_;
  std::vector<u8> master_;
  std::vector<std::vector<F>> accumulators_;
  size_t accepted_ = 0;
};

}  // namespace prio::baseline
