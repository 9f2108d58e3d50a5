// "No privacy" baseline (Section 6.1): a single server accepts sealed
// client submissions directly and accumulates them in the clear. No secret
// sharing, no proofs -- the upper bound on throughput that Figure 4's
// "No privacy" line reports.
//
// Also the plaintext reference every Prio pipeline's published aggregate
// is checked against.
#pragma once

#include <unordered_set>

#include "afe/afe.h"
#include "crypto/aead.h"
#include "crypto/hkdf.h"
#include "crypto/rng.h"
#include "net/simnet.h"
#include "net/wire.h"

namespace prio::baseline {

// The correctness oracle for the tests and tools: Σ afe.encode(input) over
// the inputs the caller knows are honest, and its decode. No shares,
// proofs, sealing or rounds, so it shares no code with the SNIP path it
// checks. A client id counts once, at its first delivery: the servers'
// replay floors reject any resend, in later epochs too. Callers skip
// tampered submissions themselves.
template <PrimeField F, typename Afe>
class PlaintextReference {
 public:
  explicit PlaintextReference(const Afe* afe)
      : afe_(afe), sigma_(afe->k_prime(), F::zero()) {}

  void add(u64 client_id, const typename Afe::Input& in) {
    if (!seen_.insert(client_id).second) return;
    const std::vector<F> enc = afe_->encode(in);
    for (size_t c = 0; c < sigma_.size(); ++c) sigma_[c] += enc[c];
    ++accepted_;
  }

  const std::vector<F>& sigma() const { return sigma_; }
  u64 accepted() const { return accepted_; }
  typename Afe::Result result() const {
    return afe_->decode(std::span<const F>(sigma_), accepted_);
  }

  // Starts the next epoch's aggregate; ids already seen stay seen.
  void next_epoch() {
    std::fill(sigma_.begin(), sigma_.end(), F::zero());
    accepted_ = 0;
  }

 private:
  const Afe* afe_;
  std::vector<F> sigma_;
  u64 accepted_ = 0;
  std::unordered_set<u64> seen_;
};

template <PrimeField F, typename Afe>
class NoPrivacyDeployment {
 public:
  NoPrivacyDeployment(const Afe* afe, u64 master_seed)
      : afe_(afe), clocks_(1), accumulator_(afe->k_prime(), F::zero()) {
    master_.resize(32);
    for (int i = 0; i < 8; ++i) master_[i] = static_cast<u8>(master_seed >> (8 * i));
  }

  net::BusyClock& clocks() { return clocks_; }
  size_t accepted() const { return accepted_; }

  std::vector<u8> client_upload(const typename Afe::Input& in,
                                u64 client_id) const {
    std::vector<F> encoding = afe_->encode(in);
    net::Writer w;
    w.field_vector<F>(std::span<const F>(encoding));
    std::array<u8, 12> nonce{};
    return Aead::seal(key_for(client_id), nonce, {}, w.data());
  }

  bool process_submission(u64 client_id, std::span<const u8> blob) {
    auto scope = clocks_.measure(0);
    std::array<u8, 12> nonce{};
    auto pt = Aead::open(key_for(client_id), nonce, {}, blob);
    if (!pt) return false;
    net::Reader r(*pt);
    auto enc = r.template field_vector<F>();
    if (!r.ok() || enc.size() < afe_->k_prime()) return false;
    for (size_t c = 0; c < afe_->k_prime(); ++c) accumulator_[c] += enc[c];
    ++accepted_;
    return true;
  }

  typename Afe::Result publish() {
    return afe_->decode(accumulator_, accepted_);
  }

 private:
  std::array<u8, 32> key_for(u64 client_id) const {
    net::Writer label;
    label.u64_(client_id);
    auto k = hkdf_sha256(master_, label.data(), {}, 32);
    std::array<u8, 32> out;
    std::copy(k.begin(), k.end(), out.begin());
    return out;
  }

  const Afe* afe_;
  net::BusyClock clocks_;
  std::vector<u8> master_;
  std::vector<F> accumulator_;
  size_t accepted_ = 0;
};

}  // namespace prio::baseline
