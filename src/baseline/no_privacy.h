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
#include "core/submission.h"
#include "net/simnet.h"

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
      : afe_(afe), clocks_(1), sealer_(master_seed_bytes(master_seed)),
        accumulator_(afe->k_prime(), F::zero()) {}

  net::BusyClock& clocks() { return clocks_; }
  size_t accepted() const { return accepted_; }

  // The encoding in the clear, sealed for the one server under the
  // client's next submission counter (core/submission.h).
  std::vector<u8> client_upload(const typename Afe::Input& in,
                                u64 client_id) const {
    std::vector<F> encoding = afe_->encode(in);
    net::Writer w;
    w.field_vector<F>(std::span<const F>(encoding));
    return sealer_.seal(client_id, 0, sealer_.next_seq(client_id), w.data());
  }

  bool process_submission(u64 client_id, std::span<const u8> blob) {
    auto scope = clocks_.measure(0);
    auto pt = sealer_.open(client_id, 0, blob);
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
  const Afe* afe_;
  net::BusyClock clocks_;
  SubmissionSealer sealer_;
  std::vector<F> accumulator_;
  size_t accepted_ = 0;
};

}  // namespace prio::baseline
