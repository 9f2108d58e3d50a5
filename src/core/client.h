// Standalone Prio client encoder: turns one private input into the sealed
// per-server blobs of a submission, with no server state attached.
//
// A real deployment's client knows only the public deployment parameters
// (AFE, server count, sealing secret). This encoder is that client;
// PrioDeployment::client_upload delegates to it.
#pragma once

#include "afe/afe.h"
#include "core/submission.h"
#include "crypto/rng.h"
#include "snip/snip.h"

namespace prio {

template <PrimeField F, typename Afe>
class PrioClient {
 public:
  PrioClient(const Afe* afe, size_t num_servers, u64 master_seed)
      : afe_(afe),
        num_servers_(num_servers),
        prover_(&afe->valid_circuit()),
        sealer_(master_seed_bytes(master_seed)) {
    require(num_servers >= 2, "PrioClient: need >= 2 servers");
  }

  const Afe& afe() const { return *afe_; }
  size_t num_servers() const { return num_servers_; }

  // Encodes, SNIP-proves, shares, and seals one input. Each call advances
  // the client's submission counter. *seq_out (if given) receives the
  // counter used, so a caller pairing blobs with transport frames can name
  // the submission.
  std::vector<std::vector<u8>> upload(const typename Afe::Input& in,
                                      u64 client_id, SecureRng& rng,
                                      u64* seq_out = nullptr) const {
    return upload_encoding(afe_->encode(in), client_id, rng, seq_out);
  }

  // upload() for an already-encoded input. Tests and demos pass an
  // encoding that fails Valid: its sealing is genuine, so only the
  // servers' SNIP check can reject it.
  std::vector<std::vector<u8>> upload_encoding(std::span<const F> encoding,
                                               u64 client_id, SecureRng& rng,
                                               u64* seq_out = nullptr) const {
    std::vector<F> ext = prover_.build_extended_input(encoding, rng);
    const u64 seq = sealer_.next_seq(client_id);
    if (seq_out) *seq_out = seq;
    return seal_shared_vector<F>(sealer_, std::span<const F>(ext),
                                 num_servers_, client_id, seq, rng);
  }

 private:
  const Afe* afe_;
  size_t num_servers_;
  SnipProver<F> prover_;
  SubmissionSealer sealer_;
};

}  // namespace prio
