// Additive s-of-s secret sharing over a prime field, with the PRG share
// compression of Appendix I.
//
// Plain sharing splits x in F^L into s random vectors summing to x; an
// adversary holding any s-1 of them learns nothing. The compressed form
// represents shares 0..s-2 as 32-byte ChaCha20 seeds (expanded on demand by
// the receiving server) and only the last share explicitly, cutting the
// client's upload from s*L to L + O(1) field elements.
#pragma once

#include <algorithm>
#include <array>
#include <vector>

#include "crypto/chacha20.h"
#include "crypto/rng.h"
#include "field/field.h"
#include "field/kernels.h"

namespace prio {

// Expands a 32-byte seed into `len` uniform field elements (rejection
// sampling on the PRG stream, as in the paper's AES-counter-mode PRG).
// Scalar reference implementation: one fill(kByteLen) round-trip per
// sample attempt. The pipelines use expand_share_seed_into below, which
// produces identical elements from the same seed.
template <PrimeField F>
std::vector<F> expand_share_seed(std::span<const u8> seed32, size_t len) {
  ChaChaPrg prg(seed32);
  std::vector<F> out;
  out.reserve(len);
  u8 buf[F::kByteLen];
  while (out.size() < len) {
    prg.fill(std::span<u8>(buf, F::kByteLen));
    F elem;
    if (F::try_from_bytes(buf, &elem)) out.push_back(elem);
  }
  return out;
}

// Bulk expansion into a caller-owned buffer: whole keystream chunks are
// generated at once (ChaChaPrg::fill_blocks, 16 blocks per core call on
// AVX-512 CPUs, else 4) and rejection-sampled in bulk by the inline
// F::try_from_bytes, so the loop does no fill(8) round-trip and no
// out-of-line call per element, and returns no temporary vector. Each
// 4 KiB chunk is a whole number of x16 calls. Consumes the keystream in
// the same kByteLen-window order as expand_share_seed, so the elements
// written are bit-identical to the reference for any seed and length.
template <PrimeField F>
void expand_share_seed_into(std::span<const u8> seed32, std::span<F> out) {
  ChaChaPrg prg(seed32);
  constexpr size_t kChunkBytes = 4096;  // 64 keystream blocks per request
  static_assert(kChunkBytes % F::kByteLen == 0);
  u8 buf[kChunkBytes];
  size_t filled = 0;
  while (filled < out.size()) {
    // Request only what the remaining elements need, rounded up to whole
    // blocks; rejected samples simply trigger another chunk.
    const size_t need = (out.size() - filled) * F::kByteLen;
    const size_t want = std::min(
        kChunkBytes,
        (need + ChaCha20::kBlockLen - 1) / ChaCha20::kBlockLen *
            ChaCha20::kBlockLen);
    prg.fill_blocks(std::span<u8>(buf, want));
    for (size_t off = 0; off + F::kByteLen <= want && filled < out.size();
         off += F::kByteLen) {
      filled += F::try_from_bytes(buf + off, &out[filled]);
    }
  }
}

// Plain additive sharing: s full vectors that sum to x.
template <PrimeField F>
std::vector<std::vector<F>> share_vector(std::span<const F> x, size_t s,
                                         SecureRng& rng) {
  require(s >= 2, "share_vector: need at least two shares");
  std::vector<std::vector<F>> shares(s);
  std::vector<F> last(x.begin(), x.end());
  for (size_t j = 0; j + 1 < s; ++j) {
    shares[j].reserve(x.size());
    for (size_t i = 0; i < x.size(); ++i) {
      F r = rng.field_element<F>();
      shares[j].push_back(r);
      last[i] -= r;
    }
  }
  shares[s - 1] = std::move(last);
  return shares;
}

// PRG-compressed sharing: shares 0..s-2 are seeds, share s-1 is explicit.
template <PrimeField F>
struct CompressedShares {
  std::vector<std::array<u8, 32>> seeds;  // s-1 seeds
  std::vector<F> explicit_share;          // the final share, full length
};

// PRG-compressed sharing into caller-owned buffers: draws seeds.size()
// seeds (s - 1 of them, in order) and writes the explicit share,
// x - sum_j PRG(seed_j), to `explicit_out`. seal_shared_vector
// (core/submission.h) points `explicit_out` at a buffer it encodes straight
// into the sealed blob.
template <PrimeField F>
void share_vector_compressed_into(std::span<const F> x, SecureRng& rng,
                                  std::span<std::array<u8, 32>> seeds,
                                  std::span<F> explicit_out) {
  require(!seeds.empty(), "share_vector_compressed: need at least two shares");
  require(explicit_out.size() == x.size(),
          "share_vector_compressed: explicit share length");
  std::copy(x.begin(), x.end(), explicit_out.begin());
  // One buffer reused across all s-1 seeds; each expansion lands in place
  // and is subtracted with the bulk kernel (no per-seed temporary vector).
  std::vector<F> expanded(x.size());
  for (auto& seed : seeds) {
    rng.fill(seed);
    expand_share_seed_into<F>(seed, std::span<F>(expanded));
    kernels::vec_sub_inplace<F>(explicit_out, std::span<const F>(expanded));
  }
}

template <PrimeField F>
CompressedShares<F> share_vector_compressed(std::span<const F> x, size_t s,
                                            SecureRng& rng) {
  require(s >= 2, "share_vector_compressed: need at least two shares");
  CompressedShares<F> out;
  out.seeds.resize(s - 1);
  out.explicit_share.resize(x.size());
  share_vector_compressed_into<F>(x, rng, out.seeds,
                                  std::span<F>(out.explicit_share));
  return out;
}

// Reconstructs the secret from all shares.
template <PrimeField F>
std::vector<F> reconstruct(const std::vector<std::vector<F>>& shares) {
  require(!shares.empty(), "reconstruct: no shares");
  std::vector<F> out(shares[0].size(), F::zero());
  for (const auto& share : shares) {
    require(share.size() == out.size(), "reconstruct: length mismatch");
    for (size_t i = 0; i < out.size(); ++i) out[i] += share[i];
  }
  return out;
}

}  // namespace prio
