// Client submissions and their sealing, shared by every pipeline variant:
// the in-process deployments (core/deployment.h, core/mpc_deployment.h),
// the per-input client encoder (core/client.h), and the distributed
// multi-process runtime (server/node.h).
//
// A submission is one sealed blob per server. One PRF-derived key per
// (client, server) pair -- one ChaCha20 block, derived afresh for every
// blob -- and the submission counter supplies the AEAD nonce, so two
// submissions from an honest client never reuse a (key, nonce) pair, and
// a blob sealed for server j never opens at server i != j. Blob layout:
// [u64 seq (LE)] || AEAD ciphertext; tampering with the cleartext seq
// changes the nonce and the AEAD open fails. (A malicious client could
// re-seal different payloads under its own repeated seq and leak the XOR
// of its own plaintexts to the server that legitimately decrypts them --
// a self-inflicted non-issue, and the replay floor keeps at most one of
// them aggregatable.)
#pragma once

#include <algorithm>
#include <array>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "crypto/aead.h"
#include "crypto/chacha20.h"
#include "net/wire.h"
#include "share/share.h"
#include "util/common.h"

namespace prio {

// Client-side upload kinds: PRG seed share or explicit share.
inline constexpr u8 kShareSeed = 0;
inline constexpr u8 kShareExplicit = 1;

// One client submission as the servers receive it: the client id plus one
// sealed blob per server.
struct Submission {
  u64 client_id = 0;
  std::vector<std::vector<u8>> blobs;
};

// Expands the 64-bit deployment master seed into the 32-byte master secret
// the sealing keys derive from.
inline std::vector<u8> master_seed_bytes(u64 seed) {
  std::vector<u8> m(32, 0);
  for (int i = 0; i < 8; ++i) m[i] = static_cast<u8>(seed >> (8 * i));
  return m;
}

// A sealed blob's cleartext submission counter (its u64 prefix), or 0 for
// a blob too short to hold one.
inline u64 sealed_seq(std::span<const u8> blob) {
  net::Reader r(blob);
  const u64 seq = r.u64_();
  return r.ok() ? seq : 0;
}

// Client->server submission sealing, shared by the pipeline variants.
class SubmissionSealer {
 public:
  explicit SubmissionSealer(std::span<const u8> master)
      : master_(master.begin(), master.end()) {
    require(master_.size() == ChaCha20::kKeyLen,
            "SubmissionSealer: master secret must be 32 bytes");
  }

  // Advances the per-client submission counter (thread-safe).
  u64 next_seq(u64 client_id) const {
    std::lock_guard<std::mutex> lock(mu_);
    return next_seq_[client_id]++;
  }

  // Bytes a sealed blob adds around its payload: the cleartext u64 seq in
  // front and the AEAD tag behind.
  static constexpr size_t kSeqLen = 8;
  static constexpr size_t kOverhead = kSeqLen + Aead::kTagLen;

  std::vector<u8> seal(u64 client_id, size_t server, u64 seq,
                       std::span<const u8> payload) const {
    // Built by insert, not by a memcpy into a presized vector, which
    // GCC 12 flags with a false -Wstringop-overflow at -O3.
    std::vector<u8> blob;
    blob.reserve(payload.size() + kOverhead);
    blob.resize(kSeqLen);
    blob.insert(blob.end(), payload.begin(), payload.end());
    blob.resize(blob.size() + Aead::kTagLen);
    seal_in_place(client_id, server, seq, blob);
    return blob;
  }

  // Seals a blob laid out as [u64 seq][payload][tag] where it lies: writes
  // seq into its first 8 bytes, encrypts the payload over itself and puts
  // the tag in the last 16 bytes. A caller that encodes its payload
  // straight into the blob seals it with no copy.
  void seal_in_place(u64 client_id, size_t server, u64 seq,
                     std::span<u8> blob) const {
    require(blob.size() >= kOverhead, "SubmissionSealer: blob too short");
    store_le64(blob.data(), seq);
    Aead::seal_in_place(key(client_id, server), nonce(seq), {},
                        blob.subspan(kSeqLen));
  }

  // On success, *seq_out (if given) receives the blob's submission counter
  // so the caller can enforce replay freshness.
  std::optional<std::vector<u8>> open(u64 client_id, size_t server,
                                      std::span<const u8> blob,
                                      u64* seq_out = nullptr) const {
    net::Reader prefix(blob);
    u64 seq = prefix.u64_();
    if (!prefix.ok()) return std::nullopt;
    if (seq_out) *seq_out = seq;
    return Aead::open(key(client_id, server), nonce(seq), {},
                      blob.subspan(8));
  }

 private:
  // Derives the key sealing client->server traffic: one ChaCha20 block
  // under the 32-byte master secret, with the (client, server) pair as the
  // nonce. The master secret is itself uniform, so a single keyed-PRF
  // invocation yields independent per-pair keys -- HKDF's SHA256
  // extract+expand added several microseconds per derivation to the
  // verification hot path for no additional security. The block costs less
  // than a cache lookup would, so nothing is cached. The seq is
  // deliberately NOT part of the derivation: uniqueness of the (key,
  // nonce) pair comes from seq supplying the AEAD nonce.
  std::array<u8, 32> key(u64 client_id, size_t server) const {
    std::array<u8, 12> label{};
    for (int i = 0; i < 8; ++i) label[i] = static_cast<u8>(client_id >> (8 * i));
    for (int i = 0; i < 4; ++i) {
      label[8 + i] = static_cast<u8>(static_cast<u32>(server) >> (8 * i));
    }
    u8 block[ChaCha20::kBlockLen];
    ChaCha20::block(master_, /*counter=*/0, label, block);
    std::array<u8, 32> out;
    std::copy(block, block + 32, out.begin());
    return out;
  }

  static std::array<u8, 12> nonce(u64 seq) {
    std::array<u8, 12> n{};
    for (int i = 0; i < 8; ++i) n[i] = static_cast<u8>(seq >> (8 * i));
    return n;
  }

  std::vector<u8> master_;
  mutable std::mutex mu_;
  mutable std::unordered_map<u64, u64> next_seq_;
};

// Splits a flat extended vector into PRG-compressed per-server shares
// (Appendix I: shares 0..s-2 are seeds, share s-1 is explicit) and seals
// each one for its server under the given submission counter. Both
// deployment variants and the standalone client encoder build their uploads
// through this single path. The explicit share's blob,
// [u64 seq][kShareExplicit][u32 count][elements][tag], is laid out once:
// the elements are encoded straight into it and sealed where they lie.
template <PrimeField F>
std::vector<std::vector<u8>> seal_shared_vector(const SubmissionSealer& sealer,
                                                std::span<const F> flat,
                                                size_t num_servers,
                                                u64 client_id, u64 seq,
                                                SecureRng& rng) {
  require(num_servers >= 2, "seal_shared_vector: need at least two servers");
  std::vector<std::array<u8, 32>> seeds(num_servers - 1);
  std::vector<F> share(flat.size());
  share_vector_compressed_into<F>(flat, rng, seeds, std::span<F>(share));

  std::vector<std::vector<u8>> blobs;
  blobs.reserve(num_servers);
  for (size_t j = 0; j + 1 < num_servers; ++j) {
    std::array<u8, 33> payload;
    payload[0] = kShareSeed;
    std::copy(seeds[j].begin(), seeds[j].end(), payload.begin() + 1);
    blobs.push_back(sealer.seal(client_id, j, seq, payload));
  }
  std::vector<u8> blob(SubmissionSealer::kOverhead + 1 +
                       net::field_vector_len<F>(share.size()));
  u8* p = blob.data() + SubmissionSealer::kSeqLen;
  *p++ = kShareExplicit;
  const u32 count = static_cast<u32>(share.size());
  for (int i = 0; i < 4; ++i) *p++ = static_cast<u8>(count >> (8 * i));
  for (const F& v : share) {
    v.to_bytes(std::span<u8>(p, F::kByteLen));
    p += F::kByteLen;
  }
  sealer.seal_in_place(client_id, num_servers - 1, seq, blob);
  blobs.push_back(std::move(blob));
  return blobs;
}

// Opens a sealed blob and decodes it into the caller-owned `out` buffer
// (PRG-seed shares are bulk-expanded in place, explicit shares decoded in
// one Reader::fields_into pass) -- the batch pipelines point this at a row
// of a buffer they own, so decryption feeds verification with no
// intermediate vector. Returns false (leaving `out` unspecified) on any
// malformed blob.
template <PrimeField F>
bool open_sealed_share_into(const SubmissionSealer& sealer, u64 client_id,
                            size_t server, std::span<const u8> blob,
                            std::span<F> out, u64* seq_out = nullptr) {
  auto pt = sealer.open(client_id, server, blob, seq_out);
  if (!pt) return false;
  net::Reader r(*pt);
  u8 kind = r.u8_();
  if (!r.ok()) return false;
  if (kind == kShareSeed) {
    if (r.remaining() != 32) return false;
    expand_share_seed_into<F>(std::span<const u8>(pt->data() + 1, 32), out);
    return true;
  }
  if (kind == kShareExplicit) {
    u32 count = r.u32_();
    if (!r.ok() || count != out.size()) return false;
    r.fields_into<F>(out);
    return r.ok() && r.at_end();
  }
  return false;
}

// Server-side replay guard (replicated high-water mark over the cleartext
// submission counters): a submission is fresh iff its counter is at or
// above the client's floor. Every submission a committed batch announced
// advances the floor past its counter, accepted or not: a byte-identical
// replay can never be aggregated twice, and a submission whose proof
// values the servers opened is never opened again (snip/snip.h's
// open-once condition). Every server applies the same rule to the same
// announced (client, seq) stream in the same order, so the floors stay
// replicated without coordination; floors() / set_floor() serialize them
// across a server restart.
class ReplayGuard {
 public:
  bool fresh(u64 client_id, u64 seq) const {
    // The all-ones counter is never fresh: no floor can pass it without
    // wrapping to 0. Honest clients count up from 0 and cannot reach it.
    if (seq == ~u64{0}) return false;
    auto it = floor_.find(client_id);
    return it == floor_.end() || seq >= it->second;
  }
  // Moves the floor past `seq` if it is not already. The all-ones counter
  // leaves it alone: it is never fresh, so it needs no floor, and seq + 1
  // would wrap.
  void advance(u64 client_id, u64 seq) {
    if (seq == ~u64{0}) return;
    u64& floor = floor_[client_id];
    floor = std::max(floor, seq + 1);
  }

  const std::unordered_map<u64, u64>& floors() const { return floor_; }
  void set_floor(u64 client_id, u64 floor) { floor_[client_id] = floor; }

 private:
  std::unordered_map<u64, u64> floor_;
};

}  // namespace prio
