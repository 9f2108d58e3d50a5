// ChaCha20-Poly1305 AEAD (RFC 8439 §2.8).
//
// This is the sealing primitive for client->server submissions (the paper
// uses NaCl "box"; this uses the same AEAD construction under a pairwise
// key that is one ChaCha20 block of the deployment's master secret — see
// core/submission.h) and for the servers' mesh channels (net/channel.h).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "util/common.h"

namespace prio {

class Aead {
 public:
  static constexpr size_t kKeyLen = 32;
  static constexpr size_t kNonceLen = 12;
  static constexpr size_t kTagLen = 16;

  // Returns ciphertext || 16-byte tag: a copy of the plaintext, sealed by
  // seal_in_place.
  static std::vector<u8> seal(std::span<const u8> key, std::span<const u8> nonce,
                              std::span<const u8> aad,
                              std::span<const u8> plaintext);

  // Seals buf = plaintext || 16 spare bytes where it lies: the ciphertext
  // overwrites the plaintext and the tag fills the last 16 bytes. A caller
  // that writes its plaintext straight into the wire buffer seals it with
  // no copy.
  static void seal_in_place(std::span<const u8> key, std::span<const u8> nonce,
                            std::span<const u8> aad, std::span<u8> buf);

  // Returns the plaintext, or nullopt if authentication fails.
  static std::optional<std::vector<u8>> open(std::span<const u8> key,
                                             std::span<const u8> nonce,
                                             std::span<const u8> aad,
                                             std::span<const u8> ciphertext);
};

}  // namespace prio
