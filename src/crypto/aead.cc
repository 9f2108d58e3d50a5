#include "crypto/aead.h"

#include <cstring>

#include "crypto/chacha20.h"
#include "crypto/poly1305.h"

namespace prio {
namespace {

// Poly1305 key generation (RFC 8439 §2.6): first 32 bytes of the block-0
// keystream.
std::array<u8, 32> poly_key(std::span<const u8> key, std::span<const u8> nonce) {
  u8 block[ChaCha20::kBlockLen];
  ChaCha20::block(key, 0, nonce, block);
  std::array<u8, 32> out;
  std::memcpy(out.data(), block, 32);
  return out;
}

std::array<u8, Poly1305::kTagLen> compute_tag(std::span<const u8> otk,
                                              std::span<const u8> aad,
                                              std::span<const u8> ct) {
  Poly1305 mac(otk);
  static constexpr u8 kZeros[16] = {0};
  mac.update(aad);
  if (aad.size() % 16 != 0) {
    mac.update(std::span<const u8>(kZeros, 16 - aad.size() % 16));
  }
  mac.update(ct);
  if (ct.size() % 16 != 0) {
    mac.update(std::span<const u8>(kZeros, 16 - ct.size() % 16));
  }
  u8 lens[16];
  u64 alen = aad.size(), clen = ct.size();
  for (int i = 0; i < 8; ++i) {
    lens[i] = static_cast<u8>(alen >> (8 * i));
    lens[8 + i] = static_cast<u8>(clen >> (8 * i));
  }
  mac.update(lens);
  return mac.finalize();
}

}  // namespace

std::vector<u8> Aead::seal(std::span<const u8> key, std::span<const u8> nonce,
                           std::span<const u8> aad,
                           std::span<const u8> plaintext) {
  std::vector<u8> out(plaintext.size() + kTagLen);
  if (!plaintext.empty()) {
    std::memcpy(out.data(), plaintext.data(), plaintext.size());
  }
  seal_in_place(key, nonce, aad, out);
  return out;
}

void Aead::seal_in_place(std::span<const u8> key, std::span<const u8> nonce,
                         std::span<const u8> aad, std::span<u8> buf) {
  require(key.size() == kKeyLen, "Aead::seal: key must be 32 bytes");
  require(nonce.size() == kNonceLen, "Aead::seal: nonce must be 12 bytes");
  require(buf.size() >= kTagLen, "Aead::seal: no room for the tag");
  const std::span<u8> text = buf.first(buf.size() - kTagLen);
  ChaCha20::xor_stream(key, 1, nonce, text);
  const auto tag = compute_tag(poly_key(key, nonce), aad, text);
  std::memcpy(text.data() + text.size(), tag.data(), kTagLen);
}

std::optional<std::vector<u8>> Aead::open(std::span<const u8> key,
                                          std::span<const u8> nonce,
                                          std::span<const u8> aad,
                                          std::span<const u8> ciphertext) {
  require(key.size() == kKeyLen, "Aead::open: key must be 32 bytes");
  require(nonce.size() == kNonceLen, "Aead::open: nonce must be 12 bytes");
  if (ciphertext.size() < kTagLen) return std::nullopt;
  size_t ct_len = ciphertext.size() - kTagLen;
  auto otk = poly_key(key, nonce);
  auto expect = compute_tag(otk, aad, ciphertext.first(ct_len));
  if (!tags_equal(expect, ciphertext.subspan(ct_len))) return std::nullopt;
  std::vector<u8> out(ciphertext.begin(), ciphertext.begin() + ct_len);
  ChaCha20::xor_stream(key, 1, nonce, out);
  return out;
}

}  // namespace prio
