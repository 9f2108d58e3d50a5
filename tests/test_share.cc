// Additive secret sharing and PRG share-compression tests, plus hostile
// plaintexts through the sealed-share decoder the servers run.

#include <gtest/gtest.h>

#include "core/submission.h"
#include "crypto/rng.h"
#include "share/share.h"

namespace prio {
namespace {

template <typename F>
class ShareTest : public ::testing::Test {};

using FieldTypes = ::testing::Types<Fp64, Fp128>;
TYPED_TEST_SUITE(ShareTest, FieldTypes);

TYPED_TEST(ShareTest, PlainSharesReconstruct) {
  using F = TypeParam;
  SecureRng rng(1);
  for (size_t s : {2, 3, 5, 10}) {
    std::vector<F> x;
    for (u64 i = 0; i < 20; ++i) x.push_back(F::from_u64(i * i + 1));
    auto shares = share_vector<F>(x, s, rng);
    EXPECT_EQ(shares.size(), s);
    EXPECT_EQ(reconstruct(shares), x);
  }
}

TYPED_TEST(ShareTest, SharesLookRandomIndividually) {
  using F = TypeParam;
  SecureRng rng(2);
  std::vector<F> x(4, F::zero());
  auto shares = share_vector<F>(x, 2, rng);
  // A share of the all-zeros vector must not itself be all zeros
  // (overwhelming probability): individual shares carry no information.
  bool all_zero = true;
  for (const auto& v : shares[0]) all_zero = all_zero && v.is_zero();
  EXPECT_FALSE(all_zero);
}

TYPED_TEST(ShareTest, CompressedSharesReconstruct) {
  using F = TypeParam;
  SecureRng rng(3);
  for (size_t s : {2, 3, 5}) {
    std::vector<F> x;
    for (u64 i = 0; i < 33; ++i) x.push_back(F::from_u64(i + 100));
    auto cs = share_vector_compressed<F>(x, s, rng);
    EXPECT_EQ(cs.seeds.size(), s - 1);
    // Expand and sum.
    std::vector<std::vector<F>> shares;
    for (const auto& seed : cs.seeds) {
      shares.push_back(expand_share_seed<F>(seed, x.size()));
    }
    shares.push_back(cs.explicit_share);
    EXPECT_EQ(reconstruct(shares), x);
  }
}

TYPED_TEST(ShareTest, SeedExpansionIsDeterministic) {
  using F = TypeParam;
  std::array<u8, 32> seed{};
  seed[0] = 0xAB;
  auto a = expand_share_seed<F>(seed, 100);
  auto b = expand_share_seed<F>(seed, 100);
  EXPECT_EQ(a, b);
  // Prefix property: a shorter expansion is a prefix of a longer one.
  auto c = expand_share_seed<F>(seed, 40);
  EXPECT_TRUE(std::equal(c.begin(), c.end(), a.begin()));
}

TYPED_TEST(ShareTest, BulkExpansionMatchesScalarReference) {
  using F = TypeParam;
  // expand_share_seed_into consumes the keystream in the same windows as
  // the scalar reference, so the elements must be bit-identical for every
  // length (including ones that straddle chunk and block boundaries).
  std::array<u8, 32> seed{};
  seed[7] = 0xC3;
  for (size_t len : {0, 1, 7, 8, 63, 64, 255, 256, 325, 511, 513, 1000}) {
    auto ref = expand_share_seed<F>(seed, len);
    std::vector<F> bulk(len, F::one());
    expand_share_seed_into<F>(seed, std::span<F>(bulk));
    EXPECT_EQ(bulk, ref) << "len=" << len;
  }
}

TYPED_TEST(ShareTest, BulkExpansionReusesCallerBuffer) {
  using F = TypeParam;
  // A dirty reused buffer must not influence the output, and expanding a
  // shorter vector into a prefix must match the scalar prefix property.
  std::array<u8, 32> seed{};
  seed[3] = 0x5A;
  auto ref = expand_share_seed<F>(seed, 90);
  std::vector<F> buf(90, F::from_u64(123456789));
  expand_share_seed_into<F>(seed, std::span<F>(buf));
  EXPECT_EQ(buf, ref);
  expand_share_seed_into<F>(seed, std::span<F>(buf.data(), 40));
  EXPECT_TRUE(std::equal(buf.begin(), buf.begin() + 40, ref.begin()));
  // The tail keeps the previous (full-length) expansion.
  EXPECT_TRUE(std::equal(buf.begin() + 40, buf.end(), ref.begin() + 40));
}

TYPED_TEST(ShareTest, RejectsDegenerateShareCounts) {
  using F = TypeParam;
  SecureRng rng(4);
  std::vector<F> x(3, F::one());
  EXPECT_THROW(share_vector<F>(x, 1, rng), std::invalid_argument);
  EXPECT_THROW(share_vector_compressed<F>(x, 0, rng), std::invalid_argument);
}

// seal_shared_vector lays the explicit blob out once and seals it in
// place. Its blobs must be byte-identical to the composition it replaced,
// kept here as the oracle: share_vector_compressed, then one Writer per
// server (Writer::field_vector for the explicit share), then
// SubmissionSealer::seal. Every blob must then open and reconstruct x.
TYPED_TEST(ShareTest, SealSharedVectorMatchesComposition) {
  using F = TypeParam;
  const SubmissionSealer sealer(master_seed_bytes(5));
  constexpr u64 kClient = 12;
  for (size_t s : {2, 3, 5}) {
    for (size_t len : {1, 2, 15, 16, 131, 4099}) {
      SecureRng gen(len);
      std::vector<F> x(len);
      for (auto& v : x) v = gen.field_element<F>();
      const u64 seq = s * 10000 + len;
      SecureRng rng(77 + len), oracle_rng(77 + len);
      const auto blobs = seal_shared_vector<F>(
          sealer, std::span<const F>(x), s, kClient, seq, rng);
      const auto cs =
          share_vector_compressed<F>(std::span<const F>(x), s, oracle_rng);
      ASSERT_EQ(blobs.size(), s);
      std::vector<std::vector<F>> shares;
      for (size_t j = 0; j < s; ++j) {
        net::Writer w;
        if (j + 1 < s) {
          w.u8_(kShareSeed);
          w.raw(cs.seeds[j]);
        } else {
          w.u8_(kShareExplicit);
          w.field_vector<F>(std::span<const F>(cs.explicit_share));
        }
        EXPECT_TRUE(blobs[j] == sealer.seal(kClient, j, seq, w.data()))
            << "s=" << s << " len=" << len << " server " << j;
        std::vector<F> row(len);
        u64 got_seq = 0;
        ASSERT_TRUE(open_sealed_share_into<F>(sealer, kClient, j, blobs[j],
                                              std::span<F>(row), &got_seq))
            << "s=" << s << " len=" << len << " server " << j;
        EXPECT_EQ(got_seq, seq);
        shares.push_back(std::move(row));
      }
      EXPECT_EQ(reconstruct(shares), x) << "s=" << s << " len=" << len;
      // Both paths drew the same randomness, no more and no less.
      EXPECT_EQ(rng.next_u64(), oracle_rng.next_u64());
    }
  }
}

// Hostile but correctly sealed plaintexts through open_sealed_share_into:
// every malformed share must come back false (and stay UB-free under the
// sanitizer build), never a partly decoded row that verifies.
template <typename F>
class ShareDecodeTest : public ::testing::Test {
 protected:
  static constexpr size_t kLen = 37;
  static constexpr u64 kClient = 9;
  static constexpr size_t kServer = 2;

  ShareDecodeTest() : sealer_(master_seed_bytes(77)) {
    SecureRng rng(5);
    for (size_t i = 0; i < kLen; ++i) elems_.push_back(rng.field_element<F>());
  }

  // The well-formed explicit share: kind, u32 count, kLen elements.
  std::vector<u8> explicit_payload() const {
    net::Writer w;
    w.u8_(kShareExplicit);
    w.field_vector<F>(std::span<const F>(elems_));
    return w.take();
  }

  // Seals `payload` for kServer, then decodes it into a kLen row.
  bool open(std::span<const u8> payload, std::vector<F>* row = nullptr) {
    std::vector<F> out(kLen);
    const auto blob = sealer_.seal(kClient, kServer, seq_++, payload);
    bool ok = open_sealed_share_into<F>(sealer_, kClient, kServer, blob,
                                        std::span<F>(out));
    if (row) *row = out;
    return ok;
  }

  SubmissionSealer sealer_;
  std::vector<F> elems_;
  u64 seq_ = 0;
};

TYPED_TEST_SUITE(ShareDecodeTest, FieldTypes);

TYPED_TEST(ShareDecodeTest, WellFormedSharesDecode) {
  using F = TypeParam;
  std::vector<F> row;
  ASSERT_TRUE(this->open(this->explicit_payload(), &row));
  EXPECT_EQ(row, this->elems_);
  std::vector<u8> seed(32, 0x5a);
  std::vector<u8> payload{kShareSeed};
  payload.insert(payload.end(), seed.begin(), seed.end());
  ASSERT_TRUE(this->open(payload, &row));
  EXPECT_EQ(row, expand_share_seed<F>(seed, this->kLen));
}

TYPED_TEST(ShareDecodeTest, NonCanonicalElementRejectedAtAnyIndex) {
  using F = TypeParam;
  constexpr size_t kHeader = 1 + 4;  // kind byte + u32 count
  // p = 1 (mod 2^64) in both fields, so p - 1 encodes with a zero low
  // byte, and bumping that byte gives the encoding of p itself.
  std::vector<u8> p_bytes(F::kByteLen), ones(F::kByteLen, 0xff);
  (-F::one()).to_bytes(p_bytes);
  ++p_bytes[0];
  for (const auto& bad : {p_bytes, ones}) {
    for (size_t idx : {size_t{0}, this->kLen / 2, this->kLen - 1}) {
      auto payload = this->explicit_payload();
      std::copy(bad.begin(), bad.end(),
                payload.begin() + kHeader + idx * F::kByteLen);
      EXPECT_FALSE(this->open(payload)) << "index " << idx;
    }
  }
}

TYPED_TEST(ShareDecodeTest, MalformedFramingRejected) {
  using F = TypeParam;
  auto good = this->explicit_payload();
  // Count one off in either direction, with the element bytes to match.
  for (size_t n : {this->kLen - 1, this->kLen + 1}) {
    net::Writer w;
    w.u8_(kShareExplicit);
    std::vector<F> v(n, F::one());
    w.field_vector<F>(std::span<const F>(v));
    EXPECT_FALSE(this->open(w.data())) << "count " << n;
  }
  auto trailing = good;
  trailing.push_back(0);
  EXPECT_FALSE(this->open(trailing));
  auto shorter = good;
  shorter.pop_back();
  EXPECT_FALSE(this->open(shorter));
  for (size_t seed_len : {31, 33}) {
    std::vector<u8> payload(1 + seed_len, 0x11);
    payload[0] = kShareSeed;
    EXPECT_FALSE(this->open(payload)) << "seed length " << seed_len;
  }
  for (u8 kind : {u8{2}, u8{0xff}}) {
    auto payload = good;
    payload[0] = kind;
    EXPECT_FALSE(this->open(payload)) << "kind " << int{kind};
  }
  EXPECT_FALSE(this->open(std::span<const u8>()));
}

TEST(ShareSizes, CompressionSavesBandwidth) {
  // The paper's Appendix I: sL field elements -> L + O(1). For s=5, L=1024,
  // Fp64: plain = 5*1024*8 bytes; compressed = 1024*8 + 4*32 bytes.
  size_t plain = 5 * 1024 * Fp64::kByteLen;
  size_t compressed = 1024 * Fp64::kByteLen + 4 * 32;
  EXPECT_GT(plain, 4 * compressed);  // roughly s-fold saving
}

}  // namespace
}  // namespace prio
