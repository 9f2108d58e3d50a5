// Wire-format, secure-channel and simulated-network tests, plus a
// corrupt-buffer table for the TCP framing decoder.

#include <gtest/gtest.h>

#include "field/field.h"
#include "net/channel.h"
#include "net/simnet.h"
#include "net/tcp_transport.h"
#include "net/wire.h"

namespace prio {
namespace {

TEST(WireTest, ScalarRoundTrip) {
  net::Writer w;
  w.u8_(0xAB);
  w.u16_(0xBEEF);
  w.u32_(0xDEADBEEF);
  w.u64_(0x0123456789ABCDEFull);
  net::Reader r(w.data());
  EXPECT_EQ(r.u8_(), 0xAB);
  EXPECT_EQ(r.u16_(), 0xBEEF);
  EXPECT_EQ(r.u32_(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64_(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(WireTest, BytesAndFieldVectors) {
  net::Writer w;
  std::vector<u8> payload = {1, 2, 3, 4, 5};
  w.bytes(payload);
  std::vector<Fp64> vec = {Fp64::from_u64(7), Fp64::from_u64(1ull << 40)};
  w.field_vector<Fp64>(vec);
  std::vector<Fp128> vec2 = {Fp128::from_u64(9)};
  w.field_vector<Fp128>(vec2);

  net::Reader r(w.data());
  EXPECT_EQ(r.bytes(), payload);
  EXPECT_EQ(r.field_vector<Fp64>(), vec);
  EXPECT_EQ(r.field_vector<Fp128>(), vec2);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(WireTest, TruncatedInputFailsSoftly) {
  net::Writer w;
  w.u64_(42);
  auto data = w.data();
  net::Reader r(std::span<const u8>(data.data(), 3));
  r.u64_();
  EXPECT_FALSE(r.ok());
}

TEST(WireTest, OversizedVectorLengthRejected) {
  net::Writer w;
  w.u32_(0xFFFFFFFF);  // claims ~4 billion elements
  net::Reader r(w.data());
  auto v = r.field_vector<Fp64>();
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(v.empty());
}

// Reader::field, fields_into and field_vector turn a non-canonical element
// into ok() == false without consuming it.
TEST(WireTest, NonCanonicalFieldElementRejected) {
  std::vector<u8> data(8, 0xFF);  // >= p for Fp64
  net::Reader r(data);
  EXPECT_EQ(r.field<Fp64>(), Fp64::zero());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.remaining(), 8u);

  std::vector<u8> p128(16);
  for (int i = 0; i < 16; ++i) {
    p128[i] = static_cast<u8>(Fp128::modulus() >> (8 * i));
  }
  net::Reader r128(p128);
  r128.field<Fp128>();
  EXPECT_FALSE(r128.ok());

  net::Writer w;
  w.field_vector<Fp64>(std::vector<Fp64>{Fp64::one(), Fp64::one()});
  auto vec = w.take();
  std::fill(vec.end() - 8, vec.end(), 0xFF);  // last element = 2^64 - 1
  net::Reader bulk(std::span<const u8>(vec).subspan(4));
  std::vector<Fp64> out(2);
  bulk.fields_into<Fp64>(std::span<Fp64>(out));
  EXPECT_FALSE(bulk.ok());
  EXPECT_EQ(bulk.remaining(), 16u);
  net::Reader counted(vec);
  EXPECT_TRUE(counted.field_vector<Fp64>().empty());
  EXPECT_FALSE(counted.ok());
}

// Fuzz-ish table of corrupt byte streams through the framing decoder: for
// every buffer the decoder must never crash or over-read, and whole-buffer
// and byte-by-byte feeding must agree on the outcome (frames recovered, or
// the stream flagged corrupt, or just incomplete).
TEST(FramingTest, CorruptBufferTable) {
  auto le32 = [](u32 v) {
    return std::vector<u8>{static_cast<u8>(v), static_cast<u8>(v >> 8),
                           static_cast<u8>(v >> 16), static_cast<u8>(v >> 24)};
  };
  auto cat = [](std::vector<u8> a, const std::vector<u8>& b) {
    a.insert(a.end(), b.begin(), b.end());
    return a;
  };

  struct Case {
    const char* name;
    std::vector<u8> stream;
    size_t want_frames;  // complete frames recoverable from the stream
    bool want_corrupt;
  };
  const std::vector<u8> payload = {0xDE, 0xAD, 0xBE, 0xEF};
  std::vector<Case> cases = {
      {"empty", {}, 0, false},
      {"truncated length prefix", {0x04, 0x00}, 0, false},
      {"length without payload", le32(4), 0, false},
      {"half a payload", cat(le32(4), {0xDE, 0xAD}), 0, false},
      {"valid empty frame", le32(0), 1, false},
      {"valid frame", cat(le32(4), payload), 1, false},
      {"valid frame + truncated next", cat(cat(le32(4), payload), le32(9)), 1,
       false},
      {"oversized length prefix", le32(0xFFFFFFFF), 0, true},
      {"length one past the limit",
       le32(static_cast<u32>(prio::net::kMaxFrameLen + 1)), 0, true},
      {"valid frame then oversized", cat(cat(le32(0), {}), le32(0xFFFFFFFF)),
       1, true},
      {"oversized hides later valid frame",
       cat(le32(0x7FFFFFFF), cat(le32(4), payload)), 0, true},
  };
  // Deterministic pseudo-random garbage of several lengths; the decoder
  // must degrade to one of the legal outcomes without reading past the
  // buffer (ASan/UBSan guard the CI legs).
  u32 x = 0x12345678;
  for (size_t n : {size_t{1}, size_t{3}, size_t{7}, size_t{64}, size_t{257}}) {
    std::vector<u8> junk(n);
    for (auto& b : junk) {
      x = x * 1664525u + 1013904223u;
      b = static_cast<u8>(x >> 24);
    }
    cases.push_back({"pseudo-random junk", junk, SIZE_MAX, false});
  }

  for (const auto& c : cases) {
    // Whole-buffer feed.
    net::FrameDecoder whole;
    whole.feed(c.stream);
    size_t whole_frames = 0;
    while (whole.next()) ++whole_frames;
    // Byte-by-byte feed must reach the same state.
    net::FrameDecoder dribble;
    size_t dribble_frames = 0;
    for (u8 b : c.stream) {
      dribble.feed(std::span<const u8>(&b, 1));
      while (dribble.next()) ++dribble_frames;
    }
    EXPECT_EQ(whole_frames, dribble_frames) << c.name;
    EXPECT_EQ(whole.corrupt(), dribble.corrupt()) << c.name;
    if (c.want_frames != SIZE_MAX) {
      EXPECT_EQ(whole_frames, c.want_frames) << c.name;
      EXPECT_EQ(whole.corrupt(), c.want_corrupt) << c.name;
    }
  }
}

// Truncations of a well-formed coalesced round payload (bitmap + field
// pairs, the batch pipeline's round-1 message) must fail softly at every
// cut point -- the Reader reports !ok instead of throwing or over-reading.
TEST(FramingTest, TruncatedRoundPayloadFailsSoftly) {
  net::Writer w;
  std::vector<u8> bits = {1, 0, 1, 1, 0};
  w.bitmap(bits);
  std::vector<std::pair<Fp64, Fp64>> pairs;
  for (u64 i = 1; i <= 5; ++i) {
    pairs.emplace_back(Fp64::from_u64(i), Fp64::from_u64(i * i));
  }
  w.field_pairs<Fp64>(pairs);
  const auto& full = w.data();

  for (size_t cut = 0; cut < full.size(); ++cut) {
    net::Reader r(std::span<const u8>(full.data(), cut));
    auto got_bits = r.bitmap(bits.size());
    auto got_pairs = r.field_pairs<Fp64>(pairs.size());
    const bool complete = r.ok() && r.at_end() && got_bits == bits &&
                          got_pairs.size() == pairs.size();
    EXPECT_FALSE(complete) << "cut=" << cut;
  }
  // And the uncut payload parses back exactly.
  net::Reader r(full);
  EXPECT_EQ(r.bitmap(bits.size()), bits);
  EXPECT_EQ(r.field_pairs<Fp64>(pairs.size()), pairs);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(ChannelTest, SealOpenRoundTripAndOrdering) {
  std::vector<u8> master(32, 7);
  net::SecureChannel tx(master, "client", "server0");
  net::SecureChannel rx(master, "client", "server0");
  std::vector<u8> m1 = {1, 2, 3}, m2 = {4, 5};
  auto c1 = tx.seal(m1);
  auto c2 = tx.seal(m2);
  EXPECT_EQ(rx.open(c1), m1);
  EXPECT_EQ(rx.open(c2), m2);
}

TEST(ChannelTest, ReplayAndCrossChannelRejected) {
  std::vector<u8> master(32, 7);
  net::SecureChannel tx(master, "client", "server0");
  net::SecureChannel rx(master, "client", "server0");
  net::SecureChannel other(master, "client", "server1");
  auto c1 = tx.seal({{1, 2, 3}});
  EXPECT_TRUE(rx.open(c1).has_value());
  // Replay: nonce counter has advanced, open fails.
  EXPECT_FALSE(rx.open(c1).has_value());
  // Wrong channel key.
  auto c2 = tx.seal({{9}});
  EXPECT_FALSE(other.open(c2).has_value());
}

TEST(SimNetworkTest, CountsBytesAndFramesPerLink) {
  net::SimNetwork n(3);
  n.record(0, 1, 100);
  n.record(0, 1, 7);
  n.record(0, 2, 50);
  n.record(1, 0, 10);
  EXPECT_EQ(n.link(0, 1).bytes, 107u);
  EXPECT_EQ(n.link(0, 1).frames, 2u);
  EXPECT_EQ(n.link(0, 2).bytes, 50u);
  EXPECT_EQ(n.link(0, 2).frames, 1u);
  EXPECT_EQ(n.link(1, 0).frames, 1u);
  EXPECT_EQ(n.link(2, 0).frames, 0u);
  EXPECT_EQ(n.bytes_sent_by(0), 157u);
  EXPECT_EQ(n.bytes_sent_by(1), 10u);
  EXPECT_EQ(n.total_bytes(), 167u);
  EXPECT_EQ(n.total_frames(), 4u);
  EXPECT_THROW(n.record(3, 0, 1), std::invalid_argument);
}

TEST(BusyClockTest, AccumulatesPerNode) {
  net::BusyClock clock(2);
  {
    auto scope = clock.measure(0);
    volatile u64 x = 0;
    for (int i = 0; i < 100000; ++i) x = x + i;
  }
  EXPECT_GT(clock.busy_us(0), 0.0);
  EXPECT_EQ(clock.busy_us(1), 0.0);
  EXPECT_EQ(clock.max_busy_us(), clock.busy_us(0));
  clock.reset();
  EXPECT_EQ(clock.busy_us(0), 0.0);
}

}  // namespace
}  // namespace prio
