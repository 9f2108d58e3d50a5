// Runtime AFE catalogue tests (afe/registry.h): spec-string grammar and
// normalization, the negative/fuzz table, flag-level config parsing,
// typed Result serialization round-trips for every AFE, the new Gf2Xor
// encoding, and -- the big one -- every catalogue spec driven end to end
// through an in-process sharded 3-server TCP cluster (server/inproc.h)
// for two epochs, each epoch's published typed aggregate cross-checked
// bit-for-bit against the plaintext reference, plus the wrong-spec
// kAggregateReject path and a cross-epoch replay.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "afe/registry.h"
#include "baseline/no_privacy.h"
#include "core/client.h"
#include "server/cli.h"
#include "server/inproc.h"
#include "server/protocol.h"

namespace prio {
namespace {

using F = Fp64;

// ---------------------------------------------------------------------------
// Grammar and normalization
// ---------------------------------------------------------------------------

TEST(AfeSpecTest, ParseAndCanonicalRoundTrip) {
  auto spec = afe::parse_afe_spec("countmin:w=256,d=4");
  EXPECT_EQ(spec.name, "countmin");
  EXPECT_EQ(spec.params.at("w"), "256");
  EXPECT_EQ(spec.params.at("d"), "4");
  // canonical() sorts keys, so parameter order on the command line is
  // irrelevant to the wire identity.
  EXPECT_EQ(spec.canonical(), "countmin:d=4,w=256");
  EXPECT_EQ(afe::parse_afe_spec("countmin:d=4,w=256").canonical(),
            spec.canonical());
  EXPECT_EQ(afe::parse_afe_spec("sum").canonical(), "sum");
}

TEST(AfeSpecTest, WithAfeNormalizesDefaults) {
  // A bare name and a fully spelled spec are the SAME deployment: with_afe
  // fills defaults in, so both canonical strings agree.
  std::string bare, spelled;
  afe::with_afe<F>(afe::parse_afe_spec("countmin"),
                   [&](const auto&, const afe::AfeSpec& norm) {
                     bare = norm.canonical();
                     return 0;
                   });
  afe::with_afe<F>(afe::parse_afe_spec("countmin:d=4,w=256"),
                   [&](const auto&, const afe::AfeSpec& norm) {
                     spelled = norm.canonical();
                     return 0;
                   });
  EXPECT_EQ(bare, spelled);
  EXPECT_NE(bare.find("d=4"), std::string::npos);
  EXPECT_NE(bare.find("w=256"), std::string::npos);
}

TEST(AfeSpecTest, EveryCatalogueSpecConstructs) {
  for (const auto& text : afe::catalogue_specs()) {
    EXPECT_NO_THROW(afe::with_afe<F>(
        afe::parse_afe_spec(text),
        [](const auto& a, const afe::AfeSpec&) {
          EXPECT_GE(a.k(), a.k_prime());
          return 0;
        }))
        << text;
  }
}

TEST(AfeSpecTest, NegativeTable) {
  // Bad grammar: rejected by parse_afe_spec.
  const std::vector<std::string> bad_grammar = {
      "",
      ":",
      "Bad",
      "bit-vec",
      "sum:",
      "bitvec_sum:len",
      "bitvec_sum:len=",
      "bitvec_sum:=4",
      "bitvec_sum:len=4,len=5",
      "bitvec_sum:len=4,,",
      "sum:Bits=4",
  };
  for (const auto& text : bad_grammar) {
    EXPECT_THROW(afe::parse_afe_spec(text), std::invalid_argument) << text;
  }
  // Bad semantics: grammar is fine, with_afe rejects name/key/range.
  const std::vector<std::string> bad_semantics = {
      "nope",
      "sum:bits=0",
      "sum:bits=63",
      "sum:bits=1x",
      "sum:bits=999999999999999999999",
      "bitvec_sum:len=0",
      "bitvec_sum:len=70000",
      "bitvec_sum:size=4",      // unknown key
      "countmin:d=33",
      "countmin:d=32,w=16384",  // d*w over the resource cap
      "linreg:bits=21",
      "linreg:dims=0",
      "r2:coeffs=1;2;x",
      "product:bits=4,frac=4",  // frac must be < bits
      "gf2:bits=65",
      "popular:bits=64",
  };
  for (const auto& text : bad_semantics) {
    EXPECT_THROW(afe::with_afe<F>(afe::parse_afe_spec(text),
                                  [](const auto&, const afe::AfeSpec&) {
                                    return 0;
                                  }),
                 std::invalid_argument)
        << text;
  }
}

// ---------------------------------------------------------------------------
// Flag-level deployment config (server/cli.h)
// ---------------------------------------------------------------------------

TEST(CliSpecTest, BooleanFlagSugarAndDefaults) {
  std::vector<std::string> args = {"prog", "--smoke", "--clients", "5",
                                   "--afe", "countmin:w=32,d=3"};
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  server::Flags flags(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(flags.has("smoke"));
  EXPECT_EQ(flags.num("clients", 0), 5u);
  auto common = server::parse_common_config(flags);
  EXPECT_EQ(common.spec.canonical(), "countmin:d=3,w=32");
  EXPECT_EQ(common.shards, 1u);
}

// A flag the binary never looks up -- a typo, or one a previous release
// accepted -- must fail start-up by name instead of being ignored.
TEST(CliSpecTest, UnreadFlagsAreRejectedByName) {
  std::vector<std::string> args = {"prog",         "--shards",  "2",
                                   "--data_dir",   "/tmp/prio", "--smoke",
                                   "--epoch_size", "40"};
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  server::Flags flags(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(server::parse_common_config(flags).shards, 2u);
  EXPECT_FALSE(flags.has("data-dir"));
  EXPECT_TRUE(flags.has("smoke"));
  try {
    flags.reject_unread();
    FAIL() << "unread flags were accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unknown flag(s): --data_dir, --epoch_size");
  }
  // Once every flag has been looked up, nothing is left to reject.
  flags.str("data_dir", "");
  flags.num("epoch_size", 0);
  EXPECT_NO_THROW(flags.reject_unread());
}

// ---------------------------------------------------------------------------
// Gf2Xor: the XOR family's prime-field lifting, new with the registry.
// ---------------------------------------------------------------------------

TEST(Gf2XorTest, DecodeIsExactXor) {
  afe::Gf2Xor<F> a(48);
  ASSERT_EQ(a.k(), 48u);
  std::vector<F> sigma(a.k_prime(), F::zero());
  u64 expect = 0;
  for (u64 cid = 0; cid < 9; ++cid) {
    const u64 in = afe::sample_input(a, cid);
    expect ^= in;
    auto enc = a.encode(in);
    for (size_t c = 0; c < a.k_prime(); ++c) sigma[c] += enc[c];
  }
  EXPECT_EQ(a.decode(std::span<const F>(sigma), 9), expect);
}

// ---------------------------------------------------------------------------
// Typed Result serialization: for every catalogue AFE, aggregate a few
// sample inputs, decode, serialize, parse, re-serialize -- the bytes must
// be identical, and truncated payloads must fail the bounded parse.
// ---------------------------------------------------------------------------

TEST(ResultCodecTest, RoundTripEveryCatalogueAfe) {
  for (const auto& text : afe::catalogue_specs()) {
    afe::with_afe<F>(
        afe::parse_afe_spec(text),
        [&](const auto& a, const afe::AfeSpec&) {
          constexpr size_t kClients = 8;
          std::vector<F> sigma(a.k_prime(), F::zero());
          for (u64 cid = 0; cid < kClients; ++cid) {
            auto enc = a.encode(afe::sample_input(a, cid));
            for (size_t c = 0; c < a.k_prime(); ++c) sigma[c] += enc[c];
          }
          auto res = a.decode(std::span<const F>(sigma), kClients);
          const auto bytes = afe::result_bytes(a, res);
          EXPECT_FALSE(bytes.empty()) << text;

          net::Reader r(bytes);
          std::decay_t<decltype(res)> parsed{};
          const bool parsed_ok = afe::read_result(a, r, &parsed);
          EXPECT_TRUE(parsed_ok) << text;
          if (!parsed_ok) return 0;
          EXPECT_TRUE(r.at_end()) << text;
          EXPECT_EQ(afe::result_bytes(a, parsed), bytes) << text;

          // Truncation must fail loudly, never return a half-parsed value.
          if (bytes.size() > 1) {
            net::Reader short_r(
                std::span<const u8>(bytes.data(), bytes.size() - 1));
            std::decay_t<decltype(res)> dummy{};
            bool parse_ok = afe::read_result(a, short_r, &dummy);
            EXPECT_FALSE(parse_ok && short_r.ok() && short_r.at_end())
                << text;
          }
          return 0;
        });
  }
}

// ---------------------------------------------------------------------------
// End to end: every catalogue spec through a sharded in-process TCP
// cluster, cross-checked against the plaintext reference, plus the
// wrong-spec reject path. This is the acceptance gate for the runtime
// AFE-spec API.
// ---------------------------------------------------------------------------

template <typename Afe>
void run_spec_e2e(const Afe& a, const afe::AfeSpec& spec) {
  constexpr size_t kServers = 3;
  constexpr size_t kClients = 12;
  constexpr u64 kSeed = 7;

  // Workload: the registry's deterministic inputs. Client 5's ciphertext
  // is tampered in transit to one server; client 8 seals a genuine upload
  // of an encoding that fails Valid, which only the SNIP rounds can catch.
  // Both must be rejected; the reference counts everyone else.
  PrioClient<F, Afe> client(&a, kServers, kSeed);
  baseline::PlaintextReference<F, Afe> ref(&a);
  SecureRng rng = SecureRng::from_os_entropy();
  std::vector<Submission> subs;
  for (u64 cid = 0; cid < kClients; ++cid) {
    std::vector<F> enc = a.encode(afe::sample_input(a, cid));
    if (cid == 8) {
      enc[0] += F::from_u64(2);
      ASSERT_FALSE(a.valid_circuit().is_valid(enc)) << spec.canonical();
    } else if (cid != 5) {
      ref.add(cid, afe::sample_input(a, cid));
    }
    auto blobs = client.upload_encoding(enc, cid, rng);
    if (cid == 5) blobs[cid % kServers][12] ^= 1;
    subs.push_back({cid, std::move(blobs)});
  }

  // Epoch 1: a byte-identical resend of honest client 0's epoch-0 frames
  // plus fresh clients filling the epoch. The resend is an honest blob, so
  // it passes the SNIP check; only the replay floor can reject it. The
  // reference counts each client once, at its first delivery.
  std::vector<Submission> subs1 = {subs[0]};
  auto ref1 = ref;
  ref1.next_epoch();
  ref1.add(0, afe::sample_input(a, 0));
  for (u64 cid = kClients; cid < 2 * kClients - 1; ++cid) {
    ref1.add(cid, afe::sample_input(a, cid));
    subs1.push_back({cid, client.upload(afe::sample_input(a, cid), cid, rng)});
  }

  typename server::InprocCluster<F, Afe>::Options copts;
  copts.shards = 2;
  copts.master_seed = kSeed;
  copts.runtime.epoch_size = kClients;
  copts.runtime.epochs = 2;
  copts.runtime.max_batch = 8;
  copts.runtime.afe_spec = spec.canonical();
  server::InprocCluster<F, Afe> cluster(&a, copts);

  std::vector<net::FramedConn> conns;
  conns.reserve(kServers);
  for (size_t j = 0; j < kServers; ++j) {
    conns.emplace_back(
        net::connect_tcp("127.0.0.1", cluster.client_port(j), 15'000));
  }

  // A client configured with a DIFFERENT spec must be rejected loudly
  // (immediately -- identity is checked before blocking on publication).
  {
    net::FramedConn probe(
        net::connect_tcp("127.0.0.1", cluster.client_port(0), 15'000));
    net::Writer ask;
    ask.u8_(server::kGetAggregate);
    ask.u32_(0);
    ask.u8_(0xfe);  // not a catalogue wire id
    ask.str_("freq:domain=4");
    probe.send_frame(ask.data());
    const std::vector<u8> frame = probe.recv_frame(15'000);
    net::Reader r(frame);
    EXPECT_EQ(r.u8_(), server::kAggregateReject);
    EXPECT_EQ(r.u8_(), afe::afe_wire_id(a));
    EXPECT_EQ(r.str_(), spec.canonical());
    EXPECT_TRUE(r.ok() && r.at_end());
  }

  auto submit_all = [&](const std::vector<Submission>& batch) {
    for (const auto& sub : batch) {
      for (size_t j = 0; j < kServers; ++j) {
        net::Writer w;
        w.u8_(server::kClientSubmit);
        w.u64_(sub.client_id);
        w.bytes(sub.blobs[j]);
        conns[j].send_frame(w.data());
      }
      for (size_t j = 0; j < kServers; ++j) {
        const std::vector<u8> ack = conns[j].recv_frame(15'000);
        net::Reader r(ack);
        ASSERT_EQ(r.u8_(), server::kSubmitAck);
        ASSERT_EQ(r.u8_(), 1);
      }
    }
  };

  // Fetches epoch `epoch`'s published typed aggregate with OUR identity.
  // The published sigma, the accepted count, and the typed Result must all
  // match the plaintext reference bit-for-bit; so must our own decode of
  // the published sigma.
  auto check_epoch = [&](u32 epoch,
                         const baseline::PlaintextReference<F, Afe>& want) {
    net::Writer ask;
    ask.u8_(server::kGetAggregate);
    ask.u32_(epoch);
    ask.u8_(afe::afe_wire_id(a));
    ask.str_(spec.canonical());
    conns[0].send_frame(ask.data());
    const std::vector<u8> frame = conns[0].recv_frame(120'000);
    net::Reader r(frame);
    ASSERT_EQ(r.u8_(), server::kAggregate);
    EXPECT_EQ(r.u32_(), epoch);
    const u64 accepted = r.u64_();
    EXPECT_EQ(r.u8_(), afe::afe_wire_id(a));
    EXPECT_EQ(r.str_(), spec.canonical());
    auto sigma = r.field_vector<F>(a.k_prime());
    const std::vector<u8> typed = r.bytes();
    ASSERT_TRUE(r.ok() && r.at_end());
    ASSERT_EQ(sigma.size(), a.k_prime());
    EXPECT_EQ(accepted, want.accepted()) << "epoch " << epoch;
    EXPECT_EQ(sigma, want.sigma()) << "epoch " << epoch;
    EXPECT_EQ(typed, afe::result_bytes(a, want.result())) << "epoch " << epoch;
    auto local = a.decode(std::span<const F>(sigma), accepted);
    EXPECT_EQ(afe::result_bytes(a, local), typed) << "epoch " << epoch;
  };

  EXPECT_EQ(ref.accepted(), kClients - 2);  // the tampered and bad proof out
  EXPECT_EQ(ref1.accepted(), kClients - 1);  // the resend out
  submit_all(subs);
  if (::testing::Test::HasFatalFailure()) return;
  check_epoch(0, ref);
  if (::testing::Test::HasFatalFailure()) return;
  // Epoch 0 is published, so every original was consumed: the resend is
  // buffered and announced again, not absorbed by intake dedup (which
  // would leave epoch 1 one submission short of closing).
  submit_all(subs1);
  if (::testing::Test::HasFatalFailure()) return;
  check_epoch(1, ref1);
  // Close our connections before finish(): drain_and_stop grants open
  // clients a 10 s grace, which would otherwise pad every test with it.
  conns.clear();
  cluster.finish();
}

class RegistryE2E : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistryE2E, CatalogueSpecThroughShardedTcpRuntime) {
  afe::with_afe<F>(afe::parse_afe_spec(GetParam()),
                   [](const auto& a, const afe::AfeSpec& norm) {
                     run_spec_e2e(a, norm);
                     return 0;
                   });
}

INSTANTIATE_TEST_SUITE_P(
    Catalogue, RegistryE2E, ::testing::ValuesIn(afe::catalogue_specs()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      // Test names must be alphanumeric: keep the AFE name, index the rest.
      std::string name = info.param.substr(0, info.param.find(':'));
      return name + "_" + std::to_string(info.index);
    });

}  // namespace
}  // namespace prio
