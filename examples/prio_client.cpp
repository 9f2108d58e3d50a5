// prio_client: drives a multi-process Prio deployment over TCP.
//
// Simulates N logical clients (ids --first-client .. +--clients), each
// holding a private input for the deployment's AFE (--afe SPEC, the
// afe/registry.h grammar; inputs are the registry's deterministic
// sample_input workload). Every submission is encoded, SNIP-proved,
// secret-shared, and sealed per server by core/client.h, then delivered to
// each prio_server over a framed TCP connection. With --tamper-every k,
// every k-th client's ciphertext is flipped in transit to one server --
// those submissions must be rejected, demonstrating robustness end to end.
//
// With --expect-clients M the client then asks server 0 for the published
// epoch aggregate and checks it three ways:
//
//   1. the reply's AFE identity (wire id + canonical spec) is ours;
//   2. the server's typed Result payload is bit-identical to our own
//      decode of the published sigma vector; and
//   3. the published sigma, accepted count and typed result are
//      bit-identical to the plaintext reference (baseline/no_privacy.h):
//      the summed encodings of the M clients' untampered inputs, which
//      shares no code with the servers' SNIP path.
//
// The process exits 0 iff all three hold: the correctness gate for the
// whole multi-process runtime, for every AFE in the catalogue. With
// --probe-wrong-spec the client first asks server 0 for the aggregate
// under a deliberately wrong spec and requires the loud kAggregateReject
// (the misconfigured-client path must fail closed, not decode garbage).
// An unknown flag fails start-up, naming it, before any connection.
// See src/server/prio_server.cc for a full invocation.

#include <cstdio>

#include "afe/registry.h"
#include "baseline/no_privacy.h"
#include "core/client.h"
#include "server/cli.h"
#include "server/protocol.h"

using namespace prio;

namespace {

using F = Fp64;

bool tampered(u64 cid, u64 every) { return every > 0 && cid % every == every - 1; }

// Asks server 0 for the epoch aggregate under a spec that is NOT the
// deployment's and requires the loud reject naming the server's spec.
// Runs on its own connection: the server drops the connection after a
// reject, so the probe must never share the submission channel.
template <typename Afe>
int probe_wrong_spec(const Afe& afe, const afe::AfeSpec& spec,
                     const server::ServerEndpoint& ep, u32 epoch) {
  net::FramedConn conn(net::connect_tcp(ep.host, ep.client_port, 15'000));
  const std::string wrong = spec.name == "sum" ? "bitvec_sum:len=16"
                                               : "sum:bits=12";
  net::Writer ask;
  ask.u8_(server::kGetAggregate);
  ask.u32_(epoch);
  ask.u8_(0xff);  // no catalogue entry has this wire id
  ask.str_(wrong);
  conn.send_frame(ask.data());
  const auto reply = conn.recv_frame(15'000);
  net::Reader r(reply);
  if (r.u8_() != server::kAggregateReject) {
    std::fprintf(stderr, "probe: wrong-spec query was NOT rejected\n");
    return 1;
  }
  const u8 their_id = r.u8_();
  const std::string their_spec = r.str_();
  if (!r.ok() || !r.at_end() || their_id != afe::afe_wire_id(afe) ||
      their_spec != spec.canonical()) {
    std::fprintf(stderr, "probe: reject frame malformed or names spec '%s'\n",
                 their_spec.c_str());
    return 1;
  }
  std::printf("[client] wrong-spec probe rejected (server runs '%s')\n",
              their_spec.c_str());
  return 0;
}

template <typename Afe>
int run_client(const Afe& afe, const afe::AfeSpec& spec,
               const server::Flags& flags,
               const server::CommonConfig& common) {
  const auto& endpoints = common.endpoints;
  const size_t s = endpoints.size();
  const u64 first = flags.num("first-client", 0);
  const u64 n = flags.num("clients", 40);
  const u64 tamper_every = flags.num("tamper-every", 0);
  const u32 epoch = static_cast<u32>(flags.num("epoch", 0));
  const u64 expect = flags.num("expect-clients", 0);
  const bool probe = flags.has("probe-wrong-spec");
  // Every flag has been read: a typo (--expect_clients) would otherwise
  // skip the reference check and exit 0 without having checked anything.
  flags.reject_unread();

  PrioClient<F, Afe> encoder(&afe, s, common.master_seed);
  SecureRng rng = SecureRng::from_os_entropy();

  // One framed connection per server carries all logical clients' blobs.
  std::vector<net::FramedConn> conns;
  conns.reserve(s);
  for (const auto& ep : endpoints) {
    conns.emplace_back(net::connect_tcp(ep.host, ep.client_port, 15'000));
  }

  if (probe) {
    // Mismatch rejection is immediate (the server checks identity before
    // blocking on publication), so the probe runs before any submission.
    if (int rc = probe_wrong_spec(afe, spec, endpoints[0], epoch)) return rc;
  }

  u64 sent = 0;
  for (u64 cid = first; cid < first + n; ++cid) {
    auto blobs = encoder.upload(afe::sample_input(afe, cid), cid, rng);
    if (tampered(cid, tamper_every)) blobs[cid % s][12] ^= 1;
    for (size_t j = 0; j < s; ++j) {
      net::Writer w;
      w.u8_(server::kClientSubmit);
      w.u64_(cid);
      w.bytes(blobs[j]);
      conns[j].send_frame(w.data());
    }
    for (size_t j = 0; j < s; ++j) {
      const auto ack_frame = conns[j].recv_frame(15'000);
      net::Reader r(ack_frame);
      if (r.u8_() != server::kSubmitAck || r.u8_() != 1 || !r.ok()) {
        std::fprintf(stderr, "server %zu refused client %llu\n", j,
                     static_cast<unsigned long long>(cid));
        return 1;
      }
    }
    ++sent;
  }
  std::printf("[client] afe=%s: submitted %llu clients x %zu servers\n",
              spec.canonical().c_str(), static_cast<unsigned long long>(sent),
              s);

  if (expect == 0) return 0;

  // Fetch the published aggregate from server 0 (blocks until the epoch
  // closes server-side). The query names our AFE; a disagreeing server
  // rejects instead of replying.
  net::Writer ask;
  ask.u8_(server::kGetAggregate);
  ask.u32_(epoch);
  ask.u8_(afe::afe_wire_id(afe));
  ask.str_(spec.canonical());
  conns[0].send_frame(ask.data());
  const auto reply = conns[0].recv_frame(60'000);
  net::Reader r(reply);
  const u8 type = r.u8_();
  if (type == server::kAggregateReject) {
    const u8 their_id = r.u8_();
    std::fprintf(stderr,
                 "server 0 rejected our spec '%s' (it runs id=%u '%s')\n",
                 spec.canonical().c_str(), their_id, r.str_().c_str());
    return 1;
  }
  const u32 got_epoch = r.u32_();
  const u64 accepted = r.u64_();
  const u8 got_id = r.u8_();
  const std::string got_spec = r.str_();
  auto sigma = r.field_vector<F>(afe.k_prime());
  const std::vector<u8> typed = r.bytes();
  if (type != server::kAggregate || got_epoch != epoch || !r.ok() ||
      !r.at_end() || sigma.size() != afe.k_prime() ||
      got_id != afe::afe_wire_id(afe) || got_spec != spec.canonical()) {
    std::fprintf(stderr, "malformed aggregate reply\n");
    return 1;
  }

  // Check 2: our decode of sigma == the server's typed payload, bit for
  // bit (doubles compare as IEEE patterns).
  auto tcp_result = afe.decode(std::span<const F>(sigma), accepted);
  const auto local_bytes = afe::result_bytes(afe, tcp_result);
  const bool typed_match = local_bytes == typed;

  // Check 3: the plaintext reference over the same M clients' inputs.
  baseline::PlaintextReference<F, Afe> ref(&afe);
  for (u64 cid = 0; cid < expect; ++cid) {
    if (!tampered(cid, tamper_every)) ref.add(cid, afe::sample_input(afe, cid));
  }
  const bool ref_match = sigma == ref.sigma() && accepted == ref.accepted() &&
                         afe::result_bytes(afe, ref.result()) == local_bytes;

  std::printf("[client] epoch %u: accepted %llu/%llu (reference %llu)\n",
              epoch, static_cast<unsigned long long>(accepted),
              static_cast<unsigned long long>(expect),
              static_cast<unsigned long long>(ref.accepted()));
  const size_t show = std::min<size_t>(sigma.size(), 8);
  for (size_t i = 0; i < show; ++i) {
    std::printf("  sigma[%zu] = %llu\n", i,
                static_cast<unsigned long long>(sigma[i].to_u64()));
  }
  std::printf(
      "[client] typed result (%zu bytes) %s server decode; TCP aggregate %s "
      "plaintext reference\n",
      local_bytes.size(), typed_match ? "MATCHES" : "DIVERGES FROM",
      ref_match ? "MATCHES" : "DIVERGES FROM");
  return typed_match && ref_match ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    server::Flags flags(argc, argv);
    const auto common = server::parse_common_config(flags);
    return afe::with_afe<F>(
        common.spec, [&](const auto& afe_obj, const afe::AfeSpec& norm) {
          return run_client(afe_obj, norm, flags, common);
        });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "prio_client: fatal: %s\n", e.what());
    return 1;
  }
}
