// prio_loadgen: open-loop client swarm over the sharded TCP runtime.
//
// Drives mixed-AFE workloads against real in-process prio_server clusters
// (server/inproc.h -- real sockets, real frames, real mesh) with
// rate-controlled OPEN-LOOP arrivals: every logical client has a scheduled
// arrival time drawn from a Poisson process, and submission latency is
// measured from that scheduled arrival to the last server's ack -- so
// when the servers fall behind, queueing delay is charged to latency
// instead of silently throttling the offered load (the closed-loop
// coordinated-omission trap).
//
// Two built-in mixed workloads, each a weighted blend of AFE-spec
// components from the runtime catalogue (afe/registry.h):
//
//   telemetry:  bitvec_sum:len=32 (60%) + countmin:w=64,d=3 (40%)
//   analytics:  linreg:dims=3,bits=10 (50%) + stats:bits=12 (30%)
//               + popular:bits=16 (20%)
//
// Each component runs a 3-server cluster (--shards lanes, default 2) for
// two epochs:
//
//   epoch 0: U unique clients, a --tamper-frac fraction with a flipped
//            ciphertext byte (must be rejected by SNIP verification);
//   epoch 1: a --replay-frac fraction of epoch-0 frames resent byte-for-
//            byte (must be rejected by the replay floor: they re-enter the
//            intake buffer once the originals are consumed, get announced,
//            pass the SNIP check -- they are honest blobs -- and die at
//            the floor), plus fresh clients topping the epoch back up to U.
//
// Phase B starts only after the epoch-0 aggregate is fetched: a replay
// arriving while its original is still buffered is absorbed by intake
// dedup (acked, never separately announced) and would never consume epoch
// quota; sequencing after the publish guarantees every original was
// consumed, so every replay is announced and rejected.
//
// All submissions are pre-encoded before the measurement clock starts
// (SubmissionSealer's per-client counters are not thread-safe, and client
// encode cost does not belong in server-side latency); workers only ship
// prebuilt frames. Accept/reject counts come ONLY from the published
// typed aggregates -- intake acks do not reflect verification verdicts.
//
// Every epoch's published aggregate is cross-checked against the plaintext
// reference (baseline/no_privacy.h) over that epoch's untampered,
// first-delivered inputs: accepted count, sigma vector, and the server's
// typed Result payload must all match bit-for-bit, for every component, or
// the run exits non-zero.
//
// Output: BENCH_loadgen.json (override with --out), one flat JSON object
// with per-mix arrival rate, accept/reject counts, p50/p95/p99 submission
// latency, ack RTT, scheduler lag, and publish wait (the intake-vs-
// verification backpressure signals). --smoke shrinks the run for CI.
//
// --scrape self attaches an obs::Registry to every in-process cluster and
// pulls server 0's /stats.json after each component finishes, merging the
// server-side stage histograms (prepare/rounds/commit latency, intake and
// verify counters) into the report next to the client-side numbers;
// --scrape HOST:PORT instead scrapes an already-running external
// prio_server --stats-port once at the end of the run. --scrape-out FILE
// additionally writes the raw scraped JSON to its own file (the CI
// artifact next to BENCH_loadgen.json).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "afe/registry.h"
#include "baseline/no_privacy.h"
#include "bench_util.h"
#include "core/client.h"
#include "obs/stats_server.h"
#include "server/cli.h"
#include "server/inproc.h"
#include "server/protocol.h"

using namespace prio;

namespace {

using F = Fp64;
using Clock = std::chrono::steady_clock;

constexpr size_t kServers = 3;

struct LoadConfig {
  size_t clients = 10'000;  // unique clients per mix per epoch
  double rate_hz = 2'500.0;  // offered arrival rate per mix
  double tamper_frac = 0.05;
  double replay_frac = 0.10;
  size_t workers = 4;  // per component
  size_t shards = 2;
  bool scrape_self = false;  // attach metrics + scrape each cluster
  u64 seed = 42;
  u64 master_seed = 1;
};

struct Sample {
  double lat_ms = 0;  // scheduled arrival -> last ack (includes queueing)
  double rtt_ms = 0;  // send -> last ack
  double lag_ms = 0;  // scheduled arrival -> send (worker backpressure)
};

struct ComponentReport {
  std::string spec;
  size_t uniques = 0, tampered = 0, replays = 0, fresh = 0;
  u64 tcp_accepted[2] = {0, 0};
  u64 ref_accepted[2] = {0, 0};
  bool match[2] = {false, false};
  std::vector<Sample> samples;
  double publish_wait_ms[2] = {0, 0};
  double duration_s = 0;
  std::string server_stats;  // server 0's /stats.json body (--scrape self)
  std::string error;
};

double pct(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t idx = std::min(
      v.size() - 1, static_cast<size_t>(std::ceil(q * v.size())) - 1);
  return v[idx];
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// One epoch's worth of prebuilt traffic for one component.
struct PhaseItem {
  size_t enc_idx;  // index into the component's encoded-submission table
};

// Fetches epoch `epoch`'s published aggregate from server 0, validating
// the reply's AFE identity, and returns (accepted, sigma, typed bytes).
template <typename Afe>
struct FetchedAggregate {
  u64 accepted = 0;
  std::vector<F> sigma;
  std::vector<u8> typed;
};

template <typename Afe>
FetchedAggregate<Afe> fetch_aggregate(const Afe& afe, const afe::AfeSpec& spec,
                                      net::FramedConn& conn, u32 epoch) {
  net::Writer ask;
  ask.u8_(server::kGetAggregate);
  ask.u32_(epoch);
  ask.u8_(afe::afe_wire_id(afe));
  ask.str_(spec.canonical());
  conn.send_frame(ask.data());
  const auto reply = conn.recv_frame(300'000);
  net::Reader r(reply);
  const u8 type = r.u8_();
  if (type == server::kAggregateReject) {
    throw std::runtime_error("loadgen: server rejected spec '" +
                             spec.canonical() + "'");
  }
  FetchedAggregate<Afe> out;
  const u32 got_epoch = r.u32_();
  out.accepted = r.u64_();
  const u8 got_id = r.u8_();
  const std::string got_spec = r.str_();
  out.sigma = r.field_vector<F>(afe.k_prime());
  out.typed = r.bytes();
  if (type != server::kAggregate || got_epoch != epoch || !r.ok() ||
      !r.at_end() || out.sigma.size() != afe.k_prime() ||
      got_id != afe::afe_wire_id(afe) || got_spec != spec.canonical()) {
    throw std::runtime_error("loadgen: malformed aggregate reply (epoch " +
                             std::to_string(epoch) + ")");
  }
  return out;
}

// Runs one component's full two-epoch lifecycle: pre-encode, cluster up,
// open-loop phase A, epoch-0 aggregate, open-loop phase B (replays +
// fresh), epoch-1 aggregate, plaintext reference cross-check.
template <typename Afe>
ComponentReport run_component(const Afe& afe, const afe::AfeSpec& spec,
                              size_t uniques, double rate_hz,
                              const LoadConfig& cfg, u64 comp_seed) {
  ComponentReport rep;
  rep.spec = spec.canonical();
  rep.uniques = uniques;
  rep.tampered =
      static_cast<size_t>(std::lround(cfg.tamper_frac * uniques));
  rep.replays = std::min(
      static_cast<size_t>(std::lround(cfg.replay_frac * uniques)),
      uniques - rep.tampered);
  rep.fresh = uniques - rep.replays;

  std::mt19937_64 rng(comp_seed);

  // ---- pre-encode (single-threaded: the sealer's per-client counters are
  // not thread-safe; also keeps client CPU out of the measured path) ----
  PrioClient<F, Afe> client(&afe, kServers, cfg.master_seed);
  SecureRng enc_rng = SecureRng::from_os_entropy();

  // Encoded-submission table: [0, uniques) = epoch 0 (cids 0..U-1, the
  // first `tampered` of them with a flipped ciphertext byte), then
  // `fresh` fresh epoch-1 clients (cids U..U+fresh-1). Replays reference
  // epoch-0 entries [tampered, tampered+replays) -- honest originals, so
  // only the replay floor (never the SNIP check) can reject them.
  struct Enc {
    u64 cid = 0;
    bool tampered = false;
    std::vector<std::vector<u8>> frames;  // prebuilt kClientSubmit, per server
  };
  std::vector<Enc> enc;
  enc.reserve(uniques + rep.fresh);
  auto encode_one = [&](u64 cid, bool tamper) {
    Enc e;
    e.cid = cid;
    e.tampered = tamper;
    auto blobs = client.upload(afe::sample_input(afe, cid), cid, enc_rng);
    if (tamper) blobs[cid % kServers][12] ^= 1;
    e.frames.reserve(kServers);
    for (size_t j = 0; j < kServers; ++j) {
      net::Writer w;
      w.u8_(server::kClientSubmit);
      w.u64_(cid);
      w.bytes(blobs[j]);
      e.frames.push_back(w.take());
    }
    enc.push_back(std::move(e));
  };
  for (u64 cid = 0; cid < uniques; ++cid) encode_one(cid, cid < rep.tampered);
  for (u64 cid = uniques; cid < uniques + rep.fresh; ++cid) {
    encode_one(cid, false);
  }

  // Arrival schedules: shuffled item order, Poisson arrival offsets.
  auto make_phase = [&](std::vector<size_t> idx) {
    std::shuffle(idx.begin(), idx.end(), rng);
    std::vector<PhaseItem> items;
    items.reserve(idx.size());
    for (size_t i : idx) items.push_back({i});
    return items;
  };
  auto make_sched = [&](size_t n) {
    std::exponential_distribution<double> gap(rate_hz);
    std::vector<double> sched(n);
    double t = 0;
    for (size_t i = 0; i < n; ++i) {
      t += gap(rng);
      sched[i] = t;
    }
    return sched;
  };
  std::vector<size_t> idx0(uniques);
  std::iota(idx0.begin(), idx0.end(), 0);
  std::vector<size_t> idx1;
  for (size_t i = rep.tampered; i < rep.tampered + rep.replays; ++i) {
    idx1.push_back(i);  // replays: identical frames of honest originals
  }
  for (size_t i = uniques; i < uniques + rep.fresh; ++i) idx1.push_back(i);
  const auto phase0 = make_phase(std::move(idx0));
  const auto phase1 = make_phase(std::move(idx1));
  const auto sched0 = make_sched(phase0.size());
  const auto sched1 = make_sched(phase1.size());

  // ---- cluster up -------------------------------------------------------
  typename server::InprocCluster<F, Afe>::Options copts;
  copts.num_servers = kServers;
  copts.shards = cfg.shards;
  copts.master_seed = cfg.master_seed;
  copts.runtime.epoch_size = uniques;  // both epochs consume exactly U
  copts.runtime.epochs = 2;
  copts.runtime.max_batch = 32;
  copts.runtime.announce_wait_ms = 120'000;
  copts.runtime.afe_spec = spec.canonical();
  copts.stats = cfg.scrape_self;
  server::InprocCluster<F, Afe> cluster(&afe, copts);

  net::FramedConn agg_conn(
      net::connect_tcp("127.0.0.1", cluster.client_port(0), 15'000));

  // ---- open-loop phases -------------------------------------------------
  rep.samples.resize(phase0.size() + phase1.size());
  auto run_phase = [&](const std::vector<PhaseItem>& items,
                       const std::vector<double>& sched,
                       size_t sample_base) {
    std::atomic<size_t> next{0};
    std::vector<std::thread> workers;
    std::vector<std::exception_ptr> errors(cfg.workers);
    const auto start = Clock::now();
    for (size_t w = 0; w < cfg.workers; ++w) {
      workers.emplace_back([&, w] {
        try {
          std::vector<net::FramedConn> conns;
          conns.reserve(kServers);
          for (size_t j = 0; j < kServers; ++j) {
            conns.emplace_back(net::connect_tcp(
                "127.0.0.1", cluster.client_port(j), 15'000));
          }
          for (;;) {
            const size_t i = next.fetch_add(1);
            if (i >= items.size()) break;
            const Enc& e = enc[items[i].enc_idx];
            const auto target =
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(sched[i]));
            std::this_thread::sleep_until(target);
            const auto send_t = Clock::now();
            for (size_t j = 0; j < kServers; ++j) {
              conns[j].send_frame(e.frames[j]);
            }
            for (size_t j = 0; j < kServers; ++j) {
              const auto ack = conns[j].recv_frame(60'000);
              net::Reader r(ack);
              if (r.u8_() != server::kSubmitAck || r.u8_() != 1 || !r.ok()) {
                throw std::runtime_error("intake nacked a submission");
              }
            }
            const auto done = Clock::now();
            rep.samples[sample_base + i] = {ms_between(target, done),
                                            ms_between(send_t, done),
                                            ms_between(target, send_t)};
          }
        } catch (...) {
          errors[w] = std::current_exception();
          next.store(items.size());  // abort the phase on first failure
        }
      });
    }
    for (auto& t : workers) t.join();
    for (auto& err : errors) {
      if (err) std::rethrow_exception(err);
    }
  };

  const auto t_begin = Clock::now();
  FetchedAggregate<Afe> agg[2];
  run_phase(phase0, sched0, 0);
  const auto t_a_done = Clock::now();
  agg[0] = fetch_aggregate(afe, spec, agg_conn, 0);
  rep.publish_wait_ms[0] = ms_between(t_a_done, Clock::now());
  // Epoch 0 is fully consumed now; replays will be announced, not deduped.
  run_phase(phase1, sched1, phase0.size());
  const auto t_b_done = Clock::now();
  agg[1] = fetch_aggregate(afe, spec, agg_conn, 1);
  rep.publish_wait_ms[1] = ms_between(t_b_done, Clock::now());
  rep.duration_s =
      std::chrono::duration<double>(Clock::now() - t_begin).count();
  rep.tcp_accepted[0] = agg[0].accepted;
  rep.tcp_accepted[1] = agg[1].accepted;
  // Close the aggregate connection before finish(): drain_and_stop grants
  // open clients a 10 s grace that would pad every component with it.
  agg_conn.shutdown_rw();
  cluster.finish();  // join servers; rethrows any server-side failure
  if (cfg.scrape_self) {
    // All lanes are quiescent after finish(): the scrape sees the final
    // stage histograms and counter totals for this component's run.
    auto body =
        obs::http_get("127.0.0.1", cluster.stats_port(), "/stats.json");
    require(body.has_value(), "loadgen: scrape of own cluster failed");
    rep.server_stats = *body;
  }

  // ---- plaintext reference: each epoch's untampered inputs, replays of
  // epoch-0 clients counted only once -------------------------------------
  baseline::PlaintextReference<F, Afe> ref(&afe);
  for (int e = 0; e < 2; ++e) {
    for (const auto& it : e == 0 ? phase0 : phase1) {
      const Enc& item = enc[it.enc_idx];
      if (!item.tampered) ref.add(item.cid, afe::sample_input(afe, item.cid));
    }
    rep.ref_accepted[e] = ref.accepted();
    rep.match[e] = agg[e].accepted == ref.accepted() &&
                   agg[e].sigma == ref.sigma() &&
                   agg[e].typed == afe::result_bytes(afe, ref.result());
    ref.next_epoch();
  }
  return rep;
}

struct MixDef {
  std::string name;
  std::vector<std::pair<std::string, double>> components;  // spec, weight
};

std::vector<MixDef> builtin_mixes() {
  return {
      {"telemetry",
       {{"bitvec_sum:len=32", 0.6}, {"countmin:w=64,d=3", 0.4}}},
      {"analytics",
       {{"linreg:dims=3,bits=10", 0.5},
        {"stats:bits=12", 0.3},
        {"popular:bits=16", 0.2}}},
  };
}

// Runs every component of one mix concurrently (they are one workload:
// independent clusters, one merged arrival timeline at the mix's offered
// rate split by weight) and reduces the reports into JSON keys.
bool run_mix(const MixDef& mix, const LoadConfig& cfg,
             benchutil::JsonWriter& json,
             std::vector<std::pair<std::string, std::string>>* scrapes) {
  std::printf("[loadgen] mix '%s': %zu components, %zu clients/epoch, "
              "%.0f arrivals/s\n",
              mix.name.c_str(), mix.components.size(), cfg.clients,
              cfg.rate_hz);
  std::vector<ComponentReport> reports(mix.components.size());
  std::vector<std::thread> drivers;
  for (size_t c = 0; c < mix.components.size(); ++c) {
    drivers.emplace_back([&, c] {
      const auto& [spec_text, weight] = mix.components[c];
      try {
        const auto spec = afe::parse_afe_spec(spec_text);
        const size_t uniques = std::max<size_t>(
            16, static_cast<size_t>(std::lround(cfg.clients * weight)));
        reports[c] = afe::with_afe<F>(
            spec, [&](const auto& afe_obj, const afe::AfeSpec& norm) {
              return run_component(afe_obj, norm, uniques,
                                   cfg.rate_hz * weight, cfg,
                                   cfg.seed * 1000 + c);
            });
      } catch (const std::exception& e) {
        reports[c].spec = spec_text;
        reports[c].error = e.what();
      }
    });
  }
  for (auto& t : drivers) t.join();

  // Reduce: mix-wide latency distributions and counts.
  std::vector<double> lat, rtt, lag;
  u64 accepted = 0, submissions = 0;
  u64 expect_tamper_rejects = 0, expect_replay_rejects = 0;
  double duration = 0, publish_wait = 0;
  bool ok = true;
  for (size_t c = 0; c < reports.size(); ++c) {
    auto& r = reports[c];
    const std::string p = mix.name + ".c" + std::to_string(c);
    json.kv(p + ".spec", r.spec);
    if (!r.error.empty()) {
      std::fprintf(stderr, "[loadgen] %s (%s) FAILED: %s\n", p.c_str(),
                   r.spec.c_str(), r.error.c_str());
      json.kv(p + ".error", r.error);
      ok = false;
      continue;
    }
    for (const auto& s : r.samples) {
      lat.push_back(s.lat_ms);
      rtt.push_back(s.rtt_ms);
      lag.push_back(s.lag_ms);
    }
    accepted += r.tcp_accepted[0] + r.tcp_accepted[1];
    submissions += r.samples.size();
    expect_tamper_rejects += r.tampered;
    expect_replay_rejects += r.replays;
    duration = std::max(duration, r.duration_s);
    publish_wait = std::max(
        publish_wait, std::max(r.publish_wait_ms[0], r.publish_wait_ms[1]));
    json.kv(p + ".accepted_e0",
            static_cast<unsigned long long>(r.tcp_accepted[0]));
    json.kv(p + ".accepted_e1",
            static_cast<unsigned long long>(r.tcp_accepted[1]));
    json.kv(p + ".tampered", static_cast<unsigned long long>(r.tampered));
    json.kv(p + ".replays", static_cast<unsigned long long>(r.replays));
    json.raw(p + ".oracle_match",
             r.match[0] && r.match[1] ? "true" : "false");
    if (!r.server_stats.empty()) {
      json.raw(p + ".server_stats", r.server_stats);
      if (scrapes) scrapes->emplace_back(p, r.server_stats);
    }
    const bool counts_ok =
        r.tcp_accepted[0] == r.uniques - r.tampered &&
        r.tcp_accepted[1] == r.fresh;
    if (!r.match[0] || !r.match[1] || !counts_ok) {
      std::fprintf(stderr,
                   "[loadgen] %s (%s) MISMATCH: tcp=(%llu,%llu) "
                   "reference=(%llu,%llu) expected=(%zu,%zu)\n",
                   p.c_str(), r.spec.c_str(),
                   static_cast<unsigned long long>(r.tcp_accepted[0]),
                   static_cast<unsigned long long>(r.tcp_accepted[1]),
                   static_cast<unsigned long long>(r.ref_accepted[0]),
                   static_cast<unsigned long long>(r.ref_accepted[1]),
                   r.uniques - r.tampered, r.fresh);
      ok = false;
    }
  }
  const u64 rejected = submissions - accepted;
  json.kv(mix.name + ".rate_hz", cfg.rate_hz);
  json.kv(mix.name + ".submissions",
          static_cast<unsigned long long>(submissions));
  json.kv(mix.name + ".accepted", static_cast<unsigned long long>(accepted));
  json.kv(mix.name + ".rejected", static_cast<unsigned long long>(rejected));
  json.kv(mix.name + ".rejected_tamper_expected",
          static_cast<unsigned long long>(expect_tamper_rejects));
  json.kv(mix.name + ".rejected_replay_expected",
          static_cast<unsigned long long>(expect_replay_rejects));
  json.kv(mix.name + ".duration_s", duration);
  json.kv(mix.name + ".achieved_hz",
          duration > 0 ? static_cast<double>(submissions) / duration : 0.0);
  json.kv(mix.name + ".latency_p50_ms", pct(lat, 0.50));
  json.kv(mix.name + ".latency_p95_ms", pct(lat, 0.95));
  json.kv(mix.name + ".latency_p99_ms", pct(lat, 0.99));
  json.kv(mix.name + ".ack_rtt_p99_ms", pct(rtt, 0.99));
  json.kv(mix.name + ".sched_lag_p99_ms", pct(lag, 0.99));
  json.kv(mix.name + ".publish_wait_ms", publish_wait);
  std::printf("[loadgen] mix '%s': %llu/%llu accepted, p50=%.2fms "
              "p99=%.2fms, %s\n",
              mix.name.c_str(), static_cast<unsigned long long>(accepted),
              static_cast<unsigned long long>(submissions), pct(lat, 0.50),
              pct(lat, 0.99), ok ? "oracle MATCHES" : "MISMATCH");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    server::Flags flags(argc, argv);
    const bool smoke = flags.has("smoke");
    LoadConfig cfg;
    cfg.clients = flags.num("clients", smoke ? 240 : 10'000);
    cfg.rate_hz = flags.real("rate", smoke ? 800.0 : 2'500.0);
    cfg.tamper_frac = flags.real("tamper-frac", 0.05);
    cfg.replay_frac = flags.real("replay-frac", 0.10);
    cfg.workers = flags.num("workers", 4);
    cfg.shards = flags.num("shards", 2);
    cfg.seed = flags.num("seed", 42);
    cfg.master_seed = flags.num("master-seed", 1);
    const std::string scrape = flags.str("scrape", "");
    cfg.scrape_self = scrape == "self";
    const std::string scrape_out = flags.str("scrape-out", "");
    require(cfg.rate_hz > 0 && cfg.workers >= 1, "bad --rate/--workers");
    require(cfg.tamper_frac >= 0 && cfg.tamper_frac <= 0.5 &&
                cfg.replay_frac >= 0 && cfg.replay_frac <= 0.5,
            "--tamper-frac/--replay-frac must be in [0, 0.5]");
    const std::string out = flags.str("out", "BENCH_loadgen.json");
    const std::string which = flags.str("mix", "all");

    benchutil::JsonWriter json;
    json.kv("bench", std::string("loadgen"));
    json.raw("smoke", smoke ? "true" : "false");
    json.kv("clients_per_mix_epoch",
            static_cast<unsigned long long>(cfg.clients));
    json.kv("tamper_frac", cfg.tamper_frac);
    json.kv("replay_frac", cfg.replay_frac);
    json.kv("shards", static_cast<unsigned long long>(cfg.shards));
    json.kv("workers", static_cast<unsigned long long>(cfg.workers));
    json.kv("seed", static_cast<unsigned long long>(cfg.seed));

    bool all_ok = true;
    size_t ran = 0;
    std::vector<std::pair<std::string, std::string>> scrapes;
    for (const auto& mix : builtin_mixes()) {
      if (which != "all" && which != mix.name) continue;
      all_ok = run_mix(mix, cfg, json, &scrapes) && all_ok;
      ++ran;
    }
    require(ran > 0, "--mix must be telemetry, analytics, or all");

    // External scrape: one /stats.json pull from a running prio_server
    // --stats-port (e.g. a cluster this loadgen is NOT driving in-process).
    if (!scrape.empty() && scrape != "self") {
      const size_t colon = scrape.rfind(':');
      require(colon != std::string::npos && colon + 1 < scrape.size(),
              "--scrape must be 'self' or HOST:PORT");
      const std::string host = scrape.substr(0, colon);
      const int port = std::stoi(scrape.substr(colon + 1));
      auto body = obs::http_get(host, static_cast<u16>(port), "/stats.json");
      require(body.has_value(), "loadgen: scrape of --scrape target failed");
      json.raw("server_stats", *body);
      scrapes.emplace_back("external", *body);
    }
    if (!scrape_out.empty() && !scrapes.empty()) {
      std::ofstream sf(scrape_out);
      sf << "{\n";
      for (size_t i = 0; i < scrapes.size(); ++i) {
        sf << "\"" << scrapes[i].first << "\": " << scrapes[i].second
           << (i + 1 < scrapes.size() ? "," : "") << "\n";
      }
      sf << "}\n";
      std::printf("[loadgen] wrote %s (%zu scrape%s)\n", scrape_out.c_str(),
                  scrapes.size(), scrapes.size() == 1 ? "" : "s");
    }
    json.raw("all_match", all_ok ? "true" : "false");

    std::ofstream f(out);
    f << json.finish();
    f.close();
    std::printf("[loadgen] wrote %s (%s)\n", out.c_str(),
                all_ok ? "all workloads match the oracle" : "MISMATCH");
    return all_ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "prio_loadgen: fatal: %s\n", e.what());
    return 1;
  }
}
