// Runtime AFE catalogue: one spec string names any affine-aggregatable
// encoding in src/afe/, so the server, the client, the plaintext reference,
// and the load generator all construct the same AFE from the same text.
//
// Grammar (the --afe flag of every binary, server/cli.h):
//
//   spec   := name [ ":" param ("," param)* ]
//   param  := key "=" value
//   name   := [a-z0-9_]+
//   key    := [a-z0-9_]+
//   value  := unsigned decimal, or a ";"-separated list of signed decimals
//             (only `r2:coeffs` is list-valued)
//
// Examples: "bitvec_sum:len=32", "countmin:w=256,d=4",
// "linreg:dims=3,bits=14", "r2:coeffs=0;3;-2", "gf2:bits=48".
//
// parse_afe_spec rejects bad grammar loudly; with_afe validates parameter
// names and ranges (unknown AFE names, unknown keys, out-of-range or
// resource-exhausting values all throw std::invalid_argument) and hands
// the caller BOTH the constructed AFE and the normalized spec -- defaults
// filled in, keys sorted -- whose canonical() string is what the wire
// protocol compares, so "countmin" and "countmin:d=4,w=256" are the same
// deployment and a server/client disagreement is a string mismatch, never
// a silent mis-decode.
//
// Per AFE the registry also provides, as overload sets the templated
// runtime resolves at compile time:
//
//   afe_wire_id(afe)                 -> u8: stable id in publish frames
//   write_result(afe, result, w)     -> typed Result serialization
//   result_bytes(afe, result)        -> canonical bytes (bit-exact compare)
//   sample_input(afe, cid)           -> deterministic workload input, so a
//                                       verifier that knows only the
//                                       client-id range can reproduce the
//                                       expected aggregate anywhere
//
// Doubles are serialized as IEEE-754 bit patterns, so two decodes of the
// same aggregate compare bit-identical across processes built from this
// tree, which is exactly the cross-check the e2e tests assert.
#pragma once

#include <bit>
#include <map>
#include <set>
#include <string>

#include "afe/bitvec_sum.h"
#include "afe/countmin.h"
#include "afe/freq.h"
#include "afe/gf2.h"
#include "afe/linreg.h"
#include "afe/popular.h"
#include "afe/product.h"
#include "afe/r2.h"
#include "afe/stats.h"
#include "afe/sum.h"
#include "net/wire.h"

namespace prio::afe {

// ---------------------------------------------------------------------------
// Spec strings.
// ---------------------------------------------------------------------------

struct AfeSpec {
  std::string name;
  std::map<std::string, std::string> params;  // sorted by key

  // The normalized text the wire protocol compares: name, then every
  // param as key=value in key order.
  std::string canonical() const {
    std::string out = name;
    char sep = ':';
    for (const auto& [k, v] : params) {
      out += sep;
      out += k + "=" + v;
      sep = ',';
    }
    return out;
  }
};

namespace detail {

inline bool spec_word(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_')) {
      return false;
    }
  }
  return true;
}

inline u64 spec_u64(const std::string& key, const std::string& text) {
  if (text.empty() || text.size() > 19) {
    throw std::invalid_argument("AFE spec: bad value for '" + key + "'");
  }
  u64 v = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      throw std::invalid_argument("AFE spec: '" + key +
                                  "' must be an unsigned integer");
    }
    v = v * 10 + static_cast<u64>(c - '0');
  }
  return v;
}

inline i64 spec_i64(const std::string& key, const std::string& text) {
  const bool neg = !text.empty() && text[0] == '-';
  u64 mag = spec_u64(key, neg ? text.substr(1) : text);
  if (mag > (u64{1} << 62)) {
    throw std::invalid_argument("AFE spec: '" + key + "' out of range");
  }
  return neg ? -static_cast<i64>(mag) : static_cast<i64>(mag);
}

}  // namespace detail

// Parses the grammar above; throws std::invalid_argument on malformed
// text. Parameter names/values are NOT validated here -- with_afe owns
// that, per AFE.
inline AfeSpec parse_afe_spec(const std::string& text) {
  AfeSpec spec;
  const size_t colon = text.find(':');
  spec.name = text.substr(0, colon);
  if (!detail::spec_word(spec.name)) {
    throw std::invalid_argument("AFE spec: bad name in '" + text + "'");
  }
  if (colon == std::string::npos) return spec;
  std::string rest = text.substr(colon + 1);
  size_t pos = 0;
  while (pos <= rest.size()) {
    size_t comma = rest.find(',', pos);
    if (comma == std::string::npos) comma = rest.size();
    const std::string pair = rest.substr(pos, comma - pos);
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("AFE spec: expected key=value, got '" +
                                  pair + "'");
    }
    const std::string key = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    if (!detail::spec_word(key) || value.empty()) {
      throw std::invalid_argument("AFE spec: bad parameter '" + pair + "'");
    }
    if (!spec.params.emplace(key, value).second) {
      throw std::invalid_argument("AFE spec: duplicate key '" + key + "'");
    }
    pos = comma + 1;
  }
  return spec;
}

namespace detail {

// Typed parameter access over an AfeSpec, with range validation and
// write-back of effective values: after construction the spec carries
// every parameter explicitly, so its canonical() string is normalized.
// done() rejects unknown keys loudly.
class ParamReader {
 public:
  explicit ParamReader(AfeSpec* spec) : spec_(spec) {}

  u64 num(const std::string& key, u64 fallback, u64 lo, u64 hi) {
    u64 v = fallback;
    auto it = spec_->params.find(key);
    if (it != spec_->params.end()) v = spec_u64(key, it->second);
    if (v < lo || v > hi) {
      throw std::invalid_argument("AFE spec: '" + spec_->name + ":" + key +
                                  "' out of range [" + std::to_string(lo) +
                                  ", " + std::to_string(hi) + "]");
    }
    seen_.insert(key);
    spec_->params[key] = std::to_string(v);
    return v;
  }

  std::vector<i64> ints(const std::string& key, const std::string& fallback,
                        size_t max_count) {
    std::string text = fallback;
    auto it = spec_->params.find(key);
    if (it != spec_->params.end()) text = it->second;
    std::vector<i64> out;
    std::string canon;
    size_t pos = 0;
    while (pos <= text.size()) {
      size_t semi = text.find(';', pos);
      if (semi == std::string::npos) semi = text.size();
      out.push_back(spec_i64(key, text.substr(pos, semi - pos)));
      if (!canon.empty()) canon += ';';
      canon += std::to_string(out.back());
      pos = semi + 1;
    }
    if (out.size() > max_count) {
      throw std::invalid_argument("AFE spec: '" + key + "' list too long");
    }
    seen_.insert(key);
    spec_->params[key] = canon;
    return out;
  }

  void done() const {
    for (const auto& [k, v] : spec_->params) {
      if (!seen_.count(k)) {
        throw std::invalid_argument("AFE spec: unknown parameter '" + k +
                                    "' for '" + spec_->name + "'");
      }
    }
  }

 private:
  AfeSpec* spec_;
  std::set<std::string> seen_;
};

}  // namespace detail

// ---------------------------------------------------------------------------
// Wire ids: stable across releases; the publish/aggregate-query frames
// carry the id alongside the canonical spec string.
// ---------------------------------------------------------------------------

inline constexpr u8 kIdBitVecSum = 1;
inline constexpr u8 kIdIntegerSum = 2;
inline constexpr u8 kIdFreq = 3;
inline constexpr u8 kIdCountMin = 4;
inline constexpr u8 kIdLinReg = 5;
inline constexpr u8 kIdR2 = 6;
inline constexpr u8 kIdVariance = 7;
inline constexpr u8 kIdPopular = 8;
inline constexpr u8 kIdProduct = 9;
inline constexpr u8 kIdGf2 = 10;

template <PrimeField F>
constexpr u8 afe_wire_id(const BitVectorSum<F>&) { return kIdBitVecSum; }
template <PrimeField F>
constexpr u8 afe_wire_id(const IntegerSum<F>&) { return kIdIntegerSum; }
template <PrimeField F>
constexpr u8 afe_wire_id(const FrequencyCount<F>&) { return kIdFreq; }
template <PrimeField F>
constexpr u8 afe_wire_id(const CountMinSketch<F>&) { return kIdCountMin; }
template <PrimeField F>
constexpr u8 afe_wire_id(const LinearRegression<F>&) { return kIdLinReg; }
template <PrimeField F>
constexpr u8 afe_wire_id(const RSquared<F>&) { return kIdR2; }
template <PrimeField F>
constexpr u8 afe_wire_id(const Variance<F>&) { return kIdVariance; }
template <PrimeField F>
constexpr u8 afe_wire_id(const MostPopularString<F>&) { return kIdPopular; }
template <PrimeField F>
constexpr u8 afe_wire_id(const ProductGeoMean<F>&) { return kIdProduct; }
template <PrimeField F>
constexpr u8 afe_wire_id(const Gf2Xor<F>&) { return kIdGf2; }

// ---------------------------------------------------------------------------
// Typed Result serialization. Formats are per-AFE and length-delimited by
// the enclosing frame. Nothing parses them back: every reader compares a
// published aggregate with its reference through result_bytes.
// ---------------------------------------------------------------------------

namespace detail {

inline void write_f64(net::Writer& w, double v) {
  w.u64_(std::bit_cast<u64>(v));
}

inline void write_u64_vec(net::Writer& w, const std::vector<u64>& v) {
  w.u32_(static_cast<u32>(v.size()));
  for (u64 x : v) w.u64_(x);
}

}  // namespace detail

template <PrimeField F>
void write_result(const BitVectorSum<F>&, const std::vector<u64>& res,
                  net::Writer& w) {
  detail::write_u64_vec(w, res);
}

template <PrimeField F>
void write_result(const IntegerSum<F>&, u128 res, net::Writer& w) {
  w.u64_(static_cast<u64>(res));
  w.u64_(static_cast<u64>(res >> 64));
}

template <PrimeField F>
void write_result(const FrequencyCount<F>&, const std::vector<u64>& res,
                  net::Writer& w) {
  detail::write_u64_vec(w, res);
}

template <PrimeField F>
void write_result(const CountMinSketch<F>&,
                  const typename CountMinSketch<F>::Result& res,
                  net::Writer& w) {
  w.u32_(static_cast<u32>(res.rows));
  w.u32_(static_cast<u32>(res.cols));
  detail::write_u64_vec(w, res.counters);
  detail::write_u64_vec(w, res.hash_a);
  detail::write_u64_vec(w, res.hash_b);
}

template <PrimeField F>
void write_result(const LinearRegression<F>&, const LinRegModel& res,
                  net::Writer& w) {
  w.u8_(res.solvable ? 1 : 0);
  w.u32_(static_cast<u32>(res.coeffs.size()));
  for (double c : res.coeffs) detail::write_f64(w, c);
}

template <PrimeField F>
void write_result(const RSquared<F>&, double res, net::Writer& w) {
  detail::write_f64(w, res);
}

template <PrimeField F>
void write_result(const Variance<F>&, const MomentStats& res, net::Writer& w) {
  detail::write_f64(w, res.mean);
  detail::write_f64(w, res.variance);
  detail::write_f64(w, res.stddev);
}

template <PrimeField F>
void write_result(const MostPopularString<F>&, u64 res, net::Writer& w) {
  w.u64_(res);
}

template <PrimeField F>
void write_result(const ProductGeoMean<F>&,
                  const typename ProductGeoMean<F>::Result& res,
                  net::Writer& w) {
  detail::write_f64(w, res.product);
  detail::write_f64(w, res.geometric_mean);
}

template <PrimeField F>
void write_result(const Gf2Xor<F>&, u64 res, net::Writer& w) {
  w.u64_(res);
}

// Canonical serialized form; bit-exact equality of two Results is equality
// of these bytes (doubles compare as IEEE bit patterns).
template <typename Afe>
std::vector<u8> result_bytes(const Afe& afe, const typename Afe::Result& res) {
  net::Writer w;
  write_result(afe, res, w);
  auto span = w.data();
  return std::vector<u8>(span.begin(), span.end());
}

// ---------------------------------------------------------------------------
// Deterministic workload inputs: the same (spec, client id) yields the
// same private input in the client, the load generator, and the plaintext
// reference, which is what makes the published aggregate checkable.
// ---------------------------------------------------------------------------

// splitmix64 finalizer (same mixer family as server/protocol.h shard_of).
inline u64 sample_mix(u64 x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

template <PrimeField F>
std::vector<u8> sample_input(const BitVectorSum<F>& a, u64 cid) {
  std::vector<u8> bits(a.length());
  for (size_t i = 0; i < bits.size(); ++i) {
    bits[i] = static_cast<u8>(sample_mix(cid * 0x10001 + i) & 1);
  }
  return bits;
}

template <PrimeField F>
u64 sample_input(const IntegerSum<F>& a, u64 cid) {
  return sample_mix(cid) & ((u64{1} << a.bits()) - 1);
}

template <PrimeField F>
u64 sample_input(const FrequencyCount<F>& a, u64 cid) {
  return sample_mix(cid) % a.domain_size();
}

// Skewed (80/20-style) item distribution, so count-min has heavy hitters
// to find.
template <PrimeField F>
u64 sample_input(const CountMinSketch<F>&, u64 cid) {
  const u64 r = sample_mix(cid);
  return (r & 3) ? (r >> 2) % 8 : (r >> 2) % 100'000;
}

template <PrimeField F>
typename LinearRegression<F>::Input sample_input(const LinearRegression<F>& a,
                                                 u64 cid) {
  typename LinearRegression<F>::Input in;
  in.x.resize(a.dims());
  // The catalogue only constructs the uniform-width shape, so the per-value
  // bit budget is recoverable from the totals; the planted noisy-linear
  // relation is clamped back into the same budget so encode's range proofs
  // always pass for honest samples.
  const size_t bits = a.total_bits() / (a.dims() + 1);
  const u64 mask = (u64{1} << bits) - 1;
  u64 acc = 0;
  for (size_t i = 0; i < a.dims(); ++i) {
    in.x[i] = sample_mix(cid * 131 + i) & mask & 0xff;
    acc += in.x[i] * (i + 1);
  }
  in.y = (acc + (sample_mix(cid ^ 0xdead) & 0x1f)) & mask;
  return in;
}

template <PrimeField F>
typename RSquared<F>::Input sample_input(const RSquared<F>& a, u64 cid) {
  typename RSquared<F>::Input in;
  in.x.resize(a.dims());
  for (size_t i = 0; i < a.dims(); ++i) {
    in.x[i] = sample_mix(cid * 257 + i) & 0xff;
  }
  in.y = sample_mix(cid ^ 0xbeef) & 0x3ff;
  return in;
}

template <PrimeField F>
u64 sample_input(const Variance<F>& a, u64 cid) {
  return sample_mix(cid) & ((u64{1} << a.bits()) - 1);
}

// 75% of clients hold the planted majority string; decode must recover it.
template <PrimeField F>
u64 sample_input(const MostPopularString<F>& a, u64 cid) {
  const u64 mask =
      a.bits() >= 64 ? ~u64{0} : (u64{1} << a.bits()) - 1;
  const u64 planted = 0x5a5a5a5a5a5a5a5aull & mask;
  return (sample_mix(cid) & 3) ? planted : (sample_mix(cid) >> 2) & mask;
}

template <PrimeField F>
double sample_input(const ProductGeoMean<F>&, u64 cid) {
  // Positive values in [1, 17): log2 in [0, ~4.1), well inside any
  // reasonable log_bits/frac_bits budget.
  return 1.0 + static_cast<double>(sample_mix(cid) % 1024) / 64.0;
}

template <PrimeField F>
u64 sample_input(const Gf2Xor<F>& a, u64 cid) {
  const u64 mask =
      a.bits() >= 64 ? ~u64{0} : (u64{1} << a.bits()) - 1;
  return sample_mix(cid ^ 0xf00d) & mask;
}

// ---------------------------------------------------------------------------
// Dispatch: constructs the AFE a spec names and calls fn(afe, normalized),
// where `normalized` is the spec with defaults filled in and keys sorted
// (its canonical() string is the wire identity). Every fn instantiation
// must share one return type; the binaries return an exit code, the tests
// capture through the closure.
// ---------------------------------------------------------------------------

template <PrimeField F, typename Fn>
auto with_afe(const AfeSpec& spec_in, Fn&& fn) {
  AfeSpec spec = spec_in;
  detail::ParamReader p(&spec);
  if (spec.name == "bitvec_sum") {
    BitVectorSum<F> a(p.num("len", 16, 1, 1u << 16));
    p.done();
    return fn(a, spec);
  }
  if (spec.name == "sum") {
    IntegerSum<F> a(p.num("bits", 16, 1, 62));
    p.done();
    return fn(a, spec);
  }
  if (spec.name == "freq") {
    FrequencyCount<F> a(p.num("domain", 16, 1, 1u << 16));
    p.done();
    return fn(a, spec);
  }
  if (spec.name == "countmin") {
    const u64 d = p.num("d", 4, 1, 32);
    const u64 w = p.num("w", 256, 1, 1u << 14);
    const u64 seed = p.num("seed", 0x70726f, 0, ~u64{0});
    if (d * w > (u64{1} << 16)) {
      throw std::invalid_argument("AFE spec: countmin sketch too large");
    }
    CountMinSketch<F> a(static_cast<size_t>(d), static_cast<size_t>(w), seed);
    p.done();
    return fn(a, spec);
  }
  if (spec.name == "linreg") {
    const u64 dims = p.num("dims", 2, 1, 64);
    const u64 bits = p.num("bits", 10, 1, 20);
    LinearRegression<F> a(static_cast<size_t>(dims),
                          static_cast<size_t>(bits));
    p.done();
    return fn(a, spec);
  }
  if (spec.name == "r2") {
    RSquared<F> a(p.ints("coeffs", "0;1", 65));
    p.done();
    return fn(a, spec);
  }
  if (spec.name == "stats") {
    Variance<F> a(p.num("bits", 12, 1, 30));
    p.done();
    return fn(a, spec);
  }
  if (spec.name == "popular") {
    MostPopularString<F> a(p.num("bits", 16, 1, 63));
    p.done();
    return fn(a, spec);
  }
  if (spec.name == "product") {
    const u64 bits = p.num("bits", 16, 2, 62);
    const u64 frac = p.num("frac", 6, 0, bits - 1);
    ProductGeoMean<F> a(static_cast<size_t>(bits), static_cast<size_t>(frac));
    p.done();
    return fn(a, spec);
  }
  if (spec.name == "gf2") {
    Gf2Xor<F> a(p.num("bits", 32, 1, 64));
    p.done();
    return fn(a, spec);
  }
  throw std::invalid_argument("unknown AFE '" + spec.name +
                              "' (catalogue: bitvec_sum sum freq countmin "
                              "linreg r2 stats popular product gf2)");
}

// The full catalogue, one representative spec per AFE (used by tests and
// the docs; every entry round-trips through parse + with_afe).
inline std::vector<std::string> catalogue_specs() {
  return {"bitvec_sum:len=12", "sum:bits=10",
          "freq:domain=8",     "countmin:d=3,w=32",
          "linreg:dims=2,bits=10", "r2:coeffs=1;2;-1",
          "stats:bits=10",     "popular:bits=16",
          "product:bits=16,frac=6", "gf2:bits=48"};
}

}  // namespace prio::afe
