// The client <-> server frames and the plaintext server <-> server frames.
// A frame is one framed TCP message (net/tcp_transport.h): a type byte,
// then net/wire.h fields. The codecs below are the layout definition: most
// frame types are a struct listing its fields once, in wire order, and that
// list drives both encode() and decode<T>(); the rest have named codecs. A
// decoder accepts exactly one canonical frame (its type byte, every field
// in bounds, nothing after) and otherwise returns nullopt; none throws.
// Checks that need runtime state -- an announced id's shard, the lane,
// epoch and AFE spec, max_blob_bytes -- stay with the caller.
//
// These frames are plaintext because they carry no secrets: a submission
// blob is already sealed per (client, server, submission) by
// core/submission.h, the aggregate is public output (the paper's split:
// TLS protects metadata, the secret sharing is the privacy boundary), and
// the mesh frames carry ids, positions and counters, never share material.
// The SNIP rounds (server/node.h) and the catch-up bodies, which commit
// verdicts into a node's accumulator, are sealed.
//
// The aggregate frames carry the AFE identity (registry wire id + canonical
// spec, afe/registry.h): a client asking with another spec gets
// kAggregateReject naming the server's spec and is dropped, so it never
// decodes another encoding's field elements. The sync hello carries the
// spec too, so misconfigured servers fail at the first sync instead of
// publishing garbage. kAggregate's typed Result lets a client check the
// server's decode bit-for-bit. kGetAggregate blocks until the epoch is out.
//
// Every kClientSubmit gets exactly one kSubmitAck (ok = 0 for a malformed
// frame or a refused WAL append), in frame order, sent only after that
// submission's WAL append; the acks for the frames one read brought in may
// share one TCP write.
//
// Every shard checks shard_of() of each announced id against its own lane,
// so a misrouted or replayed blob never enters another shard's batch. A
// forged kLaneClose can only force a retried publish (the real close is the
// sealed publish/commit round), a forged position only a failed sync. After
// every mesh (re)establishment each node sends every other a kSyncHello,
// and the lowest-id node at the furthest position catches the rest up: by
// at most one committed batch and one epoch close, since every batch and
// publication needs all servers. The behind node re-runs the batch record
// (server/node.h) on its own blobs, so catch-up never moves share material.
#pragma once

#include <array>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "net/wire.h"
#include "util/common.h"

namespace prio::server {

inline constexpr u8 kClientSubmit = 0x11;
inline constexpr u8 kSubmitAck = 0x12;
inline constexpr u8 kGetAggregate = 0x13;
inline constexpr u8 kAggregate = 0x14;
inline constexpr u8 kAggregateReject = 0x15;
inline constexpr u8 kBatchAnnounce = 0x21;
inline constexpr u8 kLaneClose = 0x22;
inline constexpr u8 kSyncHello = 0x31;
inline constexpr u8 kCatchUpBatch = 0x32;
inline constexpr u8 kCatchUpEpoch = 0x33;

// Largest batch a decoder believes, in a kBatchAnnounce and in a batch
// record (server/node.h); far above any refresh window.
inline constexpr u32 kMaxBatchRecord = 1u << 20;

// Client id -> shard assignment, identical on every server (and in the
// sharded bench): a splitmix64 finalizer over the id, reduced mod the
// shard count. The full 64-bit mix means related ids (sequential client
// numbers) still spread evenly; the same id ALWAYS lands on the same
// shard, which is what keeps each client's replay floor confined to one
// shard's state.
inline size_t shard_of(u64 client_id, size_t shards) {
  if (shards <= 1) return 0;
  u64 z = client_id + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return static_cast<size_t>(z % shards);
}

// (client_id, seq) pairs on the wire: u32 count, count * (u64, u64).
using BatchIds = std::vector<std::pair<u64, u64>>;

// The two directions of a field list (node.h's batch record reuses them).
struct FieldWriter {
  net::Writer w;
  void operator()(const auto&... fields) { (put(fields), ...); }
  void put(u8 v) { w.u8_(v); }
  void put(u32 v) { w.u32_(v); }
  void put(u64 v) { w.u64_(v); }
  void put(const std::string& s) { w.str_(s); }
  void put(const std::vector<u8>& b) { w.bytes(b); }
  template <PrimeField F>
  void put(const std::vector<F>& v) { w.field_vector(std::span<const F>(v)); }
  void put(std::span<const std::pair<u64, u64>> ids) {
    w.u32_(static_cast<u32>(ids.size()));
    for (const auto& [cid, seq] : ids) (*this)(cid, seq);
  }
};

struct FieldReader {
  net::Reader r;
  void operator()(auto&... fields) { (get(fields), ...); }
  void get(u8& v) { v = r.u8_(); }
  void get(u32& v) { v = r.u32_(); }
  void get(u64& v) { v = r.u64_(); }
  void get(std::string& s) { s = r.str_(); }
  void get(std::vector<u8>& b) { b = r.bytes(); }
  template <PrimeField F>
  void get(std::vector<F>& v) { v = r.field_vector<F>(); }
  void get(BatchIds& ids) {  // 1..kMaxBatchRecord ids
    const u32 count = r.u32_();
    if (count == 0 || count > kMaxBatchRecord ||
        r.remaining() < u64{count} * 16) {
      return r.fail();
    }
    ids.resize(count);
    for (auto& [cid, seq] : ids) (*this)(cid, seq);
  }
};

template <typename Frame>
std::vector<u8> encode(const Frame& frame) {
  FieldWriter out;
  out.w.u8_(Frame::kType);
  Frame::fields(frame, out);
  return out.w.take();
}

template <typename Frame>
std::optional<Frame> decode(std::span<const u8> bytes) {
  FieldReader in{net::Reader(bytes)};
  if (in.r.u8_() != Frame::kType) return std::nullopt;
  Frame frame;
  Frame::fields(frame, in);
  if (!in.r.ok() || !in.r.at_end()) return std::nullopt;
  return frame;
}

// The type byte a receiver dispatches on; 0 (no frame type) if empty.
inline u8 frame_type(std::span<const u8> bytes) {
  return bytes.empty() ? 0 : bytes[0];
}

// client -> server. The blob begins with its u64 seq (core/submission.h).
struct ClientSubmit {
  static constexpr u8 kType = kClientSubmit;
  u64 client_id = 0;
  std::vector<u8> blob;
  static void fields(auto& f, auto& io) { io(f.client_id, f.blob); }
};

// kSubmitAck: u8 type, u8 ok (server -> client), by value, so the intake
// path appends an ack to its write buffer without allocating.
inline std::array<u8, 2> encode_submit_ack(bool ok) {
  return {kSubmitAck, static_cast<u8>(ok)};
}

// The ack's ok bit; nullopt unless ok is 0 or 1.
inline std::optional<bool> decode_submit_ack(std::span<const u8> bytes) {
  if (bytes.size() != 2 || bytes[0] != kSubmitAck || bytes[1] > 1) return {};
  return bytes[1] == 1;
}

// client -> server 0.
struct GetAggregate {
  static constexpr u8 kType = kGetAggregate;
  u32 epoch = 0;
  u8 afe_id = 0;
  std::string afe_spec;
  static void fields(auto& f, auto& io) { io(f.epoch, f.afe_id, f.afe_spec); }
};

// The reply, server 0 -> client: the published aggregate ...
template <PrimeField F>
struct Aggregate {
  static constexpr u8 kType = kAggregate;
  u32 epoch = 0;
  u64 accepted = 0;
  u8 afe_id = 0;
  std::string afe_spec;
  std::vector<F> sigma;
  std::vector<u8> typed_result;  // registry.h write_result
  static void fields(auto& f, auto& io) {
    io(f.epoch, f.accepted, f.afe_id, f.afe_spec, f.sigma, f.typed_result);
  }
};

// ... or the refusal naming the server's AFE.
struct AggregateReject {
  static constexpr u8 kType = kAggregateReject;
  u8 afe_id = 0;
  std::string afe_spec;
  static void fields(auto& f, auto& io) { io(f.afe_id, f.afe_spec); }
};

// Neither is set for a malformed reply.
template <PrimeField F>
struct AggregateReply {
  std::optional<Aggregate<F>> published;  // sigma holds exactly k_prime
  std::optional<AggregateReject> rejected;
};

template <PrimeField F>
AggregateReply<F> decode_aggregate_reply(std::span<const u8> bytes,
                                         size_t k_prime) {
  auto published = decode<Aggregate<F>>(bytes);
  if (published && published->sigma.size() != k_prime) published.reset();
  return {std::move(published), decode<AggregateReject>(bytes)};
}

// server 0 -> every node: a lane's next batch, in batch order.
struct BatchAnnounce {
  static constexpr u8 kType = kBatchAnnounce;
  u32 lane = 0;
  BatchIds ids;
  static void fields(auto& f, auto& io) { io(f.lane, f.ids); }
};

// server 0 -> every node: the lane's epoch is closing.
struct LaneClose {
  static constexpr u8 kType = kLaneClose;
  u32 lane = 0;
  u32 epoch = 0;
  static void fields(auto& f, auto& io) { io(f.lane, f.epoch); }
};

// every node -> every node, per lane: its committed position.
struct SyncHello {
  static constexpr u8 kType = kSyncHello;
  u32 lane = 0;
  u32 epoch = 0;
  u64 processed = 0;
  u64 accepted = 0;
  u64 generation = 0;
  std::string afe_spec;
  static void fields(auto& f, auto& io) {
    io(f.lane, f.epoch, f.processed, f.accepted, f.generation, f.afe_spec);
  }
};

// frontier -> behind node: `type` is kCatchUpBatch or kCatchUpEpoch, then
// the sealed body to the end of the frame. The body is opaque here: the
// AEAD open rejects any change to it.
inline std::vector<u8> encode_catch_up(u8 type, std::span<const u8> sealed) {
  std::vector<u8> out;
  out.reserve(1 + sealed.size());
  out.push_back(type);
  out.insert(out.end(), sealed.begin(), sealed.end());
  return out;
}

// The sealed body of a `type` frame, a view into `bytes`.
inline std::optional<std::span<const u8>> decode_catch_up(
    u8 type, std::span<const u8> bytes) {
  if (frame_type(bytes) != type) return std::nullopt;
  return bytes.subspan(1);
}

// What kCatchUpEpoch seals: the u32 epoch being closed.
inline std::vector<u8> encode_catch_up_epoch_body(u32 epoch) {
  FieldWriter out;
  out.put(epoch);
  return out.w.take();
}

inline std::optional<u32> decode_catch_up_epoch_body(
    std::span<const u8> body) {
  if (body.size() != 4) return std::nullopt;
  return net::Reader(body).u32_();
}

}  // namespace prio::server
