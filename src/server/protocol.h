// Client <-> server frame protocol for the multi-process runtime.
//
// Clients talk to each server over a framed TCP connection (one frame =
// [u32 len] || body, net/tcp_transport.h). Frame bodies use net/wire.h
// encodings. The frames themselves are plaintext: a submission blob is
// already sealed per (client, server, submission) by core/submission.h, and
// the aggregate is public output, so the framing carries no secrets --
// exactly the paper's split, where TLS protects transport metadata but the
// cryptographic privacy boundary is the secret sharing itself.
//
//   kClientSubmit:  u8 type, u64 client_id, bytes blob      (client -> server)
//   kSubmitAck:     u8 type, u8 ok                          (server -> client)
//   kGetAggregate:  u8 type, u32 epoch, u8 afe_id,
//                   str afe_spec                            (client -> server 0)
//   kAggregate:     u8 type, u32 epoch, u64 accepted,
//                   u8 afe_id, str afe_spec,
//                   field_vector sigma,
//                   bytes typed_result                      (server 0 -> client)
//   kAggregateReject: u8 type, u8 afe_id, str afe_spec      (server 0 -> client)
//
// The aggregate frames carry the deployment's AFE identity: the registry
// wire id (afe/registry.h) plus the canonical spec string (defaults filled
// in, keys sorted). A client asking with a different spec gets
// kAggregateReject naming the server's spec and the connection is dropped
// -- a misconfigured client can never silently decode another encoding's
// field elements. The reply also carries the server-side typed Result
// (registry.h write_result), so a client both decodes sigma itself and
// checks the server's decode bit-for-bit.
//
// kGetAggregate blocks server-side until the epoch has been published, so
// a client can submit and then wait for the result on one connection.
//
// Server <-> server frames (batch announcements and the SNIP rounds) are
// sealed with net::SecureChannel; see server/node.h. Two mesh frames are
// plaintext -- the leader's batch announcement and the lane-close marker:
//
//   kBatchAnnounce: u8 type, u32 lane, u32 count,
//                   count * (u64 client_id, u64 seq)
//   kLaneClose:     u8 type, u32 lane, u32 epoch    (server 0 -> every node)
//
// The announcement names which buffered submissions form the next batch
// and in what order; it carries only submission identifiers, never share
// material. Every receiving shard checks shard_of(client_id) for every
// announced id against its own lane: a blob replayed (or misrouted) to the
// wrong shard can never be smuggled into another shard's batch, because
// the announcement itself fails validation there. kLaneClose tells a
// lane's followers that the router is closing the epoch on that lane (no
// more batches this epoch); it carries no state -- the actual epoch close
// is still the sealed two-phase publish/commit round (server/node.h), so
// forging it can only force a retried publish, which fails loudly.
//
// The mesh carries exactly one transport lane per shard: protocol lane L's
// announcements, close markers, sealed round frames and rejoin frames all
// travel on transport lane L, in that lane's per-link FIFO order.
//
// Rejoin / crash-recovery control frames. After the mesh is
// (re)established -- at clean startup, and again whenever a peer failure
// forced a reestablish -- every node exchanges its committed position and
// the mesh agrees on a fresh generation number for the sealed-channel
// keys; any node that is behind (it crashed, or aborted, after its peers
// committed) is brought level by the lowest-id up-to-date node before the
// protocol resumes:
//
//   kSyncHello:     u8 type, u32 lane, u32 epoch, u64 processed,
//                   u64 accepted, u64 generation,
//                   str afe_spec                   (every node -> every node)
//   kCatchUpBatch:  u8 type, sealed{u32 count,
//                   count * (u64 client_id, u64 seq),
//                   bitmap verdicts}                   (frontier -> behind node)
//   kCatchUpEpoch:  u8 type, sealed{u32 epoch}         (frontier -> behind node)
//
// kSyncHello is plaintext (same rationale as kBatchAnnounce: positions and
// counters, never share material; a forged position can only desynchronize
// the sync round, which fails loudly). It also carries the node's
// canonical AFE spec string: two servers configured with different
// encodings would otherwise run circuits of different shapes over the
// same blobs and publish garbage, so the mismatch is rejected at the
// first sync instead. The catch-up frames, by contrast,
// commit verdicts directly into a node's accumulator and replay floors, so
// their bodies are sealed under the just-negotiated generation's control
// keys (ServerNode::seal_control) -- unforgeable without the mesh secret.
//
// A node can trail the frontier by at most one committed batch and one
// epoch close (every batch and every publication needs frames from ALL
// servers, so the mesh can never run ahead of a dead peer further than
// the round it died in); the behind node re-applies the batch to its own
// sealed blobs (ServerNode::apply_batch_record), so catch-up never moves
// share material across the wire.
#pragma once

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

}  // namespace prio::server
