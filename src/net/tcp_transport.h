// Length-prefixed framed TCP transport.
//
// The real-network counterpart of net/simnet.h: frames are
// [u32 length (LE)] || payload, the same little-endian convention as
// net/wire.h, so a frame body parses directly with net::Reader. The layer
// splits in two:
//
//   - FrameDecoder: a pure incremental decoder. Bytes are fed in whatever
//     chunks the socket produces; complete frames come out. A length prefix
//     above the configured maximum marks the stream corrupt (a malformed or
//     hostile peer), and the decoder refuses all further progress -- the
//     connection is torn down rather than resynchronized, since a
//     byte-stream with a bad length has no trustworthy frame boundary.
//   - Socket / TcpListener / FramedConn / TcpMeshTransport: POSIX sockets,
//     poll-based timeouts, and the full server mesh (net/transport.h's
//     Transport over real connections).
//
// Confidentiality and integrity are layered above: server-to-server frame
// bodies are sealed with net::SecureChannel (counter nonces ride on TCP's
// in-order delivery), and client submissions are sealed per
// (client, server, submission) by core/submission.h before they ever reach
// a socket. The framing itself is deliberately plaintext, like the TLS
// record layer the paper's deployment would use.
#pragma once

#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "net/transport.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "util/common.h"

namespace prio::net {

// Frames above this are rejected as corrupt. Generous: the largest honest
// frame is an explicit share vector for a big batch, far below 64 MiB.
inline constexpr size_t kMaxFrameLen = size_t{1} << 26;

// Appends one frame, [u32 length (LE)] || payload, to `out`.
inline void append_frame(std::vector<u8>& out, std::span<const u8> payload) {
  require(payload.size() <= kMaxFrameLen, "append_frame: payload too large");
  const u32 len = static_cast<u32>(payload.size());
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<u8>(len >> (8 * i)));
  out.insert(out.end(), payload.begin(), payload.end());
}

inline std::vector<u8> encode_frame(std::span<const u8> payload) {
  std::vector<u8> frame;
  frame.reserve(4 + payload.size());
  append_frame(frame, payload);
  return frame;
}

// Incremental frame decoder. feed() bytes as they arrive, then drain
// next() until it returns nullopt. Once corrupt() is set (oversized length
// prefix), feed() and next() make no further progress.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_frame = kMaxFrameLen)
      : max_frame_(max_frame) {}

  void feed(std::span<const u8> data) {
    if (corrupt_) return;
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  std::optional<std::vector<u8>> next() {
    if (corrupt_ || buf_.size() - pos_ < 4) {
      compact();
      return std::nullopt;
    }
    u32 len = 0;
    for (int i = 0; i < 4; ++i) len |= static_cast<u32>(buf_[pos_ + i]) << (8 * i);
    if (len > max_frame_) {
      corrupt_ = true;
      return std::nullopt;
    }
    if (buf_.size() - pos_ - 4 < len) {
      compact();
      return std::nullopt;
    }
    std::vector<u8> frame(buf_.begin() + pos_ + 4, buf_.begin() + pos_ + 4 + len);
    pos_ += 4 + size_t{len};
    return frame;
  }

  bool corrupt() const { return corrupt_; }
  size_t buffered() const { return buf_.size() - pos_; }

 private:
  // Reclaims consumed prefix space once it dominates the buffer.
  void compact() {
    if (pos_ > 0 && pos_ >= buf_.size() / 2) {
      buf_.erase(buf_.begin(), buf_.begin() + pos_);
      pos_ = 0;
    }
  }

  size_t max_frame_;
  std::vector<u8> buf_;
  size_t pos_ = 0;
  bool corrupt_ = false;
};

// Move-only RAII file descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close_fd(); }
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      close_fd();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void close_fd();

 private:
  int fd_ = -1;
};

// Listening socket (port 0 picks an ephemeral port; port() reports the
// bound one). Binds loopback by default; a server fronting remote peers
// passes "0.0.0.0".
class TcpListener {
 public:
  explicit TcpListener(u16 port, const std::string& bind_host = "127.0.0.1");

  u16 port() const { return port_; }
  int fd() const { return sock_.fd(); }

  // Blocks up to timeout_ms for an incoming connection; nullopt on timeout.
  std::optional<Socket> accept_conn(int timeout_ms);

 private:
  Socket sock_;
  u16 port_ = 0;
};

// Connects to 127.0.0.1:`port` (or `host`), retrying until the deadline so
// that peer processes may start in any order. Throws TransportError on
// failure.
Socket connect_tcp(const std::string& host, u16 port, int total_timeout_ms);

// One framed, bidirectional TCP connection.
class FramedConn {
 public:
  FramedConn() = default;
  // `max_frame` bounds how much one frame may buffer; servers facing
  // untrusted clients pass a tight limit instead of the 64 MiB default.
  explicit FramedConn(Socket sock, size_t max_frame = kMaxFrameLen)
      : sock_(std::move(sock)), decoder_(max_frame) {}

  bool valid() const { return sock_.valid(); }
  int fd() const { return sock_.fd(); }
  // True once the peer has closed its end (seen by try_recv_frame).
  bool eof() const { return eof_; }

  // Shuts the socket down in both directions WITHOUT closing the fd: any
  // thread blocked in a poll/recv on this connection wakes with EOF, and
  // later sends fail. Safe to call concurrently with a blocked reader
  // (unlike destroying the object, which would close the fd under it).
  void shutdown_rw();

  // Writes one frame, looping over partial writes. Throws TransportError
  // on a broken connection.
  void send_frame(std::span<const u8> payload) {
    send_raw(encode_frame(payload));
  }

  // Writes bytes that are already framed (one or more encode_frame
  // outputs back to back) in one send loop. Throws like send_frame.
  void send_raw(std::span<const u8> bytes);

  // The next frame the decoder already holds, without touching the
  // socket; nullopt when no complete frame is buffered. Throws
  // TransportError on corrupt framing.
  std::optional<std::vector<u8>> next_buffered();

  // Next frame, blocking up to timeout_ms across reads. Throws
  // TransportError on disconnect, corrupt framing, or timeout.
  std::vector<u8> recv_frame(int timeout_ms);

  // Like recv_frame but returns nullopt on timeout/EOF instead of
  // throwing (for accept-loop polling); still throws on corrupt framing.
  std::optional<std::vector<u8>> try_recv_frame(int timeout_ms);

 private:
  Socket sock_;
  FrameDecoder decoder_;
  bool eof_ = false;
};

// The server mesh over real sockets: every pair of servers keeps one TCP
// connection per lane, established deterministically (node i dials every
// j < i and accepts from every j > i, once per lane, identifying each
// connection with a hello frame sealed under the shared mesh secret -- a
// process that merely reaches a peer port cannot claim a peer's slot; it
// would need the secret to forge the hello. This authenticates mesh
// membership the way the paper's mutual TLS would; like any first-flight
// token it does not by itself resist an in-path attacker replaying a
// captured hello.) The caller provides the already-listening socket so the
// same port can also serve clients before and after mesh setup.
//
// Lanes (the sharded runtime, server/router.h): each (peer, lane) pair is
// its own connection, so per-lane ordering is TCP's in-order delivery on
// that socket -- exactly what the counter-nonce channel sealing above
// needs -- and frames carry no lane id. Only that lane's thread sends or
// receives on a connection, so a frame is written whole without a lock
// and a lane never waits on another lane's traffic.
class TcpMeshTransport final : public Transport {
 public:
  struct PeerAddr {
    std::string host;
    u16 port = 0;
  };

  // Establishes the full mesh. `addrs[i]` is where server i listens for
  // peers; `listener` must already be bound to addrs[self]; `mesh_secret`
  // is the deployment secret the hello frames authenticate under (all
  // servers must agree). Blocks until all (n-1)*lanes connections are up or
  // the deadline passes. `lanes` (1..255) is the number of connections per
  // peer; all servers must agree on it, and a peer whose hello names
  // another count fails setup with a TransportError naming both.
  TcpMeshTransport(size_t self, const std::vector<PeerAddr>& addrs,
                   TcpListener* listener, std::span<const u8> mesh_secret,
                   int setup_timeout_ms = 30'000, int recv_timeout_ms = 30'000,
                   size_t lanes = 1);

  size_t num_nodes() const override { return n_; }
  size_t self() const override { return self_; }
  size_t lanes() const override { return lanes_; }
  void send(size_t to, std::vector<u8> frame) override {
    send_lane(0, to, std::move(frame));
  }
  std::vector<u8> recv(size_t from) override { return recv_lane(0, from); }
  void send_lane(size_t lane, size_t to, std::vector<u8> frame) override;
  std::vector<u8> recv_lane(size_t lane, size_t from) override;

  // Crash recovery: closes every peer connection (waking any peer still
  // blocked on one) and re-runs the dial/accept rendezvous, waiting up to
  // `reestablish_timeout_ms` (for a restarting peer to come back up; falls
  // back to the construction-time setup timeout when <= 0). Throws
  // TransportError if the mesh cannot be rebuilt in time; the old links
  // are gone either way.
  //
  // NOT thread-safe against concurrent send/recv: with multiple lanes the
  // caller must interrupt() first and park every lane thread (the router's
  // repair barrier) before one thread runs reestablish().
  void reestablish() override;
  void set_reestablish_timeout_ms(int ms) { reestablish_timeout_ms_ = ms; }

  // Marks the mesh down and shuts down (without closing) every connection:
  // all blocked lane readers wake with link-down errors and every
  // subsequent send/recv fails fast until reestablish() succeeds. Safe to
  // call from any thread at any time.
  void interrupt() override;

  // Registers per-lane frame/byte counters and a blocked-in-recv histogram
  // with `registry`. Call during setup, before any lane thread runs
  // send/recv (the per-lane slot vector is sized here, unsynchronized).
  void attach_metrics(obs::Registry* registry);

 private:
  // One (peer, lane) connection. Its lane thread is the only one that
  // sends or receives on `conn`; the mutex guards the pointer against
  // interrupt() and the down flag against the injected-fault path.
  struct Slot {
    std::mutex mu;
    std::unique_ptr<FramedConn> conn;
    bool down = false;  // connection failed (or interrupted)
    std::string down_reason;
  };

  Slot& slot(size_t peer, size_t lane) {
    return *slots_[peer * lanes_ + lane];
  }
  // Checks the down flags and returns the slot's connection, or throws.
  FramedConn* live_conn(Slot& s, size_t peer);
  // Marks the slot down, keeping the first reason, and returns that reason.
  static std::string mark_down(Slot& s, const std::string& reason);

  // Dials every lower-id peer and accepts every higher-id one, once per
  // lane (the shared deterministic rendezvous used by both construction
  // and reestablish).
  void establish(int timeout_ms);
  // The unclaimed (peer, lane) slot whose key opens `hello`, or null for
  // a stranger, a replay for a claimed slot or garbage. Throws
  // TransportError naming both counts when an authentic hello comes from
  // a peer that runs another lane count.
  Slot* open_hello(std::span<const u8> hello);

  size_t n_ = 0;
  size_t self_ = 0;
  size_t lanes_ = 1;
  std::vector<PeerAddr> addrs_;
  TcpListener* listener_ = nullptr;
  std::vector<u8> secret_;
  int setup_timeout_ms_ = 30'000;
  int reestablish_timeout_ms_ = 0;  // <= 0: use setup_timeout_ms_
  int recv_timeout_ms_ = 30'000;
  // Per-lane scrape instruments; empty until attach_metrics.
  struct LaneMetrics {
    obs::Counter* frames = nullptr;
    obs::Counter* bytes = nullptr;
    obs::Histogram* recv_wait = nullptr;
  };

  std::vector<std::unique_ptr<Slot>> slots_;  // [peer * lanes_ + lane]
  std::vector<LaneMetrics> lane_metrics_;
  std::atomic<bool> mesh_down_{false};
};

}  // namespace prio::net
