#include "net/tcp_transport.h"

#include "net/channel.h"
#include "store/fault.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <thread>

namespace prio::net {

namespace {

using Clock = std::chrono::steady_clock;

int ms_left(Clock::time_point deadline) {
  auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                  deadline - Clock::now())
                  .count();
  return left > 0 ? static_cast<int>(left) : 0;
}

[[noreturn]] void fail(const std::string& what) {
  throw TransportError(what + " (errno=" + std::to_string(errno) + ")");
}

sockaddr_in make_addr(const std::string& host, u16 port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw TransportError("bad IPv4 address: " + host);
  }
  return addr;
}

}  // namespace

void Socket::close_fd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpListener::TcpListener(u16 port, const std::string& bind_host) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("socket()");
  sock_ = Socket(fd);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = make_addr(bind_host, port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    fail("bind(" + bind_host + ":" + std::to_string(port) + ")");
  }
  if (::listen(fd, 64) != 0) fail("listen()");
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    fail("getsockname()");
  }
  port_ = ntohs(bound.sin_port);
}

std::optional<Socket> TcpListener::accept_conn(int timeout_ms) {
  pollfd pfd{sock_.fd(), POLLIN, 0};
  int rc = ::poll(&pfd, 1, timeout_ms);
  if (rc < 0) {
    if (errno == EINTR) return std::nullopt;  // caller loops; treat as timeout
    fail("poll(listener)");
  }
  if (rc == 0) return std::nullopt;
  int fd = ::accept(sock_.fd(), nullptr, nullptr);
  if (fd < 0) {
    if (errno == EINTR || errno == ECONNABORTED) return std::nullopt;
    fail("accept()");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Socket(fd);
}

Socket connect_tcp(const std::string& host, u16 port, int total_timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(total_timeout_ms);
  sockaddr_in addr = make_addr(host, port);
  // A peer that is merely starting up usually listens within a few ms, so
  // the retry sleep starts at 1 ms and doubles up to a 20 ms cap.
  int backoff_ms = 1;
  for (;;) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) fail("socket()");
    Socket sock(fd);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return sock;
    }
    // Peer not up yet (or listen backlog full): retry until the deadline.
    if (ms_left(deadline) == 0) {
      throw TransportError("connect to " + host + ":" + std::to_string(port) +
                           " timed out");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms = std::min(2 * backoff_ms, 20);
  }
}

void FramedConn::shutdown_rw() {
  if (sock_.valid()) ::shutdown(sock_.fd(), SHUT_RDWR);
}

void FramedConn::send_raw(std::span<const u8> bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::send(sock_.fd(), bytes.data() + off, bytes.size() - off,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("send()");
    }
    off += static_cast<size_t>(n);
  }
}

std::optional<std::vector<u8>> FramedConn::next_buffered() {
  auto frame = decoder_.next();
  if (!frame && decoder_.corrupt()) {
    throw TransportError("corrupt frame (length prefix over limit)");
  }
  return frame;
}

std::optional<std::vector<u8>> FramedConn::try_recv_frame(int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (auto frame = next_buffered()) return frame;
    pollfd pfd{sock_.fd(), POLLIN, 0};
    int rc = ::poll(&pfd, 1, ms_left(deadline));
    if (rc < 0) {
      if (errno == EINTR) continue;
      fail("poll()");
    }
    if (rc == 0) return std::nullopt;  // timeout
    u8 buf[16384];
    ssize_t n = ::recv(sock_.fd(), buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      fail("recv()");
    }
    if (n == 0) {  // peer closed
      eof_ = true;
      return std::nullopt;
    }
    decoder_.feed(std::span<const u8>(buf, static_cast<size_t>(n)));
  }
}

std::vector<u8> FramedConn::recv_frame(int timeout_ms) {
  auto frame = try_recv_frame(timeout_ms);
  if (!frame) throw TransportError("recv_frame: timeout or peer closed");
  return std::move(*frame);
}

namespace {

// Every mesh connection opens with a hello from the dialer: its lane count
// in the clear, then (dialer, lane, lanes) sealed under a key derived from
// the mesh secret and all of (dialer, acceptor, lane, lanes). Only a holder
// of the secret can claim a peer slot, and because the plaintext is a
// function of the key, no two hellos ever seal different plaintexts under
// one (key, nonce) -- not across lanes, nor across restarts with another
// lane count. The clear count lets an acceptor that runs another count
// still open the hello and fail setup by name.
SecureChannel hello_channel(std::span<const u8> secret, size_t dialer,
                            size_t acceptor, size_t lane, size_t lanes) {
  std::string from = "hello/s";
  from += std::to_string(dialer) + "/lane" + std::to_string(lane) + "of" +
          std::to_string(lanes);
  std::string to = "s";
  to += std::to_string(acceptor);
  return SecureChannel(secret, from, to);
}

std::vector<u8> seal_hello(std::span<const u8> secret, size_t dialer,
                           size_t acceptor, size_t lane, size_t lanes) {
  Writer pt;
  pt.u32_(static_cast<u32>(dialer));
  pt.u32_(static_cast<u32>(lane));
  pt.u32_(static_cast<u32>(lanes));
  Writer hello;
  hello.u8_(static_cast<u8>(lanes));
  hello.raw(
      hello_channel(secret, dialer, acceptor, lane, lanes).seal(pt.data()));
  return hello.take();
}

std::string down_message(size_t peer, const std::string& reason) {
  return "link to s" + std::to_string(peer) + " is down" +
         (reason.empty() ? std::string() : " (" + reason + ")");
}

}  // namespace

TcpMeshTransport::TcpMeshTransport(size_t self,
                                   const std::vector<PeerAddr>& addrs,
                                   TcpListener* listener,
                                   std::span<const u8> mesh_secret,
                                   int setup_timeout_ms, int recv_timeout_ms,
                                   size_t lanes)
    : n_(addrs.size()), self_(self), lanes_(lanes), addrs_(addrs),
      listener_(listener), secret_(mesh_secret.begin(), mesh_secret.end()),
      setup_timeout_ms_(setup_timeout_ms), recv_timeout_ms_(recv_timeout_ms),
      slots_(addrs.size() * lanes) {
  require(self < n_, "TcpMeshTransport: bad self id");
  require(listener != nullptr, "TcpMeshTransport: need a listener");
  require(lanes >= 1 && lanes <= 255, "TcpMeshTransport: 1..255 lanes");
  for (auto& s : slots_) s = std::make_unique<Slot>();
  establish(setup_timeout_ms_);
}

std::string TcpMeshTransport::mark_down(Slot& s, const std::string& reason) {
  std::lock_guard<std::mutex> lock(s.mu);
  s.down = true;
  if (s.down_reason.empty()) s.down_reason = reason;
  return s.down_reason;
}

FramedConn* TcpMeshTransport::live_conn(Slot& s, size_t peer) {
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.down || s.conn == nullptr ||
      mesh_down_.load(std::memory_order_acquire)) {
    throw TransportError(down_message(peer, s.down_reason));
  }
  return s.conn.get();
}

void TcpMeshTransport::interrupt() {
  mesh_down_.store(true, std::memory_order_release);
  for (auto& s : slots_) {
    std::lock_guard<std::mutex> lock(s->mu);
    if (s->conn) s->conn->shutdown_rw();
    s->down = true;
    if (s->down_reason.empty()) s->down_reason = "interrupted";
  }
}

void TcpMeshTransport::reestablish() {
  // Dropping the connections first doubles as the abort broadcast: a peer
  // still blocked in recv on one of them fails immediately and starts its
  // own reestablish, so the mesh converges on the rendezvous below without
  // waiting out any protocol timeout. Stale pre-failure frames go with
  // their connection. (With multiple lanes the caller has already
  // interrupted and parked every lane thread, so no lane holds a
  // connection while it is destroyed here.)
  for (auto& s : slots_) {
    std::lock_guard<std::mutex> lock(s->mu);
    s->conn.reset();
    s->down = false;
    s->down_reason.clear();
  }
  try {
    establish(reestablish_timeout_ms_ > 0 ? reestablish_timeout_ms_
                                          : setup_timeout_ms_);
  } catch (...) {
    mesh_down_.store(true, std::memory_order_release);
    throw;
  }
  mesh_down_.store(false, std::memory_order_release);
}

void TcpMeshTransport::establish(int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  auto claim = [](Slot& s, std::unique_ptr<FramedConn> conn) {
    std::lock_guard<std::mutex> lock(s.mu);
    s.conn = std::move(conn);
  };

  // Dial every lower-id peer once per lane, each connection introducing
  // itself with its sealed hello.
  for (size_t j = 0; j < self_; ++j) {
    for (size_t l = 0; l < lanes_; ++l) {
      auto conn = std::make_unique<FramedConn>(
          connect_tcp(addrs_[j].host, addrs_[j].port, ms_left(deadline)));
      conn->send_frame(seal_hello(secret_, self_, j, l, lanes_));
      claim(slot(j, l), std::move(conn));
    }
  }

  // Accept every higher-id peer's lanes; the hello says (and proves) who
  // dialed and for which lane. Accepted connections wait in a pending set
  // with their own generous deadline: a stray connection (scanner,
  // misdirected client) cannot stall setup, and a peer whose hello is a
  // few seconds behind its connect is not dropped. One poll covers the
  // listener and every pending connection, so a hello that lands just
  // after its connect is read at once instead of after the next accept
  // slice.
  struct PendingConn {
    std::unique_ptr<FramedConn> conn;
    Clock::time_point give_up;
  };
  std::vector<PendingConn> waiting;
  size_t pending = (n_ - 1 - self_) * lanes_;
  while (pending > 0) {
    if (ms_left(deadline) == 0) throw TransportError("mesh setup timed out");
    std::vector<pollfd> fds{{listener_->fd(), POLLIN, 0}};
    for (const auto& w : waiting) fds.push_back({w.conn->fd(), POLLIN, 0});
    if (::poll(fds.data(), fds.size(), std::min(200, ms_left(deadline))) < 0 &&
        errno != EINTR) {
      fail("poll(mesh setup)");
    }
    if (fds[0].revents != 0) {
      if (auto sock = listener_->accept_conn(0)) {
        waiting.push_back({std::make_unique<FramedConn>(std::move(*sock)),
                           Clock::now() + std::chrono::seconds(10)});
      }
    }
    for (auto it = waiting.begin(); it != waiting.end();) {
      std::optional<std::vector<u8>> hello;
      bool drop = false;
      try {
        hello = it->conn->try_recv_frame(0);
      } catch (const TransportError&) {
        drop = true;  // garbage framing from a non-peer
      }
      if (hello) {
        if (Slot* s = open_hello(*hello)) {
          claim(*s, std::move(it->conn));
          --pending;
        }
        drop = true;  // claimed (conn moved out) or unauthenticated
      } else if (!drop) {
        drop = it->conn->eof() || Clock::now() >= it->give_up;
      }
      if (drop) {
        it = waiting.erase(it);
      } else {
        ++it;
      }
    }
  }
}

TcpMeshTransport::Slot* TcpMeshTransport::open_hello(
    std::span<const u8> hello) {
  if (hello.empty() || hello[0] == 0) return nullptr;
  const size_t lanes = hello[0];
  for (size_t peer = self_ + 1; peer < n_; ++peer) {
    for (size_t l = 0; l < lanes_; ++l) {
      if (slot(peer, l).conn != nullptr) continue;
      auto pt = hello_channel(secret_, peer, self_, l, lanes)
                    .open(hello.subspan(1));
      if (!pt) continue;
      Reader r(*pt);
      const u32 who = r.u32_();
      const u32 lane = r.u32_();
      const u32 count = r.u32_();
      if (!r.ok() || !r.at_end() || who != peer || lane != l ||
          count != lanes) {
        continue;
      }
      if (lanes != lanes_) {
        throw TransportError("mesh setup: s" + std::to_string(peer) +
                             " runs " + std::to_string(lanes) + " lanes, s" +
                             std::to_string(self_) + " runs " +
                             std::to_string(lanes_));
      }
      return &slot(peer, l);
    }
  }
  return nullptr;
}

void TcpMeshTransport::send_lane(size_t lane, size_t to,
                                 std::vector<u8> frame) {
  require(to < n_ && to != self_ && lane < lanes_,
          "TcpMeshTransport::send_lane: bad peer or lane");
  if (mesh_down_.load(std::memory_order_acquire)) {
    throw TransportError("mesh is down (awaiting reestablish)");
  }
  if (!lane_metrics_.empty()) {
    lane_metrics_[lane].frames->inc();
    lane_metrics_[lane].bytes->inc(frame.size());
  }
  Slot& s = slot(to, lane);
  // Injected mesh faults (store/fault.h): a slow peer stalls the frame, a
  // partition loses it and downs this lane's connection exactly like a
  // failed socket write -- the interrupt/reestablish repair protocol takes
  // over. The establish() hello handshake bypasses send_lane and is never
  // faulted.
  if (auto fault = store::fault_tick(store::FaultOp::kMeshSend)) {
    if (fault->kind == store::FaultKind::kDelay) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(fault->arg ? fault->arg : 10));
    } else {
      mark_down(s, "injected partition");
      throw TransportError("injected partition to s" + std::to_string(to));
    }
  }
  FramedConn* conn = live_conn(s, to);
  try {
    conn->send_frame(frame);
  } catch (const TransportError& e) {
    mark_down(s, e.what());
    throw;
  }
}

std::vector<u8> TcpMeshTransport::recv_lane(size_t lane, size_t from) {
  require(from < n_ && from != self_ && lane < lanes_,
          "TcpMeshTransport::recv_lane: bad peer or lane");
  // Entry-to-exit wall time: exactly how long this lane thread sat blocked
  // waiting for the peer (records timeout/link-down exits too).
  obs::ScopedTimer recv_timer(
      lane_metrics_.empty() ? nullptr : lane_metrics_[lane].recv_wait);
  Slot& s = slot(from, lane);
  FramedConn* conn = live_conn(s, from);
  // interrupt() shuts the socket down under this poll, so it wakes with
  // EOF at once instead of sitting out the timeout.
  std::optional<std::vector<u8>> frame;
  std::string err;
  try {
    frame = conn->try_recv_frame(recv_timeout_ms_);
    if (!frame && conn->eof()) err = "peer closed connection";
  } catch (const TransportError& e) {
    err = e.what();  // corrupt framing or a failed socket
  }
  if (frame) return std::move(*frame);
  if (err.empty()) {
    throw TransportError("recv from s" + std::to_string(from) + " lane " +
                         std::to_string(lane) + ": timeout");
  }
  throw TransportError(down_message(from, mark_down(s, err)));
}

void TcpMeshTransport::attach_metrics(obs::Registry* registry) {
  lane_metrics_.resize(lanes_);
  for (size_t l = 0; l < lanes_; ++l) {
    const std::string label = obs::label_kv("lane", l);
    lane_metrics_[l].frames = registry->counter(
        "prio_mesh_frames_sent_total", "Mesh frames sent, per lane", label);
    lane_metrics_[l].bytes = registry->counter(
        "prio_mesh_bytes_sent_total",
        "Mesh frame bytes sent, per lane", label);
    lane_metrics_[l].recv_wait = registry->histogram(
        "prio_mesh_recv_wait_seconds",
        "Wall time a lane thread spent blocked in mesh recv", label);
  }
}

}  // namespace prio::net
