// Tiny poll-based HTTP/1.0 stats endpoint.
//
//   GET /metrics     -> Prometheus text exposition of the whole Registry
//   GET /stats.json  -> {"<caller fields>", "metrics": {...}}
//
// One background thread accepts and serves connections sequentially
// (Connection: close, one request per connection) -- a scrape endpoint for
// a monitoring poller, not a web server. The caller supplies an `extra`
// callback producing the leading JSON fields of /stats.json (server
// identity, shard state, totals); the registry snapshot is appended under
// "metrics". All metric reads are relaxed-atomic, so scraping a live
// cluster is race-free against the lane threads.
//
// Also hosts http_get(), the matching one-shot client used by prio_chaos,
// bench_e2e and the tests.
#pragma once

#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "net/tcp_transport.h"
#include "obs/metrics.h"

namespace prio::obs {

class StatsServer {
 public:
  // Binds immediately (port 0 picks an ephemeral port; see port()), then
  // serves on a background thread until destruction.
  StatsServer(u16 port, const Registry* registry,
              std::function<std::string()> extra = {},
              const std::string& bind_host = "127.0.0.1")
      : listener_(port, bind_host),
        registry_(registry),
        extra_(std::move(extra)) {
    thread_ = std::thread([this] { loop(); });
  }

  ~StatsServer() {
    stop_.store(true);
    thread_.join();
  }

  u16 port() const { return listener_.port(); }

 private:
  void loop() {
    while (!stop_.load()) {
      auto sock = listener_.accept_conn(200);
      if (!sock) continue;
      serve_one(*sock);
    }
  }

  void serve_one(net::Socket& sock) {
    std::string req;
    if (!read_request(sock.fd(), req)) return;
    // Request line: "GET <path> HTTP/1.x".
    std::string path;
    if (req.compare(0, 4, "GET ") == 0) {
      const size_t end = req.find(' ', 4);
      if (end != std::string::npos) path = req.substr(4, end - 4);
    }
    std::string status = "200 OK";
    std::string type = "text/plain; charset=utf-8";
    std::string body;
    if (path == "/metrics") {
      type = "text/plain; version=0.0.4; charset=utf-8";
      body = registry_->render_prometheus();
    } else if (path == "/stats.json") {
      type = "application/json";
      const std::string extra = extra_ ? extra_() : std::string();
      body = "{\n  ";
      if (!extra.empty()) body += extra + ",\n  ";
      body += "\"metrics\": " + registry_->render_json() + "\n}\n";
    } else {
      status = "404 Not Found";
      body = "not found\n";
    }
    std::string resp = "HTTP/1.0 " + status +
                       "\r\nContent-Type: " + type +
                       "\r\nContent-Length: " + std::to_string(body.size()) +
                       "\r\nConnection: close\r\n\r\n" + body;
    write_all(sock.fd(), resp);
  }

  // Reads until the blank line ending the request headers (the response
  // ignores everything past the request line, so the body -- there is
  // none for GET -- is never waited for). ~2s budget, then give up.
  static bool read_request(int fd, std::string& out) {
    char buf[1024];
    for (int spins = 0; spins < 10; ++spins) {
      struct pollfd pfd{fd, POLLIN, 0};
      if (::poll(&pfd, 1, 200) <= 0) continue;
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) return false;
      out.append(buf, static_cast<size_t>(n));
      if (out.find("\r\n\r\n") != std::string::npos ||
          out.find("\n\n") != std::string::npos) {
        return true;
      }
      if (out.size() > 16 * 1024) return false;
    }
    return false;
  }

  static void write_all(int fd, const std::string& data) {
    size_t off = 0;
    while (off < data.size()) {
      const ssize_t n =
          ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return;
      off += static_cast<size_t>(n);
    }
  }

  net::TcpListener listener_;
  const Registry* registry_;
  std::function<std::string()> extra_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// One-shot HTTP GET against a StatsServer (or anything speaking HTTP/1.0
// with Connection: close). Returns the response body, or nullopt on any
// connect/read failure or non-200 status.
inline std::optional<std::string> http_get(const std::string& host, u16 port,
                                           const std::string& path,
                                           int timeout_ms = 2000) {
  try {
    net::Socket sock = net::connect_tcp(host, port, timeout_ms);
    const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
    size_t off = 0;
    while (off < req.size()) {
      const ssize_t n =
          ::send(sock.fd(), req.data() + off, req.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return std::nullopt;
      off += static_cast<size_t>(n);
    }
    // The server closes the connection after one response; read to EOF.
    std::string resp;
    char buf[4096];
    const int deadline_spins = timeout_ms / 100 + 1;
    for (int spins = 0; spins < deadline_spins;) {
      struct pollfd pfd{sock.fd(), POLLIN, 0};
      const int rc = ::poll(&pfd, 1, 100);
      if (rc == 0) {
        ++spins;
        continue;
      }
      if (rc < 0) return std::nullopt;
      const ssize_t n = ::recv(sock.fd(), buf, sizeof(buf), 0);
      if (n < 0) return std::nullopt;
      if (n == 0) break;
      resp.append(buf, static_cast<size_t>(n));
    }
    const size_t hdr_end = resp.find("\r\n\r\n");
    if (hdr_end == std::string::npos) return std::nullopt;
    if (resp.find(" 200 ") == std::string::npos ||
        resp.find(" 200 ") > resp.find("\r\n")) {
      return std::nullopt;
    }
    return resp.substr(hdr_end + 4);
  } catch (const net::TransportError&) {
    return std::nullopt;
  }
}

}  // namespace prio::obs
