// Flag parsing shared by prio_server, prio_client, prio_chaos and
// bench_e2e: --key value pairs, the --servers endpoint list, and the common
// deployment configuration (--afe, --master-seed, --shards) -- one place
// knows the flag vocabulary, so the binaries cannot drift apart on how a
// deployment is named.
#pragma once

#include <cerrno>
#include <cstdlib>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "afe/registry.h"
#include "net/tcp_transport.h"
#include "util/common.h"

namespace prio::server {

// One server endpoint as the binaries address it: the peer-mesh port the
// servers dial each other on, and the client port submissions arrive on.
// `host` must be an IPv4 literal ("127.0.0.1", "10.0.0.2"); the transport
// does no DNS resolution.
struct ServerEndpoint {
  std::string host;
  u16 peer_port = 0;
  u16 client_port = 0;
};

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      require(arg.rfind("--", 0) == 0, "flags must look like --key value");
      // A flag followed by another flag (or by nothing) is boolean sugar:
      // "--smoke" stores "1". Every value-taking flag in the vocabulary
      // has a value that cannot start with "--".
      if (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0) {
        values_[arg.substr(2)] = "1";
      } else {
        values_[arg.substr(2)] = argv[++i];
      }
    }
  }

  std::string str(const std::string& key, const std::string& fallback) const {
    auto it = find(key);
    return it == values_.end() ? fallback : it->second;
  }

  u64 num(const std::string& key, u64 fallback) const {
    auto it = find(key);
    if (it == values_.end()) return fallback;
    return parse_u64(it->second);
  }

  bool has(const std::string& key) const { return find(key) != values_.end(); }

  // Strict double parse for rate/fraction flags.
  double real(const std::string& key, double fallback) const {
    auto it = find(key);
    if (it == values_.end()) return fallback;
    errno = 0;
    char* end = nullptr;
    double v = std::strtod(it->second.c_str(), &end);
    require(errno == 0 && end != it->second.c_str() && *end == '\0',
            "flag value is not a valid number");
    return v;
  }

  // Strict decimal parse: a typo like "4o" or an overflow is an error, not
  // a silent zero.
  static u64 parse_u64(const std::string& text) {
    errno = 0;
    char* end = nullptr;
    u64 v = std::strtoull(text.c_str(), &end, 10);
    require(errno == 0 && end != text.c_str() && *end == '\0' &&
                !text.empty() && text[0] != '-',
            "flag value is not a valid unsigned integer");
    return v;
  }

  // Throws naming every given flag no accessor above ever looked up. Call
  // once the binary has read its whole vocabulary: a typo ("--data_dir")
  // or a retired flag then fails start-up instead of being ignored.
  void reject_unread() const {
    std::string unread;
    for (const auto& [key, value] : values_) {
      if (read_.count(key) == 0) {
        unread += (unread.empty() ? "--" : ", --") + key;
      }
    }
    if (!unread.empty()) {
      throw std::invalid_argument("unknown flag(s): " + unread);
    }
  }

 private:
  std::map<std::string, std::string>::const_iterator find(
      const std::string& key) const {
    read_.insert(key);
    return values_.find(key);
  }

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;  // keys looked up so far
};

// A TCP port given on the command line: in range and non-zero.
inline u16 parse_port(const std::string& text) {
  u64 v = Flags::parse_u64(text);
  require(v >= 1 && v <= 65535, "port must be in [1, 65535]");
  return static_cast<u16>(v);
}

// Parses "host:peer_port:client_port,host:peer_port:client_port,...".
inline std::vector<ServerEndpoint> parse_server_list(const std::string& list) {
  std::vector<ServerEndpoint> out;
  size_t pos = 0;
  while (pos <= list.size()) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    std::string entry = list.substr(pos, comma - pos);
    size_t c1 = entry.find(':');
    size_t c2 = entry.find(':', c1 == std::string::npos ? c1 : c1 + 1);
    require(c1 != std::string::npos && c2 != std::string::npos,
            "--servers entries must be host:peer_port:client_port");
    ServerEndpoint ep;
    ep.host = entry.substr(0, c1);
    ep.peer_port = parse_port(entry.substr(c1 + 1, c2 - c1 - 1));
    ep.client_port = parse_port(entry.substr(c2 + 1));
    out.push_back(ep);
    pos = comma + 1;
  }
  require(out.size() >= 2, "--servers needs at least two endpoints");
  return out;
}

inline std::vector<net::TcpMeshTransport::PeerAddr> peer_addrs(
    const std::vector<ServerEndpoint>& eps) {
  std::vector<net::TcpMeshTransport::PeerAddr> out;
  out.reserve(eps.size());
  for (const auto& ep : eps) out.push_back({ep.host, ep.peer_port});
  return out;
}

// Deployment parameters every binary agrees on (all servers and all
// clients of one deployment must be launched with equal values).
struct CommonConfig {
  std::vector<ServerEndpoint> endpoints;
  u64 master_seed = 1;
  // One mesh transport lane per shard; all servers must agree.
  size_t shards = 1;
  // --afe SPEC (afe/registry.h grammar), as given; normalize via
  // afe::with_afe against the catalogue's defaults and ranges.
  afe::AfeSpec spec;
};

inline CommonConfig parse_common_config(const Flags& flags) {
  CommonConfig cfg;
  cfg.endpoints = parse_server_list(
      flags.str("servers", "127.0.0.1:9101:9201,127.0.0.1:9102:9202"));
  cfg.master_seed = flags.num("master-seed", 1);
  cfg.shards = flags.num("shards", 1);
  require(cfg.shards >= 1 && cfg.shards <= 255, "--shards must be 1..255");
  cfg.spec = afe::parse_afe_spec(flags.str("afe", "bitvec_sum:len=16"));
  return cfg;
}

}  // namespace prio::server
