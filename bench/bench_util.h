// Shared helpers for the table/figure reproduction benches.
//
// Each bench binary regenerates one table or figure of the paper and prints
// it in a paper-like layout. Set PRIO_BENCH_FULL=1 to run the full sweeps
// (larger submission lengths, more NIZK points); the default keeps every
// binary under a couple of minutes on a laptop-class core.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>

namespace prio::benchutil {

inline bool full_mode() {
  const char* env = std::getenv("PRIO_BENCH_FULL");
  return env != nullptr && env[0] == '1';
}

// Best-of-repeats (minimum) wall-clock timing, in seconds.
inline double time_seconds(const std::function<void()>& fn, int repeats = 3) {
  double best = 1e300;
  for (int i = 0; i < repeats; ++i) {
    auto start = std::chrono::steady_clock::now();
    fn();
    auto end = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(end - start).count());
  }
  return best;
}

// The flags of the benches that write a JSON trajectory: --smoke and
// --out <path>. Anything else, or --out without a value, exits 2 naming
// the argument, so a typo in a CI invocation cannot silently run the
// full-size bench and write to the default path.
struct Args {
  bool smoke = false;
  std::string out_path;
};

inline Args parse_args(int argc, char** argv, const std::string& default_out) {
  Args args{false, default_out};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      args.out_path = argv[++i];
    } else {
      std::fprintf(stderr, "%s: %s %s\nusage: %s [--smoke] [--out PATH]\n",
                   argv[0],
                   arg == "--out" ? "missing value for" : "unknown argument",
                   arg.c_str(), argv[0]);
      std::exit(2);
    }
  }
  return args;
}

inline void header(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

// Flat key/value JSON emitter for the BENCH_*.json CI artifacts. Shared so
// the artifact format cannot drift between bench binaries.
struct JsonWriter {
  std::string out = "{\n";
  bool first = true;

  void kv(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    raw(key, buf);
  }
  void kv(const std::string& key, unsigned long long v) {
    raw(key, std::to_string(v));
  }
  void kv(const std::string& key, const std::string& v) {
    raw(key, "\"" + v + "\"");
  }
  void raw(const std::string& key, const std::string& v) {
    if (!first) out += ",\n";
    first = false;
    out += "  \"" + key + "\": " + v;
  }
  std::string finish() { return out + "\n}\n"; }
};

}  // namespace prio::benchutil
