#include "store/wal.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "store/fault.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace prio::store {

namespace {

std::array<u32, 256> make_crc_table() {
  std::array<u32, 256> table{};
  for (u32 i = 0; i < 256; ++i) {
    u32 c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

// Both cores work on the inverted register (seed ^ 0xffffffff), so a
// fold over a prefix hands its state straight to the byte loop.
u32 bytewise_state(const u8* p, size_t n, u32 c) {
  static const std::array<u32, 256> table = make_crc_table();
  for (size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  return c;
}

#if defined(__x86_64__) || defined(__i386__)
#define PRIO_CRC_TARGET __attribute__((target("pclmul,sse4.1")))

inline __m128i load128(const u8* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// x_lo * k_lo ^ x_hi * k_hi ^ next: one 128-bit lane folded forward by the
// distance k encodes.
PRIO_CRC_TARGET inline __m128i fold128(__m128i x, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

// Folds n bytes (n >= 64, a multiple of 16) into the register c. The
// constants are the bit-reflected x^k mod P(x) values of the Intel paper
// for the IEEE polynomial: k1/k2 fold 512 bits ahead, k3/k4 128 bits, k5
// takes 96 bits to 64, and the Barrett pair (P', mu) reduces 64 to 32.
// SSE4.1 is only for the final _mm_extract_epi32.
PRIO_CRC_TARGET u32 fold_state(const u8* p, size_t n, u32 c) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly = _mm_set_epi64x(0x1F7011641, 0x1DB710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  __m128i x1 =
      _mm_xor_si128(load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load128(p + 16);
  __m128i x3 = load128(p + 32);
  __m128i x4 = load128(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = fold128(x1, k1k2, load128(p));
    x2 = fold128(x2, k1k2, load128(p + 16));
    x3 = fold128(x3, k1k2, load128(p + 32));
    x4 = fold128(x4, k1k2, load128(p + 48));
  }
  x1 = fold128(x1, k3k4, x2);
  x1 = fold128(x1, k3k4, x3);
  x1 = fold128(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = fold128(x1, k3k4, load128(p));

  // 128 -> 64 bits.
  __m128i t = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), t);
  t = _mm_srli_si128(x1, 4);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00);
  x1 = _mm_xor_si128(x1, t);
  // Barrett reduction, 64 -> 32 bits.
  t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<u32>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}
#undef PRIO_CRC_TARGET
#endif

bool has_pclmul() {
#if defined(__x86_64__) || defined(__i386__)
  // A function-local static: probed once, thread-safe, and never read
  // before the CPU model is.
  static const bool kHas = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") != 0 &&
           __builtin_cpu_supports("sse4.1") != 0;
  }();
  return kHas;
#else
  return false;
#endif
}

// Writes the first `limit` bytes of iov[0..n) at the descriptor's end,
// looping on partial writes and EINTR. False on any other error (errno
// set), or if the kernel accepts nothing.
bool write_gathered(int fd, iovec* iov, int n, size_t limit) {
  // Trim the gather list to `limit` bytes (a short-write fault lands only
  // a prefix of the record).
  int used = 0;
  for (size_t left = limit; used < n && left > 0; ++used) {
    iov[used].iov_len = std::min(iov[used].iov_len, left);
    left -= iov[used].iov_len;
  }
  while (used > 0) {
    const ssize_t w = ::writev(fd, iov, used);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    size_t done = static_cast<size_t>(w);
    while (used > 0 && done >= iov->iov_len) {
      done -= iov->iov_len;
      ++iov;
      --used;
    }
    if (used > 0) {
      iov->iov_base = static_cast<u8*>(iov->iov_base) + done;
      iov->iov_len -= done;
    }
  }
  return true;
}

}  // namespace

void fsync_dir(const std::string& dir) {
  // Injected failure: the directory fsync "fails" (is skipped). The
  // contract is best-effort, so callers must proceed identically.
  if (fault_tick(FaultOp::kDirFsync)) return;
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

u32 crc32_bytewise(std::span<const u8> data, u32 seed) {
  return bytewise_state(data.data(), data.size(), ~seed) ^ 0xffffffffu;
}

u32 crc32_pclmul(std::span<const u8> data, u32 seed) {
  u32 c = ~seed;
  const u8* p = data.data();
  size_t n = data.size();
#if defined(__x86_64__) || defined(__i386__)
  if (n >= 64) {
    const size_t folded = n & ~size_t{15};
    c = fold_state(p, folded, c);
    p += folded;
    n -= folded;
  }
#endif
  return bytewise_state(p, n, c) ^ 0xffffffffu;
}

u32 crc32(std::span<const u8> data, u32 seed) {
  return has_pclmul() ? crc32_pclmul(data, seed) : crc32_bytewise(data, seed);
}

const char* crc32_core_name() { return has_pclmul() ? "pclmul" : "bytewise"; }

std::optional<FsyncPolicy> parse_fsync_policy(const std::string& text) {
  if (text == "always") return FsyncPolicy::kAlways;
  if (text == "epoch") return FsyncPolicy::kEpoch;
  if (text == "off") return FsyncPolicy::kOff;
  return std::nullopt;
}

const char* fsync_policy_name(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kAlways: return "always";
    case FsyncPolicy::kEpoch: return "epoch";
    case FsyncPolicy::kOff: return "off";
  }
  return "?";
}

std::string wal_segment_name(u32 epoch) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%08x.log", epoch);
  return buf;
}

std::string wal_segment_path(const std::string& dir, u32 epoch) {
  return dir + "/" + wal_segment_name(epoch);
}

WalWriter::WalWriter(const std::string& dir, u32 epoch, FsyncPolicy policy)
    : WalWriter(wal_segment_path(dir, epoch), policy) {
  epoch_ = epoch;
}

WalWriter::WalWriter(const std::string& path, FsyncPolicy policy)
    : path_(path), policy_(policy) {
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0666);
  if (fd_ < 0) {
    throw std::runtime_error("WalWriter: cannot open " + path_ + " (errno=" +
                             std::to_string(errno) + ")");
  }
  // Whatever the file holds now is the clean prefix a failed append may
  // cut back to (O_APPEND puts every write at the end regardless).
  const off_t end = ::lseek(fd_, 0, SEEK_END);
  clean_bytes_ = end > 0 ? static_cast<size_t>(end) : 0;
}

WalWriter::~WalWriter() { close_file(); }

void WalWriter::close_file() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void WalWriter::append(u8 type, std::span<const std::span<const u8>> pieces) {
  require(fd_ >= 0, "WalWriter: append after close");
  require(pieces.size() <= kMaxWalPieces, "WalWriter: too many pieces");
  size_t body_len = 1;
  for (const auto& piece : pieces) body_len += piece.size();
  require(body_len <= kMaxWalRecordLen, "WalWriter: record too large");
  // [u32 len][u32 crc][u8 type], then the pieces. The CRC covers the
  // length prefix and the body: a flipped length byte fails the checksum
  // instead of walking the reader into the next record.
  u8 head[9];
  for (int i = 0; i < 4; ++i) head[i] = static_cast<u8>(body_len >> (8 * i));
  head[8] = type;
  u32 crc = crc32(std::span<const u8>(head, 4));
  crc = crc32(std::span<const u8>(&type, 1), crc);
  for (const auto& piece : pieces) crc = crc32(piece, crc);
  for (int i = 0; i < 4; ++i) head[4 + i] = static_cast<u8>(crc >> (8 * i));

  std::array<iovec, 1 + kMaxWalPieces> iov;
  iov[0] = {head, sizeof(head)};
  for (size_t i = 0; i < pieces.size(); ++i) {
    iov[1 + i] = {const_cast<u8*>(pieces[i].data()), pieces[i].size()};
  }
  const int iov_count = static_cast<int>(1 + pieces.size());
  const size_t rec_len = 8 + body_len;

  if (poisoned_) {
    throw std::runtime_error("WalWriter: " + path_ +
                             " is poisoned by an unrepaired failed append");
  }
  if (auto fault = fault_tick(FaultOp::kWalAppend)) {
    if (fault->kind == FaultKind::kShortWrite) {
      // Land a real partial record so the repair path below has a genuine
      // torn prefix to clean up, then fail the append like a full disk.
      const size_t cut =
          std::min(rec_len - 1, fault->arg ? static_cast<size_t>(fault->arg)
                                           : rec_len / 2);
      (void)write_gathered(fd_, iov.data(), iov_count, cut);
      repair_failed_append();
      throw std::runtime_error("WalWriter: short write to " + path_ +
                               " (injected)");
    }
    throw std::runtime_error("WalWriter: injected EIO on append to " + path_);
  }
  if (!write_gathered(fd_, iov.data(), iov_count, rec_len)) {
    repair_failed_append();
    throw std::runtime_error("WalWriter: short write to " + path_);
  }
  // The record is whole from here on -- even if the kAlways fsync below
  // fails, the clean prefix includes it (a repair must never cut it).
  clean_bytes_ += rec_len;
  if (policy_ == FsyncPolicy::kAlways && !sync()) {
    throw std::runtime_error("WalWriter: fsync failed on " + path_);
  }
}

void WalWriter::repair_failed_append() {
  if (::ftruncate(fd_, static_cast<off_t>(clean_bytes_)) != 0) poisoned_ = true;
}

bool WalWriter::sync() {
  require(fd_ >= 0, "WalWriter: sync after close");
  if (auto fault = fault_tick(FaultOp::kWalSync)) {
    (void)fault;
    return false;  // injected EIO: the caller must keep older copies
  }
  return policy_ == FsyncPolicy::kOff || ::fsync(fd_) == 0;
}

WalSegment read_segment(const std::string& path) {
  WalSegment out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;  // missing segment: empty, untorn
  std::vector<u8> bytes;
  u8 buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);

  size_t pos = 0;
  while (bytes.size() - pos >= 8) {
    const u32 len = get_le32(bytes.data() + pos);
    const u32 want_crc = get_le32(bytes.data() + pos + 4);
    if (len == 0 || len > kMaxWalRecordLen || bytes.size() - pos - 8 < len) {
      break;  // implausible length or record cut short: torn tail
    }
    u32 crc = crc32(std::span<const u8>(bytes.data() + pos, 4));
    crc = crc32(std::span<const u8>(bytes.data() + pos + 8, len), crc);
    if (crc != want_crc) break;  // bit rot or a torn rewrite
    WalRecord rec;
    rec.type = bytes[pos + 8];
    rec.payload.assign(bytes.begin() + pos + 9, bytes.begin() + pos + 8 + len);
    out.records.push_back(std::move(rec));
    pos += 8 + size_t{len};
  }
  out.clean_bytes = pos;
  out.torn_tail = pos != bytes.size();
  return out;
}

bool truncate_segment(const std::string& path, size_t clean_bytes) {
  return ::truncate(path.c_str(), static_cast<off_t>(clean_bytes)) == 0;
}

bool drop_last_record(const std::string& path, u8 type) {
  const WalSegment seg = read_segment(path);
  if (seg.records.empty() || seg.records.back().type != type) return false;
  const size_t record_bytes = 8 + 1 + seg.records.back().payload.size();
  return truncate_segment(path, seg.clean_bytes - record_bytes);
}

std::vector<u32> list_wal_epochs(const std::string& dir) {
  std::vector<u32> epochs;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return epochs;
  while (dirent* e = ::readdir(d)) {
    unsigned epoch = 0;
    char tail = 0;
    if (std::sscanf(e->d_name, "wal-%8x.lo%c", &epoch, &tail) == 2 &&
        tail == 'g' && std::strlen(e->d_name) == wal_segment_name(epoch).size()) {
      epochs.push_back(static_cast<u32>(epoch));
    }
  }
  ::closedir(d);
  std::sort(epochs.begin(), epochs.end());
  return epochs;
}

void prune_wal_segments(const std::string& dir, u32 keep_from_epoch) {
  for (u32 epoch : list_wal_epochs(dir)) {
    if (epoch < keep_from_epoch) {
      ::unlink(wal_segment_path(dir, epoch).c_str());
    }
  }
}

}  // namespace prio::store
