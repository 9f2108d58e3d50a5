#include "store/wal.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "store/fault.h"

#include <algorithm>
#include <array>
#include <cerrno>
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

u32 crc32(std::span<const u8> data, u32 seed) {
  static const std::array<u32, 256> table = make_crc_table();
  u32 c = seed ^ 0xffffffffu;
  for (u8 b : data) c = table[(c ^ b) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

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
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    throw std::runtime_error("WalWriter: cannot open " + path_ + " (errno=" +
                             std::to_string(errno) + ")");
  }
  // Whatever the file holds now is the clean prefix a failed append may
  // cut back to ("ab" puts every write at the end regardless of position).
  std::fseek(file_, 0, SEEK_END);
  const long end = std::ftell(file_);
  clean_bytes_ = end > 0 ? static_cast<size_t>(end) : 0;
}

WalWriter::~WalWriter() { close_file(); }

void WalWriter::close_file() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

void WalWriter::append(u8 type, std::span<const u8> payload) {
  require(file_ != nullptr, "WalWriter: append after close");
  const size_t body_len = 1 + payload.size();
  require(body_len <= kMaxWalRecordLen, "WalWriter: record too large");
  std::vector<u8> rec;
  rec.reserve(8 + body_len);
  put_le32(rec, static_cast<u32>(body_len));
  // CRC over the length prefix and the body: a flipped length byte fails
  // the checksum instead of walking the reader into the next record.
  u32 crc = crc32(std::span<const u8>(rec.data(), 4));
  crc = crc32(std::span<const u8>(&type, 1), crc);
  crc = crc32(payload, crc);
  put_le32(rec, crc);
  rec.push_back(type);
  rec.insert(rec.end(), payload.begin(), payload.end());
  if (poisoned_) {
    throw std::runtime_error("WalWriter: " + path_ +
                             " is poisoned by an unrepaired failed append");
  }
  if (auto fault = fault_tick(FaultOp::kWalAppend)) {
    if (fault->kind == FaultKind::kShortWrite) {
      // Land a real partial record so the repair path below has a genuine
      // torn prefix to clean up, then fail the append like a full disk.
      const size_t cut = std::min(
          rec.size() - 1,
          fault->arg ? static_cast<size_t>(fault->arg) : rec.size() / 2);
      (void)std::fwrite(rec.data(), 1, cut, file_);
      repair_failed_append();
      throw std::runtime_error("WalWriter: short write to " + path_ +
                               " (injected)");
    }
    throw std::runtime_error("WalWriter: injected EIO on append to " + path_);
  }
  if (std::fwrite(rec.data(), 1, rec.size(), file_) != rec.size()) {
    repair_failed_append();
    throw std::runtime_error("WalWriter: short write to " + path_);
  }
  // The record is whole from here on -- even if the kAlways fsync below
  // fails, the clean prefix includes it (a repair must never cut it).
  clean_bytes_ += rec.size();
  if (policy_ == FsyncPolicy::kAlways) {
    if (!sync()) {
      throw std::runtime_error("WalWriter: fsync failed on " + path_);
    }
  } else {
    // Push the record out of stdio's buffer so kill -9 cannot lose it;
    // only power loss can claim un-fsynced page-cache bytes.
    std::fflush(file_);
  }
}

void WalWriter::repair_failed_append() {
  // Flush any buffered fragment into the file first: bytes still sitting
  // in stdio's buffer would otherwise be appended AFTER the truncate, past
  // the point where replay stops at the first bad CRC.
  const bool flushed = std::fflush(file_) == 0;
  const bool cut = ::ftruncate(::fileno(file_),
                               static_cast<off_t>(clean_bytes_)) == 0;
  if (!flushed || !cut) poisoned_ = true;
}

bool WalWriter::sync() {
  require(file_ != nullptr, "WalWriter: sync after close");
  if (auto fault = fault_tick(FaultOp::kWalSync)) {
    (void)fault;
    return false;  // injected EIO: the caller must keep older copies
  }
  bool ok = std::fflush(file_) == 0;
  if (policy_ != FsyncPolicy::kOff) {
    ok = (::fsync(::fileno(file_)) == 0) && ok;
  }
  return ok;
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
