// Epoch snapshot store: durable ServerNode state at epoch boundaries.
//
// A snapshot is the raw ServerNode::snapshot() byte string (server/node.h)
// taken at an epoch boundary, wrapped in a CRC-checked container and
// published crash-atomically: the file is written to a temp name, fsynced,
// renamed into place, and the directory fsynced. A crash at any instant
// leaves either the old snapshot set or the new one -- never a
// half-written file a reader could believe.
//
// File layout, snapshot-<epoch 8 hex>.snap:
//
//   [u32 magic "PSNP"] [u32 epoch] [u32 len] [u32 crc32(epoch||len||bytes)]
//   [bytes]
//
// The newest snapshot is found by scanning the directory: load_newest()
// returns the highest-epoch file that validates, so a rotted newest file
// degrades to the one before it. Nothing else in the directory is read.
#pragma once

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "store/fault.h"
#include "store/wal.h"
#include "util/common.h"

namespace prio::store {

inline constexpr u32 kSnapshotMagic = 0x50534e50;  // "PSNP"

struct LoadedSnapshot {
  u32 epoch = 0;
  std::vector<u8> bytes;
};

class SnapshotStore {
 public:
  explicit SnapshotStore(std::string dir, bool do_fsync = true)
      : dir_(std::move(dir)), fsync_(do_fsync) {}

  static std::string file_name(u32 epoch) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "snapshot-%08x.snap", epoch);
    return buf;
  }

  // Publishes the snapshot for `epoch` atomically; returns false on any
  // I/O failure (the previous snapshot set stays intact either way).
  bool write(u32 epoch, std::span<const u8> bytes) const {
    std::vector<u8> file;
    file.reserve(16 + bytes.size());
    put_le32(file, kSnapshotMagic);
    put_le32(file, epoch);
    put_le32(file, static_cast<u32>(bytes.size()));
    std::vector<u8> crc_head;
    put_le32(crc_head, epoch);
    put_le32(crc_head, static_cast<u32>(bytes.size()));
    u32 crc = crc32(std::span<const u8>(crc_head));
    crc = crc32(bytes, crc);
    put_le32(file, crc);
    file.insert(file.end(), bytes.begin(), bytes.end());

    return write_rename(dir_ + "/" + file_name(epoch), file);
  }

  // Parses and validates one snapshot file; nullopt on any mismatch.
  std::optional<LoadedSnapshot> load_file(const std::string& name) const {
    const std::string path = dir_ + "/" + name;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return std::nullopt;
    std::vector<u8> raw;
    u8 buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      raw.insert(raw.end(), buf, buf + n);
    }
    std::fclose(f);
    if (raw.size() < 16) return std::nullopt;
    if (get_le32(raw.data()) != kSnapshotMagic) return std::nullopt;
    LoadedSnapshot snap;
    snap.epoch = get_le32(raw.data() + 4);
    const u32 len = get_le32(raw.data() + 8);
    const u32 want_crc = get_le32(raw.data() + 12);
    if (raw.size() - 16 != len) return std::nullopt;
    u32 crc = crc32(std::span<const u8>(raw.data() + 4, 8));
    crc = crc32(std::span<const u8>(raw.data() + 16, len), crc);
    if (crc != want_crc) return std::nullopt;
    snap.bytes.assign(raw.begin() + 16, raw.end());
    return snap;
  }

  // Newest valid snapshot: the highest-epoch file in the directory that
  // validates.
  std::optional<LoadedSnapshot> load_newest() const {
    auto epochs = list_epochs();
    for (auto it = epochs.rbegin(); it != epochs.rend(); ++it) {
      if (auto snap = load_file(file_name(*it))) return snap;
    }
    return std::nullopt;
  }

  std::vector<u32> list_epochs() const {
    std::vector<u32> epochs;
    DIR* d = ::opendir(dir_.c_str());
    if (d == nullptr) return epochs;
    while (dirent* e = ::readdir(d)) {
      unsigned epoch = 0;
      char tail = 0;
      if (std::sscanf(e->d_name, "snapshot-%8x.sna%c", &epoch, &tail) == 2 &&
          tail == 'p' && std::strlen(e->d_name) == file_name(epoch).size()) {
        epochs.push_back(static_cast<u32>(epoch));
      }
    }
    ::closedir(d);
    std::sort(epochs.begin(), epochs.end());
    return epochs;
  }

  // Deletes snapshots strictly older than `keep_epoch`.
  void prune(u32 keep_epoch) const {
    for (u32 epoch : list_epochs()) {
      if (epoch < keep_epoch) {
        ::unlink((dir_ + "/" + file_name(epoch)).c_str());
      }
    }
  }

 private:
  // write-temp -> fsync -> rename -> fsync(dir): the only visible states
  // are "old file" and "new file", with the bytes durable before the name
  // flips and the name flip itself durable before the caller may prune
  // what it superseded.
  bool write_rename(const std::string& final_path,
                    std::span<const u8> bytes) const {
    // Injected publish failure: report it exactly like a real one -- the
    // previous file set stays intact, the caller must not prune against it.
    if (fault_tick(FaultOp::kSnapshotWrite)) return false;
    const std::string tmp = final_path + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) return false;
    bool wrote =
        bytes.empty() ||
        std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    wrote = (std::fflush(f) == 0) && wrote;
    // A failed fsync fails the publish: the caller prunes what this
    // snapshot supersedes on a `true` return, and bytes stuck in a failing
    // page cache are not a copy it may prune against.
    if (wrote && fsync_) wrote = ::fsync(::fileno(f)) == 0;
    std::fclose(f);
    if (!wrote || ::rename(tmp.c_str(), final_path.c_str()) != 0) {
      ::unlink(tmp.c_str());
      return false;
    }
    if (fsync_) fsync_dir(dir_);
    return true;
  }

  std::string dir_;
  bool fsync_;
};

}  // namespace prio::store
