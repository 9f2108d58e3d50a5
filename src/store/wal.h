// Segmented, CRC-framed append-only write-ahead log for prio_server.
//
// The multi-process runtime keeps all accepted state in memory; this WAL is
// the durability substrate that lets a server survive kill -9 and rejoin
// its mesh mid-epoch (src/store/recovery.h). One segment file per epoch,
// named wal-<epoch 8 hex>.log; segments rotate at epoch boundaries and
// segments older than the newest snapshot are deleted (truncation).
//
// Record framing:
//
//   [u32 len (LE)] [u32 crc32 (LE)] [u8 type || payload (len bytes)]
//
// with crc32 (IEEE, reflected) computed over the len prefix and the body,
// so a bit flip in either is caught. The writer computes that CRC over the
// record's pieces by seed chaining and lands the 8-byte prefix, the type
// byte and the pieces with one writev(2) on an O_APPEND descriptor, so the
// kernel makes the only copy of the payload. A torn tail -- a record cut
// short by a crash, or trailing garbage -- is detected by a short read, an
// implausible length, or a CRC mismatch; read_segment stops at the first
// bad record and reports the clean prefix length so recovery can truncate
// the file there and continue. Corruption never throws out of the reader.
//
// Fsync policy trades durability for append throughput:
//   kAlways -- fsync after every append; survives power loss per record.
//   kEpoch  -- fsync only at epoch boundaries (rotation); a power failure
//              may lose the open epoch, but a process crash (kill -9)
//              loses nothing: written bytes live in the OS page cache.
//   kOff    -- never fsync; durable against process death only.
// Every append is a write(2) straight into the page cache (no user-space
// buffer), so under every policy a kill -9 loses no acked record.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/common.h"

namespace prio::store {

enum class FsyncPolicy { kAlways, kEpoch, kOff };

// Parses "always" / "epoch" / "off" (the --fsync flag); nullopt otherwise.
std::optional<FsyncPolicy> parse_fsync_policy(const std::string& text);
const char* fsync_policy_name(FsyncPolicy policy);

// CRC-32 (IEEE 802.3, reflected, init/xorout 0xffffffff) -- the ubiquitous
// zlib polynomial, implemented locally so the store has no new deps.
// Chaining seeds concatenates: crc32(b, crc32(a)) == crc32(a || b). Runs
// crc32_pclmul where the CPU has PCLMULQDQ (probed once per process), else
// crc32_bytewise; both give the same value on every input.
u32 crc32(std::span<const u8> data, u32 seed = 0);

// The two cores behind crc32, exposed so tests/test_store.cc can check each
// against a reference. crc32_bytewise is the table-driven byte loop.
// crc32_pclmul folds four 128-bit lanes with carry-less multiplies (Gopal
// et al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
// Instruction", Intel, 2009) over the longest 16-byte multiple of an input
// of 64 B or more, and leaves shorter inputs and the tail to the byte loop.
// Call crc32_pclmul only when crc32_core_name() is "pclmul": on any other
// CPU it faults with an illegal instruction.
u32 crc32_bytewise(std::span<const u8> data, u32 seed = 0);
u32 crc32_pclmul(std::span<const u8> data, u32 seed = 0);
// "pclmul" or "bytewise": the core crc32 runs on this CPU.
const char* crc32_core_name();

// Little-endian u32 framing helpers shared by the WAL and snapshot
// containers.
inline void put_le32(std::vector<u8>& out, u32 v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<u8>(v >> (8 * i)));
}
inline u32 get_le32(const u8* p) {
  u32 v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<u32>(p[i]) << (8 * i);
  return v;
}

// fsyncs a directory so renames/creations inside it are power-loss
// durable (fsync on the file alone persists data + inode, not the
// directory entry). Best-effort: failure is ignored, matching the
// fsync-policy degradation story.
void fsync_dir(const std::string& dir);

// Records a WAL segment can hold. Payload encodings use net/wire.h and are
// owned by EpochStore (store/recovery.h; the batch record's codec is
// encode_batch_record in server/node.h): this file only frames and
// checksums bytes.
inline constexpr u8 kWalIntake = 1;      // sealed client blob accepted at intake
inline constexpr u8 kWalBatch = 2;       // committed batch: ids + verdicts
inline constexpr u8 kWalEpochClose = 3;  // epoch published/closed
inline constexpr u8 kWalGeneration = 4;  // mesh channel-key generation bump

struct WalRecord {
  u8 type = 0;
  std::vector<u8> payload;
};

// Largest record the reader will believe. Bounds a single intake blob
// (<= 1 MiB runtime cap) plus framing with lots of slack; an on-disk
// length beyond this is corruption, not a huge record.
inline constexpr size_t kMaxWalRecordLen = size_t{1} << 24;

// Segment path helpers. Epochs are zero-padded so lexicographic order is
// numeric order.
std::string wal_segment_name(u32 epoch);
std::string wal_segment_path(const std::string& dir, u32 epoch);

// Appends framed records to one segment file, honoring the fsync policy.
// Not thread-safe; the caller (EpochStore) serializes appends.
//
// A record's payload may be handed over in pieces (at most kMaxWalPieces),
// which are written back to back: EpochStore passes an intake record's
// fixed fields and the client's blob without concatenating them.
class WalWriter {
 public:
  // Opens (creating or appending to) the segment for `epoch`. Throws
  // std::runtime_error if the directory is unwritable.
  WalWriter(const std::string& dir, u32 epoch, FsyncPolicy policy);
  // Opens an arbitrary record log with the same framing (the never-rotated
  // aggregates.log uses this).
  WalWriter(const std::string& path, FsyncPolicy policy);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  u32 epoch() const { return epoch_; }
  const std::string& path() const { return path_; }

  // Frames, writes, and (policy kAlways) fsyncs one record. Throws if the
  // write -- or, under kAlways, the fsync -- fails, so the caller nacks
  // instead of acking durability the disk refused. A partial write is
  // repaired in place: the file is cut back to the last whole record, so a
  // later append can never land beyond a torn prefix that replay (which
  // stops at the first bad CRC) could not cross. If the disk refuses even
  // the repair, the writer poisons itself and every further append throws
  // -- nothing may be acked into an unreachable suffix.
  void append(u8 type, std::span<const std::span<const u8>> pieces);
  void append(u8 type, std::span<const u8> payload) {
    append(type, std::span<const std::span<const u8>>(&payload, 1));
  }

  static constexpr size_t kMaxWalPieces = 2;

  // Fsyncs regardless of policy except kOff (epoch boundaries).
  // Returns false if the fsync failed -- the caller must NOT prune
  // older copies whose replacement never verifiably reached the platter.
  bool sync();

  void close_file();

 private:
  // Cuts the file back to clean_bytes_ after a failed record write;
  // poisons the writer if the repair itself fails.
  void repair_failed_append();

  std::string path_;
  u32 epoch_ = 0;
  FsyncPolicy policy_;
  int fd_ = -1;  // O_APPEND: every write lands at the current end
  size_t clean_bytes_ = 0;  // offset after the last fully written record
  bool poisoned_ = false;   // a failed append could not be repaired
};

// The decoded clean prefix of one segment.
struct WalSegment {
  std::vector<WalRecord> records;
  size_t clean_bytes = 0;   // offset of the first bad/torn record, if any
  bool torn_tail = false;   // true if trailing bytes were not a clean record
};

// Reads every valid record from the start of the file, stopping at the
// first torn or corrupt record (never throwing on corruption). A missing
// file reads as an empty, untorn segment.
WalSegment read_segment(const std::string& path);

// Truncates the segment file to its clean prefix (recovery after a torn
// tail). Returns false if the file cannot be truncated.
bool truncate_segment(const std::string& path, size_t clean_bytes);

// Cuts the segment back to just before its last clean record (and any torn
// tail after it) if that record has `type`; returns false, cutting
// nothing, otherwise. Crash tests use it to lose exactly one record.
bool drop_last_record(const std::string& path, u8 type);

// Lists the epochs that have a WAL segment in `dir`, ascending.
std::vector<u32> list_wal_epochs(const std::string& dir);

// Deletes segments for epochs strictly older than `keep_from_epoch`.
void prune_wal_segments(const std::string& dir, u32 keep_from_epoch);

}  // namespace prio::store
