// Seeded fault injection for the durability substrate and the mesh.
//
// A FaultPlan is a small schedule of I/O faults -- "the 3rd WAL fsync
// returns EIO", "mesh sends 40..47 each stall 15 ms" -- that the chaos
// harness (tools/prio_chaos.cc) derives from its run seed and hands to
// prio_server via --fault-plan. The instrumented seams are the existing
// failure paths the rest of the code already has to survive:
//
//   wal_append  WalWriter::append      kEio: throw (the caller nacks);
//                                      kShortWrite: land a real partial
//                                      record, then take the same
//                                      short-write repair path a full
//                                      disk would.
//   wal_sync    WalWriter::sync        kEio: report false (rotate must
//                                      then keep every older copy).
//   snap_write  SnapshotStore::
//               write_rename           kEio: fail the publish (the prior
//                                      snapshot set stays intact).
//   dir_fsync   fsync_dir              kEio: skip the fsync (best-effort
//                                      by contract; flows must proceed).
//   mesh_send   TcpMeshTransport::
//               send_lane              kDelay: stall the frame arg ms
//                                      (slow peer); kDrop: lose it and
//                                      mark that lane's connection to the
//                                      peer down (partition -- the repair
//                                      barrier takes it from there).
//
// The plan is installed process-wide (install_fault_plan); when none is
// installed the per-seam cost is one relaxed atomic load and a branch, so
// production binaries pay nothing for carrying the hooks.
//
// Spec grammar (the --fault-plan value): rules joined by ';', each
//
//   <op>:<kind>[:key=value[,key=value...]]
//
// with keys `after` (ops of that type to let pass first, default 0),
// `count` (consecutive ops that then fault, default 1), and `arg` (delay
// milliseconds for kDelay, written-byte cap for kShortWrite; `ms` and
// `bytes` are accepted aliases). Example:
//
//   wal_sync:eio:after=2;mesh_send:delay:after=40,count=8,ms=15
#pragma once

#include <atomic>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "util/common.h"

namespace prio::store {

enum class FaultOp : u8 {
  kWalAppend = 0,
  kWalSync,
  kSnapshotWrite,
  kDirFsync,
  kMeshSend,
};
inline constexpr size_t kNumFaultOps = 5;

enum class FaultKind : u8 { kEio, kShortWrite, kDelay, kDrop };

const char* fault_op_name(FaultOp op);
const char* fault_kind_name(FaultKind kind);

struct FaultRule {
  FaultOp op = FaultOp::kWalAppend;
  FaultKind kind = FaultKind::kEio;
  u64 after = 0;  // ops of this type that pass before the rule arms
  u64 count = 1;  // consecutive ops that fault once armed
  u64 arg = 0;    // kDelay: milliseconds; kShortWrite: bytes written
};

// Thread-safe: seams tick from intake threads, lane threads, and the
// mesh's sender concurrently. Faulting is never a hot path, so one mutex
// over the counters is plenty.
class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(std::vector<FaultRule> rules)
      : rules_(std::move(rules)) {}
  // Movable before installation (parse() hands plans around by value);
  // counters start fresh in the destination. Never move an installed plan.
  FaultPlan(FaultPlan&& other) noexcept : rules_(std::move(other.rules_)) {}

  // Parses the spec grammar above; nullopt (with *error set) on any
  // malformed rule. An empty spec is a valid empty plan.
  static std::optional<FaultPlan> parse(const std::string& spec,
                                        std::string* error = nullptr);

  // Counts one operation of `op` and returns the rule that fires on it,
  // if any (first matching rule wins).
  std::optional<FaultRule> tick(FaultOp op);

  // Observability for tests: operations seen / faults fired per op.
  u64 seen(FaultOp op) const;
  u64 fired(FaultOp op) const;

  const std::vector<FaultRule>& rules() const { return rules_; }

 private:
  std::vector<FaultRule> rules_;
  mutable std::mutex mu_;
  u64 seen_[kNumFaultOps] = {};
  u64 fired_[kNumFaultOps] = {};
};

// Process-wide plan the seams consult. The caller keeps ownership and the
// plan must outlive every store/mesh that might tick it; install nullptr
// to disarm. Unset (the default) costs each seam one relaxed load.
void install_fault_plan(FaultPlan* plan);
FaultPlan* installed_fault_plan();

namespace detail {
extern std::atomic<FaultPlan*> g_fault_plan;
}

inline std::optional<FaultRule> fault_tick(FaultOp op) {
  FaultPlan* plan = detail::g_fault_plan.load(std::memory_order_relaxed);
  if (plan == nullptr) return std::nullopt;
  return plan->tick(op);
}

}  // namespace prio::store
