// Primitive-operation cost models.
//
// The paper's performance methodology (Section 5.1) expresses every
// transaction's latency as a weighted sum of nine primitive operations. This
// file captures those primitives and the three cost configurations used by
// the evaluation:
//   * Baseline()    — the measured Perq T2 times of Table 5-1.
//   * Achievable()  — the projected times of Table 5-5 (tuned software,
//                     dedicated logging disks, near-memory stable storage).
//   * the Improved-TABS-Architecture *flags* (merged TM/RM into the kernel,
//     optimized commit) are orthogonal to the per-primitive times and live in
//     ArchitectureModel below; Table 5-4's "Improved TABS Architecture"
//     column is Baseline() times + improved architecture, and its "New
//     Primitive Times" column is Achievable() times + improved architecture.

#ifndef TABS_SIM_COST_MODEL_H_
#define TABS_SIM_COST_MODEL_H_

#include <array>
#include <string>

#include "src/common/types.h"

namespace tabs::sim {

// The paper's nine primitives, plus kSequentialWrite — an extension beyond
// Table 5-1 used by the background page cleaner: a data-page write whose disk
// address continues an elevator-ordered sweep, so the arm does not seek. It
// is never charged on the paper-faithful paths (all demand write-backs remain
// random-access), which keeps every regenerated table byte-identical.
enum class Primitive {
  kDataServerCall = 0,       // local RPC application -> data server
  kInterNodeDataServerCall,  // session-based remote RPC
  kDatagram,                 // transaction-management datagram
  kSmallMessage,             // local Accent message, < 500 bytes
  kLargeMessage,             // local Accent message, ~1100 bytes
  kPointerMessage,           // copy-on-write remapped message
  kRandomPageIo,             // demand-paged random read or read/write pair
  kSequentialRead,           // demand-paged sequential read
  kStableWrite,              // force one page of log data to the log device
  kSequentialWrite,          // elevator-ordered write-back, no seek (extension)
  kCount,
};

constexpr int kPrimitiveCount = static_cast<int>(Primitive::kCount);

const char* PrimitiveName(Primitive p);

struct CostModel {
  // Times in microseconds, indexed by Primitive.
  std::array<SimTime, kPrimitiveCount> time_us{};

  // TABS process CPU time (Section 5.2's accounting): latency the system
  // processes add on top of the primitive operations. Charged to the clock
  // but never counted as a primitive — exactly how the paper reconciles its
  // predicted and measured columns. A local read-only transaction spends
  // 41 ms in TABS system processes plus ~7 ms in application/data server
  // setup plus the 9 ms the paper's analysis "does not account for"; writes
  // add TM commit work (24 ms), RM spooling and commit processing (18 ms),
  // and data-server log formatting (9 ms) less the paper's suspected
  // double-count. Participant-side figures are fitted to the measured
  // two/three-node rows. Identical across Baseline and Achievable: the
  // paper's projections assume no faster CPU (Section 5.3).
  SimTime coordinator_overhead_us = 57'000;
  SimTime coordinator_write_extra_us = 33'000;
  SimTime participant_read_overhead_us = 180'000;
  SimTime participant_prepare_overhead_us = 240'000;
  SimTime participant_commit_overhead_us = 105'000;

  SimTime Of(Primitive p) const { return time_us[static_cast<int>(p)]; }
  SimTime& Of(Primitive p) { return time_us[static_cast<int>(p)]; }

  // Table 5-1: measured primitive times on the Perq T2 (milliseconds there).
  static CostModel Baseline();
  // Table 5-5: achievable primitive times after tuning and added disks.
  static CostModel Achievable();
};

// Structural variants of TABS explored by Section 5.3.
struct ArchitectureModel {
  // The "Improved TABS Architecture", whose two changes Section 5.3 projects
  // together. The Recovery Manager and Transaction Manager are merged with
  // the kernel: local messages between application/data-server and TM/RM
  // are eliminated, and one prepare message does the work of two
  // (Substrate::ChargeSystemMessage). And commit is optimized: commit
  // processing of distributed write transactions overlaps successor
  // transactions, so the second commit phase leaves the latency-critical
  // path (TransactionManager::CommitSubtree).
  bool improved = false;

  static ArchitectureModel Prototype() { return {}; }
  static ArchitectureModel Improved() { return {.improved = true}; }
};

}  // namespace tabs::sim

#endif  // TABS_SIM_COST_MODEL_H_
