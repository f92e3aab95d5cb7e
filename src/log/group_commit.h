// Group commit: one stable log write per *batch* of committing transactions.
//
// The paper's TABS forces the log once per committing transaction (the
// Section 5.2 tables charge every commit a stable write). Section 5.3's
// "Improved architecture" observes that forces dominate commit latency and
// proposes taking them off the per-transaction path; group commit is the
// classic realisation. A transaction that needs its records stable no longer
// calls Force itself — it registers its LSN with the per-node GroupCommit
// daemon and blocks. The daemon flushes the whole buffer once per batch
// window (or earlier, when kMaxBatch members have joined), and a single Force
// wakes every member whose LSN it covered.
//
// With window == 0 the daemon is disabled and WaitStable degenerates to an
// immediate Force — byte-identical to the paper-faithful per-transaction
// behaviour, so all regenerated table_5_* numbers are preserved.

#ifndef TABS_LOG_GROUP_COMMIT_H_
#define TABS_LOG_GROUP_COMMIT_H_

#include <cstdint>

#include "src/common/types.h"
#include "src/log/log_manager.h"

namespace tabs::log {

class GroupCommit {
 public:
  // A batch flushes early when it reaches this many members.
  static constexpr int kMaxBatch = 32;

  // window_us <= 0 disables batching (legacy per-transaction force).
  GroupCommit(NodeId node, LogManager& log, SimTime window_us)
      : node_(node), log_(log), window_us_(window_us) {}
  GroupCommit(const GroupCommit&) = delete;
  GroupCommit& operator=(const GroupCommit&) = delete;

  bool enabled() const { return window_us_ > 0; }
  SimTime window_us() const { return window_us_; }

  // Blocks the calling task until everything through `lsn` is on the stable
  // device. Disabled (or outside a task): forces immediately, exactly like
  // the old code path. Enabled: joins the open batch (opening one, and
  // scheduling its flusher `window_us` out, if none is open), flushes
  // eagerly if the batch just filled, then waits on the log's durable
  // frontier. Safe across CrashNode: a killed waiter unwinds via TaskKilled
  // before observing stability, and a killed flusher never runs.
  void WaitStable(Lsn lsn);

  // Flush statistics (for benches and the batch-determinism test).
  std::uint64_t batches() const { return batches_; }
  int largest_batch() const { return largest_batch_; }

 private:
  void FlushBatch(std::uint64_t generation);

  NodeId node_;
  LogManager& log_;
  SimTime window_us_;
  // Membership of the currently open batch. The generation counter lets a
  // timer-spawned flusher detect that its batch was already flushed early
  // (or that it fired for a batch that a checkpoint force absorbed).
  int pending_ = 0;
  std::uint64_t generation_ = 0;
  std::uint64_t batches_ = 0;
  int largest_batch_ = 0;
};

}  // namespace tabs::log

#endif  // TABS_LOG_GROUP_COMMIT_H_
