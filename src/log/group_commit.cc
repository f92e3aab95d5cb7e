#include "src/log/group_commit.h"

#include <string>

#include "src/sim/fault_injector.h"
#include "src/sim/metrics.h"
#include "src/sim/scheduler.h"
#include "src/sim/substrate.h"

namespace tabs::log {

void GroupCommit::WaitStable(Lsn lsn) {
  sim::Substrate& sub = log_.substrate();
  sim::Scheduler& sched = sub.scheduler();
  sim::SpanGuard span(sub.tracer(), sim::Component::kLog, "gc.wait-stable");
  if (!enabled() || !sched.in_task()) {
    // Legacy per-transaction force: the committer pays the stable write
    // itself. This is the paper-faithful path (window == 0) and the only
    // one reachable outside a task (recovery-time callers).
    log_.Force(lsn);
    return;
  }
  if (log_.durable_lsn() >= lsn) {
    // Someone else's force (an earlier batch, a checkpoint) already covered
    // us — a force fully absorbed, zero additional I/O.
    sub.metrics().CountForceAbsorbed();
    return;
  }
  if (pending_ == 0) {
    // First member opens the batch and schedules its flusher one window
    // out. The flusher carries the batch's generation so it becomes a
    // no-op if the batch was flushed early (or absorbed) before it fires.
    std::uint64_t gen = generation_;
    sched.Spawn("group-commit", node_, sched.Now() + window_us_,
                [this, gen] { FlushBatch(gen); });
  }
  ++pending_;
  if (pending_ >= kMaxBatch) {
    // Batch is full: the arriving member flushes on behalf of everyone
    // rather than letting latency accumulate until the timer fires.
    FlushBatch(generation_);
  }
  log_.WaitDurable(lsn);
}

void GroupCommit::FlushBatch(std::uint64_t generation) {
  if (generation != generation_ || pending_ == 0) {
    return;  // stale timer: this batch was already flushed (or never formed)
  }
  int batch = pending_;
  // Close the batch *before* the force's I/O yield: members arriving while
  // the disk spins must open a fresh batch (with its own flusher) instead of
  // joining one whose write has already been cut.
  pending_ = 0;
  ++generation_;
  ++batches_;
  if (batch > largest_batch_) {
    largest_batch_ = batch;
  }
  sim::Substrate& sub = log_.substrate();
  sim::SpanGuard span(sub.tracer(), sim::Component::kLog, "gc.flush",
                      sub.tracer().enabled() ? "batch=" + std::to_string(batch)
                                             : std::string());
  // One member's force covers the whole batch: all but one stable write are
  // absorbed.
  if (batch > 1) {
    sub.metrics().CountForceAbsorbed(batch - 1);
  }
  if (sub.tracer().enabled()) {
    sim::Scheduler& sched = sub.scheduler();
    sub.tracer().Record(sched.Now(), node_, "group-commit-flush",
                        "batch=" + std::to_string(batch));
  }
  // Forcing is commit processing regardless of which task's clock pays for
  // it (the timer flusher is not inside any transaction's phase).
  sim::PhaseScope phase(sub.metrics(), sim::Phase::kCommit);
  // The window where a batch is closed but its members' records are still
  // volatile: a crash here loses every commit in the batch at once.
  FAULT_POINT(sub, "gc.flush.before_force");
  log_.ForceAll();  // wakes every WaitDurable waiter it covered
  FAULT_POINT(sub, "gc.flush.after_force");
}

}  // namespace tabs::log
