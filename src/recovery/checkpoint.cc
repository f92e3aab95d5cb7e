// Checkpoints and log-space reclamation (Section 3.2.2).
//
// "At checkpoint time, a list of the pages currently in volatile storage and
// the status of currently active transactions are written to the log."
// Checkpoints bound how much log must survive: everything below the oldest
// of (the checkpoint itself, the first record of any active transaction or
// of any undo list the Recovery Manager holds, the recovery LSN of any dirty
// page) can be reclaimed. When the system nears
// the end of its log space, the Recovery Manager "runs a reclamation
// algorithm... [which] may force pages back to disk before they would
// otherwise be written."

#include <algorithm>

#include "src/recovery/recovery_manager.h"
#include "src/sim/fault_injector.h"

namespace tabs::recovery {

using log::LogRecord;
using log::RecordType;

Lsn RecoveryManager::TakeCheckpoint(const std::vector<ActiveTxn>& active) {
  sim::SpanGuard span(node_.substrate().tracer(), sim::Component::kRecoveryManager,
                      "rm.checkpoint");
  ByteWriter w;
  w.U32(static_cast<std::uint32_t>(active.size()));
  for (const ActiveTxn& t : active) {
    w.Tid(t.owner);
    w.Tid(t.top);
    w.U8(t.prepared ? 1 : 0);
    w.U64(t.first_lsn);
  }
  std::uint32_t dirty_total = 0;
  ByteWriter dirty;
  for (const auto& [name, seg] : segments_) {
    for (const kernel::RecoverableSegment::DirtyPage& d : seg->DirtyPages()) {
      dirty.U32(seg->id());
      dirty.U32(d.page);
      dirty.U64(d.recovery_lsn);
      ++dirty_total;
    }
  }
  w.U32(dirty_total);
  const Bytes& db = dirty.bytes();
  w.Blob(db);

  LogRecord rec;
  rec.type = RecordType::kCheckpoint;
  rec.checkpoint_data = w.Take();
  // The checkpoint's view of active transactions and dirty pages is
  // collected but not yet in the log: a crash here must leave the previous
  // checkpoint authoritative.
  FAULT_POINT(node_.substrate(), "checkpoint.before_append");
  Lsn lsn = log_.Append(rec);
  // This force also covers any commit records a group-commit batch has
  // appended but not yet flushed: it advances the durable frontier and wakes
  // their WaitDurable waiters, whose (now stale) batch flusher then no-ops.
  // Blocked committers therefore never wait longer because a checkpoint
  // intervened — they finish earlier, their forces absorbed by this one.
  log_.ForceAll();
  FAULT_POINT(node_.substrate(), "checkpoint.after_force");
  return lsn;
}

void RecoveryManager::ReclaimTo(const std::vector<ActiveTxn>& active,
                                std::uint64_t target_retained_bytes) {
  sim::SpanGuard span(node_.substrate().tracer(), sim::Component::kRecoveryManager,
                      "rm.reclaim");
  // The checkpoint is fuzzy: segments need not be clean. Only pages whose
  // recovery LSNs would hold the low-water mark below the target get
  // flushed — oldest dirt first, and only that dirt. LSNs are 1 + the byte
  // offset in the log stream, so "retain at most N bytes" translates
  // directly into the lowest LSN allowed to stay pinned.
  Lsn target_low;
  if (target_retained_bytes == 0 || log_.last_lsn() <= target_retained_bytes) {
    target_low = log_.last_lsn() + 1;  // reclaim everything reclaimable
  } else {
    target_low = log_.last_lsn() - target_retained_bytes;
  }
  // A crash mid-reclamation must be harmless at every stage: before the
  // flushes (nothing changed), after flushes but before the checkpoint and
  // truncation (pages are just cleaner than required), and after truncation
  // (only reclaimable records were cut).
  FAULT_POINT(node_.substrate(), "reclaim.before_flush");
  for (auto& [name, seg] : segments_) {
    // One elevator sweep per segment: ascending disk addresses, so
    // contiguous dirty runs go out as cheap sequential writes. Pinned pages
    // are written too (not stolen): reclamation often fires from inside the
    // very update whose page is pinned, and frames only ever hold logged
    // modifications, so the WAL gate alone orders the write.
    std::vector<PageNumber> sweep;
    for (const kernel::RecoverableSegment::DirtyPage& d : seg->DirtyPages()) {
      if (d.recovery_lsn < target_low) {
        sweep.push_back(d.page);
      }
    }
    // DirtyPages is page-ordered already; the reclamation flushes are
    // foreground work — the triggering transaction waits.
    seg->FlushPages(sweep, /*background=*/false, /*write_pinned=*/true);
  }
  Lsn checkpoint_lsn = TakeCheckpoint(active);

  Lsn low = checkpoint_lsn;
  for (const ActiveTxn& t : active) {
    if (t.first_lsn != kNullLsn) {
      low = std::min(low, t.first_lsn);
    }
  }
  // Every update an abort may still compensate stays readable, including a
  // remote subtransaction's, which the Transaction Manager files under its
  // top-level entry.
  for (const auto& [owner, list] : undo_lists_) {
    if (!list.empty()) {
      low = std::min(low, list.front());
    }
  }
  // Fuzzy checkpoint: every page still dirty pins the log at its recovery
  // LSN (its committed contents may exist only as log records above it).
  for (auto& [name, seg] : segments_) {
    for (const kernel::RecoverableSegment::DirtyPage& d : seg->DirtyPages()) {
      low = std::min(low, d.recovery_lsn);
    }
  }
  // Media recovery needs the log from the last archive dump onward.
  if (archive_low_water_ != kNullLsn) {
    low = std::min(low, archive_low_water_);
  }
  FAULT_POINT(node_.substrate(), "reclaim.before_truncate");
  if (low > log_.first_lsn()) {
    log_.device().TruncateBefore(low - 1);
  }
  FAULT_POINT(node_.substrate(), "reclaim.after_truncate");
}

Archive RecoveryManager::DumpArchive() {
  Archive archive;
  for (auto& [name, seg] : segments_) {
    seg->FlushAll();
  }
  log_.ForceAll();
  archive.dump_lsn = log_.LastDurableLsn();
  for (auto& [name, seg] : segments_) {
    auto& pages = archive.segments[seg->id()];
    for (PageNumber p = 0; p < seg->page_count(); ++p) {
      pages.push_back(node_.disk().PeekPage({seg->id(), p}));
      // Reading a page into the archive is sequential disk traffic.
      node_.substrate().Charge(sim::Primitive::kSequentialRead);
    }
  }
  return archive;
}

}  // namespace tabs::recovery
