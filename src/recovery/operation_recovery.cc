// The forward pass shared by both recovery algorithms, and the
// operation-logging undo pass.
//
// Operation logging buys multi-page records, more concurrency, and less log
// space, at the price of "three passes over the log during crash recovery,
// instead of the single pass needed for the value-based algorithm"
// (Section 2.1.3). Each of the three passes reads only the log it needs:
//
//  pass 1 (analysis) — forward over the retained log: replay transaction-
//    management records into the Transaction Manager, classify every
//    top-level transaction, find the losers and the in-doubt (prepared) set.
//  pass 2 (redo) — rides pass 1's reads: repeat history. An operation (or
//    compensation) is re-applied iff some page it touches carries a sector
//    sequence number older than the record's LSN — the kernel's atomically-
//    stamped sequence number is exactly the guard that makes non-idempotent
//    operations safe to replay (Section 3.2.1), and it needs nothing the
//    analysis computes.
//  pass 3 (undo) — backward from the end of the log, only when pass 1 left
//    a rollback list, and only down to its earliest update: compensate every
//    operation record in the list through the routine abort uses, writing
//    compensation records whose undo_next pointers make the undo itself
//    restartable.
//
// The rollback list holds every update not yet compensated of a transaction
// that neither committed nor prepared. An aborted transaction is in it too:
// its abort skipped the records of a server that had crashed on its own.

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "src/recovery/recovery_manager.h"

namespace tabs::recovery {

using log::LogRecord;
using log::RecordType;

RecoveryManager::Analysis RecoveryManager::AnalysisPass(TxnOutcomeSource& outcomes,
                                                        RecoveryStats* stats,
                                                        const std::string* only_server) {
  Analysis result;

  // Transactions seen with updates or a prepare record, in first-contact
  // order, plus each owner's updates not compensated before the crash (for
  // rebuilding in-doubt undo lists and the rollback list). A relay node
  // whose subtree wrote but which wrote nothing itself has only its prepare
  // record here, and is in doubt too.
  std::vector<TransactionId> tops;
  std::unordered_set<TransactionId> seen_tops;
  auto note_top = [&](const TransactionId& top) {
    if (seen_tops.insert(top).second) {
      tops.push_back(top);
    }
  };
  std::unordered_map<TransactionId, std::vector<Lsn>> update_lsns_by_owner;
  std::unordered_map<TransactionId, std::vector<TransactionId>> owners_by_top;

  // Redo's sequence numbers are read from disk once per page and then
  // tracked as redo progresses (redone effects live in volatile frames until
  // the final flush re-stamps the sectors).
  std::unordered_map<PageId, std::uint64_t> page_seq;
  auto redo = [&](const LogRecord& rec) {
    kernel::RecoverableSegment* seg = SegmentOf(rec.server);
    auto hooks = op_hooks_.find(rec.server);
    if (seg == nullptr || hooks == op_hooks_.end()) {
      return;
    }
    bool needs_redo = false;
    for (const PageId& page : rec.pages) {
      auto it = page_seq.find(page);
      if (it == page_seq.end()) {
        it = page_seq.emplace(page, seg->DiskSequenceNumber(page.page)).first;
      }
      if (it->second < rec.lsn) {
        needs_redo = true;
      }
    }
    if (!needs_redo) {
      return;
    }
    hooks->second.apply(rec.op_name, rec.redo_args, rec.lsn);
    for (const PageId& page : rec.pages) {
      page_seq[page] = rec.lsn;
    }
    ++stats->operations_redone;
  };

  for (Lsn lsn = log_.first_lsn(); lsn != kNullLsn; lsn = log_.NextLsn(lsn)) {
    auto rec = log_.ReadRecord(lsn);
    if (!rec.has_value()) {
      break;  // torn tail: everything durable ends here
    }
    ++stats->records_scanned;
    switch (rec->type) {
      case RecordType::kTxnPrepare:
        if (only_server == nullptr) {
          note_top(rec->top);  // single-server recovery re-creates no relay
        }
        outcomes.ObserveTxnRecord(*rec);
        break;
      case RecordType::kTxnCommit:
      case RecordType::kTxnAbort:
      case RecordType::kTxnEnd:
      case RecordType::kSubtxnCommit:
      case RecordType::kNodeEpoch:
      case RecordType::kPaxosPromise:
      case RecordType::kPaxosAccept:
      case RecordType::kPaxosLearn:
        outcomes.ObserveTxnRecord(*rec);
        break;
      case RecordType::kOperationUpdate:
      case RecordType::kOpCompensation:
      case RecordType::kValueUpdate:
      case RecordType::kCompensation: {
        (rec->IsValueStyle() ? result.saw_values : result.saw_operations) = true;
        if (only_server != nullptr && rec->server != *only_server) {
          break;  // another (live) server's record: not ours to recover
        }
        if (!rec->IsValueStyle()) {
          redo(*rec);
        }
        note_top(rec->top);
        auto [entry, first_sight] = update_lsns_by_owner.try_emplace(rec->owner);
        if (first_sight) {
          owners_by_top[rec->top].push_back(rec->owner);
        }
        std::vector<Lsn>& owner_lsns = entry->second;
        if (rec->IsCompensation()) {
          // The owner's updates above undo_next were rolled back before the
          // crash.
          while (!owner_lsns.empty() && owner_lsns.back() > rec->undo_next_lsn) {
            owner_lsns.pop_back();
          }
        } else {
          owner_lsns.push_back(lsn);
        }
        break;
      }
      case RecordType::kCheckpoint:
        break;  // full-scan recovery; checkpoints drive reclamation only
    }
  }

  // A top's updates not yet compensated, from every owner under it.
  auto append_updates = [&](const TransactionId& top, std::vector<Lsn>& out) {
    for (const TransactionId& owner : owners_by_top[top]) {
      const std::vector<Lsn>& lsns = update_lsns_by_owner[owner];
      out.insert(out.end(), lsns.begin(), lsns.end());
    }
  };
  for (const TransactionId& top : tops) {
    switch (outcomes.OutcomeOf(top)) {
      case TxnOutcome::kActive:
        stats->losers.push_back(top);
        append_updates(top, result.rollback);
        break;
      case TxnOutcome::kAborted:
        append_updates(top, result.rollback);
        break;
      case TxnOutcome::kPrepared: {
        stats->in_doubt.push_back(top);
        if (only_server != nullptr) {
          break;  // the node is alive: its undo lists are already current
        }
        // Rebuild the undo list so a later coordinator "abort" verdict can
        // unwind this in-doubt transaction through the normal path.
        std::vector<Lsn> merged;
        append_updates(top, merged);
        std::sort(merged.begin(), merged.end());
        undo_lists_[top] = std::move(merged);
        break;
      }
      case TxnOutcome::kCommitted:
        break;
    }
  }
  std::sort(result.rollback.begin(), result.rollback.end());
  return result;
}

void RecoveryManager::UndoPass(std::vector<Lsn> rollback, RecoveryStats* stats) {
  for (Lsn lsn = log_.LastDurableLsn(); lsn != kNullLsn && !rollback.empty();
       lsn = log_.PrevLsn(lsn)) {
    auto rec = log_.ReadRecord(lsn);
    if (!rec.has_value()) {
      break;
    }
    ++stats->records_scanned;
    if (lsn != rollback.back()) {
      continue;
    }
    rollback.pop_back();
    // Value records of the list are the value pass's to restore.
    if (rec->type == RecordType::kOperationUpdate && Compensate(*rec)) {
      ++stats->operations_undone;
    }
  }
}

}  // namespace tabs::recovery
