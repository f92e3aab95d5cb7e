#include "src/recovery/recovery_manager.h"

#include <algorithm>
#include <cassert>

#include "src/kernel/page_cleaner.h"

namespace tabs::recovery {

using log::LogRecord;
using log::RecordType;

RecoveryManager::RecoveryManager(kernel::Node& node)
    : node_(node), log_(node.substrate(), node.stable_log()) {}

void RecoveryManager::RegisterSegment(const std::string& server,
                                      kernel::RecoverableSegment* segment) {
  segments_[server] = segment;
  segment->SetHooks(this);
  if (cleaner_ != nullptr && cleaner_->enabled()) {
    cleaner_->AddSegment(segment);
    // The cleaner keeps clean frames available; make eviction prefer them so
    // page faults stop paying synchronous write-backs.
    segment->set_prefer_clean_eviction(true);
  }
}

void RecoveryManager::RegisterOperationHooks(const std::string& server, OperationHooks hooks) {
  op_hooks_[server] = std::move(hooks);
}

void RecoveryManager::UnregisterServer(const std::string& server) {
  auto it = segments_.find(server);
  if (it != segments_.end() && cleaner_ != nullptr) {
    cleaner_->RemoveSegment(it->second);
  }
  segments_.erase(server);
  op_hooks_.erase(server);
}

kernel::RecoverableSegment* RecoveryManager::SegmentOf(const std::string& server) const {
  auto it = segments_.find(server);
  return it == segments_.end() ? nullptr : it->second;
}

kernel::RecoverableSegment* RecoveryManager::SegmentForOid(const std::string& server,
                                                           const ObjectId& oid) {
  kernel::RecoverableSegment* seg = SegmentOf(server);
  assert(seg != nullptr && "value record for unregistered server");
  assert(seg->id() == oid.segment && "ObjectId names a different segment");
  return seg;
}

Lsn RecoveryManager::LogValue(const TransactionId& owner, const TransactionId& top,
                              const std::string& server, const ObjectId& oid,
                              Bytes old_value, Bytes new_value) {
  assert(old_value.size() == oid.length && new_value.size() == oid.length);
  assert(oid.length <= kPageSize && "value records hold at most one page");
  sim::SpanGuard span(node_.substrate().tracer(), sim::Component::kRecoveryManager,
                      "rm.log-value");
  LogRecord rec;
  rec.type = RecordType::kValueUpdate;
  rec.owner = owner;
  rec.top = top;
  rec.server = server;
  rec.oid = oid;
  rec.old_value = std::move(old_value);
  rec.new_value = std::move(new_value);
  Lsn lsn = AppendUpdate(rec);
  // Apply to volatile storage under the record's LSN: write-ahead ordering is
  // then enforced by the page-out gate (BeforePageWrite forces through LSN).
  SegmentForOid(server, oid)->Write(oid, rec.new_value, lsn);
  MaybeAutoReclaim();
  return lsn;
}

void RecoveryManager::MaybeAutoReclaim() {
  if (log_budget_bytes_ == 0 || reclaiming_ || !active_source_ ||
      log_.last_lsn() < reclaim_rearm_lsn_) {
    return;
  }
  auto in_use = [this] {
    return log_.StableBytesInUse() + (log_.last_lsn() - log_.durable_lsn());
  };
  std::uint64_t trigger =
      static_cast<std::uint64_t>(static_cast<double>(log_budget_bytes_) * reclaim_watermark_);
  if (in_use() < trigger) {
    return;
  }
  reclaiming_ = true;  // Reclaim itself appends records; don't recurse
  // Incremental: reclaim down to half the budget instead of flushing every
  // segment clean — the pages whose recovery LSNs sit above the target keep
  // their dirt (the background cleaner will get to them).
  ReclaimTo(active_source_(), log_budget_bytes_ / 2);
  reclaiming_ = false;
  ++auto_reclaims_;
  // Still at or above the trigger: something below the target pins the low-
  // water mark (an active transaction's first record, a prepared entry, an
  // undecided Paxos instance), and a repeat before the log grows would free
  // nothing. Hold off for another half budget, what a reclamation that
  // reaches its target frees; one that reaches it re-arms at the watermark.
  reclaim_rearm_lsn_ = in_use() < trigger ? kNullLsn : log_.last_lsn() + log_budget_bytes_ / 2;
}

Lsn RecoveryManager::LogOperation(const TransactionId& owner, const TransactionId& top,
                                  const std::string& server, const std::string& op_name,
                                  std::span<const std::uint8_t> redo_args,
                                  const std::string& undo_op_name,
                                  std::span<const std::uint8_t> undo_args,
                                  std::span<const PageId> pages) {
  sim::SpanGuard span(node_.substrate().tracer(), sim::Component::kRecoveryManager,
                      "rm.log-operation");
  // Refilled in place: assign keeps each field's capacity.
  LogRecord& rec = op_record_;
  rec.type = RecordType::kOperationUpdate;
  rec.owner = owner;
  rec.top = top;
  rec.server = server;
  rec.op_name = op_name;
  rec.redo_args.assign(redo_args.begin(), redo_args.end());
  rec.undo_op_name = undo_op_name;
  rec.undo_args.assign(undo_args.begin(), undo_args.end());
  rec.pages.assign(pages.begin(), pages.end());
  Lsn lsn = AppendUpdate(rec);
  // Apply the operation's effect through the server's dispatcher under the
  // record's LSN (forward processing applies exactly once). The apply may
  // wait on a page fault while another task refills op_record_, so it reads
  // the caller's arguments.
  auto hooks = op_hooks_.find(server);
  assert(hooks != op_hooks_.end() && hooks->second.apply &&
         "operation logging requires registered hooks");
  hooks->second.apply(op_name, redo_args, lsn);
  MaybeAutoReclaim();
  return lsn;
}

Lsn RecoveryManager::AppendUpdate(LogRecord& rec) {
  std::vector<Lsn>& list = undo_nodes_.Get(undo_lists_, rec.owner)->second;
  rec.prev_lsn = list.empty() ? kNullLsn : list.back();
  Lsn lsn = log_.Append(rec);
  list.push_back(lsn);
  return lsn;
}

bool RecoveryManager::Compensate(const LogRecord& rec) {
  kernel::RecoverableSegment* seg = SegmentOf(rec.server);
  if (seg == nullptr) {
    // The server crashed independently: its volatile state is gone and no
    // compensation is written now. Its single-server recovery rolls this
    // record back from the log.
    return false;
  }
  // A compensation belongs to the owner of the record it compensates, which
  // is a merged subtransaction when an ancestor inherited that record:
  // analysis trims that owner's updates down to undo_next.
  LogRecord comp;
  comp.owner = rec.owner;
  comp.top = rec.top;
  comp.undo_next_lsn = rec.prev_lsn;
  comp.server = rec.server;
  if (rec.type == RecordType::kValueUpdate) {
    comp.type = RecordType::kCompensation;
    comp.oid = rec.oid;
    comp.old_value = rec.new_value;
    comp.new_value = rec.old_value;
    Lsn comp_lsn = log_.Append(comp);
    seg->Pin(rec.oid);
    seg->Write(rec.oid, rec.old_value, comp_lsn);
    seg->Unpin(rec.oid);
    return true;
  }
  assert(rec.type == RecordType::kOperationUpdate && "compensating a non-update record");
  // The compensation's redo *is* the original's undo: replaying it after a
  // crash re-applies the inverse operation.
  comp.type = RecordType::kOpCompensation;
  comp.op_name = rec.undo_op_name;
  comp.redo_args = rec.undo_args;
  comp.pages = rec.pages;
  Lsn comp_lsn = log_.Append(comp);
  auto hooks = op_hooks_.find(rec.server);
  assert(hooks != op_hooks_.end() && hooks->second.apply &&
         "operation record for server without hooks");
  hooks->second.apply(rec.undo_op_name, rec.undo_args, comp_lsn);
  return true;
}

void RecoveryManager::UndoTransaction(const TransactionId& owner) {
  sim::SpanGuard span(node_.substrate().tracer(), sim::Component::kRecoveryManager, "rm.undo",
                      node_.substrate().tracer().enabled() ? ToString(owner) : std::string());
  // "...the recovery manager follows the backward chain of log records that
  // were written by the transaction and sends messages to the servers
  // instructing them to undo their effects." (Section 3.2.2)
  // The list stays registered while it unwinds: a compensation may wait on
  // paging, and a reclamation that other tasks run meanwhile must keep the
  // records still to undo (hence the lookup after each compensation).
  for (auto it = undo_lists_.find(owner); it != undo_lists_.end() && !it->second.empty();
       it = undo_lists_.find(owner)) {
    auto rec = log_.ReadRecord(it->second.back());
    it->second.pop_back();
    assert(rec.has_value() && "undo-list record vanished before abort finished");
    Compensate(*rec);
  }
  undo_nodes_.Keep(undo_lists_.extract(owner));
}

void RecoveryManager::MergeChild(const TransactionId& child, const TransactionId& parent) {
  auto it = undo_lists_.find(child);
  if (it == undo_lists_.end()) {
    return;
  }
  // A reference, unlike an iterator, survives the parent insertion's rehash.
  const std::vector<Lsn>& child_list = it->second;
  auto& parent_list = undo_nodes_.Get(undo_lists_, parent)->second;
  parent_list.insert(parent_list.end(), child_list.begin(), child_list.end());
  // Keep LSN order so a parent abort unwinds newest-first across children.
  std::sort(parent_list.begin(), parent_list.end());
  undo_nodes_.Keep(undo_lists_.extract(child));
}

void RecoveryManager::ForgetTransaction(const TransactionId& owner) {
  undo_nodes_.Keep(undo_lists_.extract(owner));
}

std::vector<Lsn> RecoveryManager::UndoListOf(const TransactionId& owner) const {
  auto it = undo_lists_.find(owner);
  return it == undo_lists_.end() ? std::vector<Lsn>{} : it->second;
}

Lsn RecoveryManager::FirstLsnOf(const TransactionId& owner) const {
  auto it = undo_lists_.find(owner);
  return it == undo_lists_.end() || it->second.empty() ? kNullLsn : it->second.front();
}

void RecoveryManager::OnFirstDirty(PageId page, Lsn recovery_lsn) {
  // Kernel -> RM: "a page frame backed by a recoverable segment has been
  // modified for the first time". Its message cost is folded into the
  // write-back bundle charged by BeforePageWrite (the paper's counts bill
  // the WAL messages where the transaction actually waits for paging).
  if (cleaner_ != nullptr) {
    cleaner_->NotifyDirty();
  }
}

std::uint64_t RecoveryManager::BeforePageWrite(PageId page, Lsn last_lsn) {
  // The write-back message bundle: first-dirty notification, kernel -> RM
  // write request, RM -> kernel permission — after the log covering the
  // page is safely on stable storage.
  node_.substrate().ChargeSystemMessage(sim::Primitive::kSmallMessage, 3);
  log_.Force(last_lsn);
  // The sequence number the kernel stamps into the sector header is the LSN
  // of the latest record applying to the page (the operation-logging guard).
  return last_lsn;
}

void RecoveryManager::AfterPageWrite(PageId page, bool ok) {
  assert(ok);
  node_.substrate().ChargeSystemMessage(sim::Primitive::kSmallMessage, 1);
}

RecoveryStats RecoveryManager::Recover(TxnOutcomeSource& outcomes,
                                       const std::string* only_server) {
  sim::SpanGuard span(node_.substrate().tracer(), sim::Component::kRecoveryManager,
                      "rm.recover");
  node_.substrate().metrics().CountCrashRecovery();
  RecoveryStats stats;
  const Lsn scan_low = log_.first_lsn();
  // Reading the log costs a sequential read per page of each span a pass
  // reads, up to the end of the stable log: the reason checkpoints "shorten
  // the time to recover after a crash".
  auto pages_from = [end = log_.device().size()](Lsn from) {
    return static_cast<double>((end + 1 - from + kPageSize - 1) / kPageSize);
  };
  Analysis analysis = AnalysisPass(outcomes, &stats, only_server);
  double pages = pages_from(scan_low);
  stats.passes = analysis.saw_operations ? 3 : 1;
  // Three-pass algorithm for operation-logged objects (Section 2.1.3: "it
  // requires three passes over the log during crash recovery"). Redo rode
  // the analysis pass; undo reads back only to the earliest update it rolls
  // back.
  if (analysis.saw_operations && !analysis.rollback.empty()) {
    pages += pages_from(analysis.rollback.front());
    UndoPass(std::move(analysis.rollback), &stats);
  }
  // Single backward pass for value-logged objects: both techniques co-exist
  // in the common log. A value-only log is charged one pass in all, as
  // Section 2.1.3 describes it; beside operations it reads the log again.
  if (!analysis.saw_operations || analysis.saw_values) {
    RunValueBackwardPass(outcomes, scan_low, &stats, only_server);
    pages += analysis.saw_operations ? pages_from(scan_low) : 0;
  }
  node_.substrate().Charge(sim::Primitive::kSequentialRead, pages);
  // Losers are now rolled back; make that outcome durable so a second crash
  // classifies them as aborted immediately. (Single-server recovery writes
  // none: the node is alive and its Transaction Manager owns the outcomes —
  // World::CrashServer aborted every transaction involving the server.)
  if (only_server == nullptr) {
    for (const TransactionId& loser : stats.losers) {
      LogRecord abort_rec;
      abort_rec.type = RecordType::kTxnAbort;
      abort_rec.owner = loser;
      abort_rec.top = loser;
      log_.Append(abort_rec);
    }
  }
  // Settle the rebuilt state onto non-volatile storage so a crash during the
  // next epoch starts from here.
  for (auto& [name, seg] : segments_) {
    seg->FlushAll();
  }
  log_.ForceAll();
  return stats;
}

}  // namespace tabs::recovery
