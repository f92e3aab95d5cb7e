// The Recovery Manager: log coordination, abort processing, checkpoints and
// crash recovery (Section 3.2.2).
//
// One Recovery Manager runs per node. It owns the node's log, implements the
// kernel's write-ahead-log hooks (pages cannot reach non-volatile storage
// before their log records do), undoes aborted transactions by following the
// backward chain of their log records, and rebuilds recoverable segments
// after a crash using the two co-existing techniques of Section 2.1.3:
//
//  * Value logging — records carry old/new images; crash recovery is a
//    single backward pass that resets every object to its most recently
//    committed value.
//  * Operation logging — records name an operation and its redo/undo
//    arguments; crash recovery is three passes (analysis, redo, undo),
//    guarded by the sequence numbers the kernel stamps into sector headers.
//    Redo rides the analysis pass's forward read, and undo reads back only
//    as far as the earliest update it rolls back.
//
// Both kinds share one common log, as in TABS.
//
// The backward chain is the per-(sub)transaction undo list: the only record
// of who wrote what. Each update's prev_lsn is the list's previous entry, a
// committed subtransaction's list joins its parent's, and reclamation keeps
// every listed record. One routine (Compensate) writes and applies every
// compensation, for an abort and for recovery's undo pass alike.

#ifndef TABS_RECOVERY_RECOVERY_MANAGER_H_
#define TABS_RECOVERY_RECOVERY_MANAGER_H_

#include <functional>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/node_recycler.h"
#include "src/common/types.h"
#include "src/kernel/node.h"
#include "src/kernel/recoverable_segment.h"
#include "src/log/log_manager.h"

namespace tabs::kernel {
class PageCleaner;
}

namespace tabs::recovery {

// How the analysis pass classifies a top-level transaction.
enum class TxnOutcome {
  kCommitted,  // commit record present
  kAborted,    // abort record present (or implied loser)
  kPrepared,   // prepare record, no outcome: in doubt, awaiting coordinator
  kActive,     // updates but no prepare/commit/abort: a loser
};

// The Transaction Manager's side of crash recovery: the Recovery Manager
// "must pass transaction management records back to the Transaction Manager
// [and] then queries the Transaction Manager to discover the state of the
// transaction" (Section 3.2.2).
class TxnOutcomeSource {
 public:
  virtual ~TxnOutcomeSource() = default;
  virtual void ObserveTxnRecord(const log::LogRecord& rec) = 0;
  virtual TxnOutcome OutcomeOf(const TransactionId& top) = 0;
};

// Per-server callback for operation logging: applies a named operation with
// serialized arguments to the server's segment, stamping writes with
// `apply_lsn`. Redo passes apply (op_name, redo_args); undo applies
// (undo_op_name, undo_args). Application must be deterministic given the
// arguments (the page-sequence-number guard supplies exactly-once replay).
struct OperationHooks {
  std::function<void(const std::string& op_name, std::span<const std::uint8_t> args,
                     Lsn apply_lsn)>
      apply;
};

// An off-line archive of a node's non-volatile storage (Section 2.1.3: "to
// reduce the cost of recovering from disk failures, systems infrequently
// dump the contents of non-volatile storage into an off-line archive";
// media recovery itself is Section 7 future work, implemented here). The
// dump is sharp: segments are flushed and the log forced first, so replaying
// the retained log over the archive reproduces any later state.
struct Archive {
  std::map<SegmentId, std::vector<sim::DiskPage>> segments;
  Lsn dump_lsn = kNullLsn;  // everything ≤ this is reflected in the pages
};

struct RecoveryStats {
  // Recovery's passes: 1 for a value-only log, 3 (analysis, redo, undo)
  // when operations are present, however little of the log each reads.
  int passes = 0;
  int records_scanned = 0;    // records read, summed over every pass
  int values_restored = 0;
  int operations_redone = 0;
  int operations_undone = 0;
  std::vector<TransactionId> in_doubt;  // prepared, awaiting coordinator word
  std::vector<TransactionId> losers;    // active at crash, rolled back
};

class RecoveryManager : public kernel::WriteAheadHooks {
 public:
  explicit RecoveryManager(kernel::Node& node);

  log::LogManager& log() { return log_; }
  sim::Substrate& substrate() { return node_.substrate(); }

  // --- server registration -------------------------------------------------
  void RegisterSegment(const std::string& server, kernel::RecoverableSegment* segment);
  void RegisterOperationHooks(const std::string& server, OperationHooks hooks);
  // Detaches a crashed server: undo and recovery skip its records until a
  // fresh instance re-registers (its on-disk segment is untouched).
  void UnregisterServer(const std::string& server);
  kernel::RecoverableSegment* SegmentOf(const std::string& server) const;

  // Attaches the node's background page cleaner. Registered segments are
  // added to the cleaner (and switched to clean-frame-preferring eviction),
  // and the kernel's first-dirty notifications arm it. Call before servers
  // register; a null (or disabled) cleaner leaves the paper-faithful
  // demand-only write-back behaviour untouched.
  void SetPageCleaner(kernel::PageCleaner* cleaner) { cleaner_ = cleaner; }

  // --- forward processing ---------------------------------------------------
  // Appends a value record (old/new images ≤ one page) and applies the new
  // value to the segment under the record's LSN. The covered pages must be
  // pinned by the caller (the server library's PinAndBuffer/LogAndUnPin).
  Lsn LogValue(const TransactionId& owner, const TransactionId& top,
               const std::string& server, const ObjectId& oid, Bytes old_value,
               Bytes new_value);

  // Appends an operation record and applies it through the server's hook
  // under the returned LSN. The undo pair names the inverse operation.
  Lsn LogOperation(const TransactionId& owner, const TransactionId& top,
                   const std::string& server, const std::string& op_name,
                   std::span<const std::uint8_t> redo_args, const std::string& undo_op_name,
                   std::span<const std::uint8_t> undo_args, std::span<const PageId> pages);

  // Undoes everything `owner` (and its committed subtransactions, which were
  // merged via MergeChild) did, writing compensation records. Used for both
  // transaction abort and independent subtransaction abort (Section 2.1.3).
  void UndoTransaction(const TransactionId& owner);

  // Subtransaction commit: the child's undo list joins the parent's, so a
  // later parent abort rolls the child's updates back too.
  void MergeChild(const TransactionId& child, const TransactionId& parent);
  void ForgetTransaction(const TransactionId& owner);

  // The (sub)transaction's update LSNs in append order (empty if none).
  std::vector<Lsn> UndoListOf(const TransactionId& owner) const;
  // LSN of the owner's first update, or kNullLsn (checkpoint low-point).
  Lsn FirstLsnOf(const TransactionId& owner) const;

  // --- checkpoints & reclamation (checkpoint.cc) ----------------------------
  struct ActiveTxn {
    TransactionId owner;
    TransactionId top;
    bool prepared = false;
    Lsn first_lsn = kNullLsn;
  };
  // Writes a checkpoint record with the active-transaction table and every
  // registered segment's dirty-page table, forces it, and records it as the
  // restart point. Returns the checkpoint's LSN.
  Lsn TakeCheckpoint(const std::vector<ActiveTxn>& active);

  // Log-space reclamation with a *fuzzy* checkpoint: flushes only the dirty
  // pages whose recovery LSNs actually pin the log below the target (oldest
  // first, elevator-ordered — which may still write pages "before they would
  // otherwise be written", Section 3.2.2), checkpoints, and truncates the
  // stable log below the new low-water mark. The mark honours every
  // remaining dirty page's recovery LSN and the first record of every undo
  // list, so segments never need to be fully clean and an abort always
  // finds its records. `target_retained_bytes` is how much log may remain
  // retained; 0 reclaims everything reclaimable (every dirty unpinned page
  // is flushed — the behaviour of explicit Reclaim calls).
  void Reclaim(const std::vector<ActiveTxn>& active) { ReclaimTo(active, 0); }
  void ReclaimTo(const std::vector<ActiveTxn>& active, std::uint64_t target_retained_bytes);

  // Automatic reclamation: when the retained log grows past the watermark
  // fraction of `budget_bytes`, the next update triggers an incremental
  // ReclaimTo aiming at half the budget ("when the system is close to
  // running out of log space", Section 3.2.2). A reclamation that leaves
  // the log at or above the trigger (a pin holds the low-water mark) does
  // not re-trigger until the log has grown by another half budget. The
  // source callback supplies the Transaction Manager's active-transaction
  // table. 0 disables.
  void SetLogSpaceBudget(std::uint64_t budget_bytes,
                         std::function<std::vector<ActiveTxn>()> active_source,
                         double watermark = 1.0) {
    log_budget_bytes_ = budget_bytes;
    active_source_ = std::move(active_source);
    reclaim_watermark_ = watermark;
  }
  int auto_reclaim_count() const { return auto_reclaims_; }

  std::uint64_t StableLogBytesInUse() const { return log_.StableBytesInUse(); }

  // --- archives & media recovery ---------------------------------------------
  // Dumps every registered segment's non-volatile contents (after flushing
  // volatile pages and forcing the log). The log must not be reclaimed past
  // the returned dump_lsn while the archive is the latest one; pass the
  // archive's dump_lsn to SetArchiveLowWaterMark to enforce that.
  Archive DumpArchive();
  void SetArchiveLowWaterMark(Lsn lsn) { archive_low_water_ = lsn; }

  // --- crash recovery --------------------------------------------------------
  // Rebuilds all registered segments from the stable log. Caller must have
  // re-created the volatile stack (fresh segments, re-registered servers)
  // first. `outcomes` replays transaction-management records and answers
  // outcome queries. With `only_server` set, recovery is restricted to that
  // server's records — the Section 7 "recovery of a single server without
  // the recovery of the entire node".
  RecoveryStats Recover(TxnOutcomeSource& outcomes, const std::string* only_server = nullptr);

  // --- kernel hooks (WriteAheadHooks) ----------------------------------------
  void OnFirstDirty(PageId page, Lsn recovery_lsn) override;
  std::uint64_t BeforePageWrite(PageId page, Lsn last_lsn) override;
  void AfterPageWrite(PageId page, bool ok) override;

 private:
  // What the forward pass leaves for the backward ones.
  struct Analysis {
    bool saw_operations = false;
    bool saw_values = false;
    // Ascending: every update not yet compensated of a transaction that
    // neither committed nor prepared.
    std::vector<Lsn> rollback;
  };
  // Implemented in value_recovery.cc / operation_recovery.cc. `only_server`
  // (nullptr = all) restricts which servers' records are applied.
  void RunValueBackwardPass(TxnOutcomeSource& outcomes, Lsn scan_low, RecoveryStats* stats,
                            const std::string* only_server);
  // The forward pass over the whole retained log, shared by both techniques:
  // feeds txn records to `outcomes`, redoes operation records, collects the
  // loser/in-doubt sets and the rollback list, and rebuilds in-doubt undo
  // lists.
  Analysis AnalysisPass(TxnOutcomeSource& outcomes, RecoveryStats* stats,
                        const std::string* only_server);
  // Compensates the operation records of `rollback`, reading back from the
  // end of the log to its earliest entry.
  void UndoPass(std::vector<Lsn> rollback, RecoveryStats* stats);

  // Appends update `rec` with prev_lsn set from its owner's undo list, and
  // adds it to that list.
  Lsn AppendUpdate(log::LogRecord& rec);
  // Writes the compensation of update `rec` and applies it: the before-image
  // of a value record, the inverse of an operation record. Returns false,
  // writing nothing, when rec's server is not registered.
  bool Compensate(const log::LogRecord& rec);

  kernel::RecoverableSegment* SegmentForOid(const std::string& server, const ObjectId& oid);

  void MaybeAutoReclaim();

  kernel::Node& node_;
  log::LogManager log_;
  std::map<std::string, kernel::RecoverableSegment*> segments_;
  std::map<std::string, OperationHooks> op_hooks_;
  kernel::PageCleaner* cleaner_ = nullptr;
  // Volatile per-(sub)transaction undo lists (normal-operation abort), in
  // LSN order. An ended list's node, and its capacity, serve the next
  // transaction: every walk re-finds its list after each compensation.
  using UndoLists = std::unordered_map<TransactionId, std::vector<Lsn>>;
  UndoLists undo_lists_;
  NodeRecycler<UndoLists> undo_nodes_;
  // Every operation record is built here: LogManager::Append serializes it
  // before it returns and never yields, so one record serves every task.
  log::LogRecord op_record_;
  std::uint64_t log_budget_bytes_ = 0;
  double reclaim_watermark_ = 1.0;
  std::function<std::vector<ActiveTxn>()> active_source_;
  int auto_reclaims_ = 0;
  // The automatic trigger sleeps until last_lsn reaches this (kNullLsn:
  // armed at the watermark).
  Lsn reclaim_rearm_lsn_ = kNullLsn;
  bool reclaiming_ = false;
  Lsn archive_low_water_ = kNullLsn;
};

}  // namespace tabs::recovery

#endif  // TABS_RECOVERY_RECOVERY_MANAGER_H_
