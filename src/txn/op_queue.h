// Queue-oriented execution for hot objects: commit-dependency tracking for
// early lock release.
//
// The hot-spot throughput wall (ROADMAP, BENCH_throughput.json) is lock hold
// time: under two-phase locking a writer holds its update lock across the
// commit record's log *force*, so at most one hot-object transaction commits
// per group-commit window. Queue-oriented execution (after "A Queue-oriented
// Transaction Processing Paradigm", PAPERS.md) releases update locks as soon
// as the commit/prepare record is *appended* — before it is durable — and
// admits the next queued transaction immediately. Successors pipeline into
// the group-commit window in arrival order; the force is amortized over the
// whole queue instead of serializing it.
//
// Early release is safe in two different regimes, and this class tracks the
// difference:
//
//  * Root commit (the outcome is already decided, only durability is
//    pending): the node's WAL is forced strictly in LSN order, so a
//    successor's durable commit record implies the predecessor's. No
//    dependency is needed — the release is NOT a taint.
//
//  * In-doubt release (a participant released after appending its *prepare*
//    record; the outcome is still undecided): a successor that touches the
//    released object has read uncommitted state. The grant records a commit
//    dependency — the successor may not append its own prepare/commit record
//    until every such predecessor decides. If a predecessor aborts, the
//    abort cascades to exactly the queued successors (never to a durable
//    transaction: a successor with an undischarged dependency cannot have
//    logged its outcome yet, by construction).
//
// All state here is volatile and keyed by top-level transaction id; a crash
// wipes it together with the transactions it describes (in-doubt ones are
// re-locked by PostRecovery exactly as without queue mode).
//
// Everything is deterministic: std::map/std::set keyed by TransactionId /
// ObjectId give a fixed iteration order, and wake-ups ride the simulator's
// FIFO wait queues.

#ifndef TABS_TXN_OP_QUEUE_H_
#define TABS_TXN_OP_QUEUE_H_

#include <map>
#include <set>
#include <vector>

#include "src/common/result.h"
#include "src/common/types.h"
#include "src/sim/scheduler.h"

namespace tabs::txn {

class OpQueue {
 public:
  void Attach(sim::Scheduler* sched) { sched_ = sched; }
  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // An in-doubt early release: `top` appended (but has not forced) its
  // prepare record and released its locks on `oids`. Each object is tainted
  // until `top` decides.
  void NoteEarlyRelease(const TransactionId& top, const std::vector<ObjectId>& oids);

  // A lock on `oid` was granted to (a subtransaction of) `top`: record a
  // commit dependency on every undecided tainter of `oid`. Invoked through
  // the lock manager's grant sink on every grant path.
  void NoteAccess(const TransactionId& top, const ObjectId& oid);

  // True while any tainter of `oid` is mid-abort. The lock manager consults
  // this before every grant: a request admitted during the predecessor's
  // undo window could read half-rolled-back state, so it parks as a waiter
  // until FinishAbort lifts the veto and the regrant sweep runs.
  bool GrantVetoed(const ObjectId& oid) const;

  // Blocks until every commit dependency of `top` is discharged (kOk) or
  // `timeout` virtual time passes (kTimeout). Called before a transaction
  // appends its own prepare/commit record; the caller must re-resolve its
  // transaction entry afterwards — a cascade abort may have consumed it
  // while it slept. `top` is taken by value for the same reason: callers pass
  // a field of that entry, which the cascade may erase during the wait.
  Status AwaitPredecessors(TransactionId top, SimTime timeout);

  // `top` decided commit: clear its taints and discharge its dependents.
  void NoteCommitted(const TransactionId& top);

  // Abort protocol: BeginAbort arms the grant veto for `top`'s taints,
  // TakeDependents drains the successors to cascade (sorted, deterministic),
  // FinishAbort clears taints/veto and wakes anything parked on `top`.
  void BeginAbort(const TransactionId& top);
  std::vector<TransactionId> TakeDependents(const TransactionId& top);
  void FinishAbort(const TransactionId& top);

  // Leak observability for tests: wait queues of transactions parked in
  // AwaitPredecessors (must drain to zero once every wait has returned).
  size_t WaitQueueCount() const { return waiters_.size(); }

 private:
  void Discharge(const TransactionId& dependent, const TransactionId& predecessor);
  // Removes `top` from the tail of every object it tainted.
  void ClearTaints(const TransactionId& top);

  bool enabled_ = false;
  sim::Scheduler* sched_ = nullptr;
  // Undecided early-releasers per object, in release order.
  std::map<ObjectId, std::vector<TransactionId>> tails_;
  // Reverse view: objects tainted per early-releaser.
  std::map<TransactionId, std::set<ObjectId>> tainted_oids_;
  // dependent -> undecided predecessors it must await.
  std::map<TransactionId, std::set<TransactionId>> deps_;
  // predecessor -> dependents to cascade on abort / wake on commit.
  std::map<TransactionId, std::set<TransactionId>> dependents_;
  // Transactions whose abort is in progress (grant veto armed).
  std::set<TransactionId> aborting_;
  // One queue per awaiting transaction (AwaitPredecessors).
  std::map<TransactionId, sim::WaitQueue> waiters_;
};

}  // namespace tabs::txn

#endif  // TABS_TXN_OP_QUEUE_H_
