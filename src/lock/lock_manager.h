// The per-data-server lock manager.
//
// Each TABS data server implements locking locally so it can tailor the
// mechanism (Section 2.1.2); one LockManager instance therefore belongs to
// one server. Deadlock is broken by time-outs explicitly set by system users,
// as in the paper (an optional waits-for-graph detector lives in
// deadlock_detector.h as the R*-style extension the paper cites).
//
// Lock acquisition follows strict two-phase locking: locks accumulate during
// a transaction and are released only at commit or abort by the server
// library (ReleaseAll). When a subtransaction commits, its locks are
// inherited by its parent (InheritToParent) — with respect to
// synchronization, a subtransaction behaves as a completely separate
// transaction until then (Section 2.1.3).

#ifndef TABS_LOCK_LOCK_MANAGER_H_
#define TABS_LOCK_LOCK_MANAGER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/node_recycler.h"
#include "src/common/result.h"
#include "src/common/types.h"
#include "src/lock/lock_mode.h"
#include "src/sim/scheduler.h"

namespace tabs::lock {

class LockManager {
 public:
  // `default_timeout` applies when Lock() is called without an explicit
  // timeout.
  static constexpr SimTime kUseDefault = -2;

  LockManager(sim::Scheduler& sched, CompatibilityMatrix matrix, SimTime default_timeout);

  // Blocks the calling task until the lock is granted or the timeout
  // expires. Re-requests by a holder are granted immediately when the new
  // mode is compatible with every *other* holder (lock conversion).
  Status Lock(const TransactionId& tid, const ObjectId& oid, LockMode mode,
              SimTime timeout = kUseDefault);

  // ConditionallyLockObject: acquires if immediately available, else returns
  // false without waiting (Table 3-1).
  bool ConditionalLock(const TransactionId& tid, const ObjectId& oid, LockMode mode);

  // IsObjectLocked: true iff any transaction holds a lock on `oid`. The weak
  // queue and IO servers use this to observe transaction state (Section 4).
  bool IsLocked(const ObjectId& oid) const;

  // True iff `tid` holds a lock on `oid` in exactly/at least `mode`.
  bool Holds(const TransactionId& tid, const ObjectId& oid, LockMode mode) const;

  // Releases every lock held by `tid` and wakes eligible waiters.
  void ReleaseAll(const TransactionId& tid);

  // Subtransaction commit: re-owns every lock of `child` to `parent`.
  void InheritToParent(const TransactionId& child, const TransactionId& parent);

  std::vector<ObjectId> LocksHeldBy(const TransactionId& tid) const;
  // Objects with a holder or a waiter.
  size_t LockedObjectCount() const;

  // Waits-for edges (waiter -> holder) for the deadlock detector.
  struct WaitsForEdge {
    TransactionId waiter;
    TransactionId holder;
    ObjectId object;
  };
  std::vector<WaitsForEdge> WaitsFor() const;

  // Forcibly wakes any waiter belonging to `tid` with a timeout-style
  // failure; used by the deadlock detector to sacrifice a victim. A
  // cancelled request is never granted, even by a release that lands before
  // its task resumes.
  void CancelWaits(const TransactionId& tid);

  // Queue-oriented execution hooks (src/txn/op_queue.h). The grant sink is
  // invoked on every successful grant — including conversions and waiter
  // wake-ups — so the operation queue can record a commit dependency on any
  // early-releaser whose lock covered `oid`. The grant veto is consulted
  // before any grant; while it returns true for an object (a predecessor is
  // mid-abort), requests on that object park as waiters instead of being
  // granted into the abort's undo window. Both default to absent, which
  // keeps every existing code path byte-identical.
  using GrantSink = std::function<void(const TransactionId&, const ObjectId&)>;
  using GrantVeto = std::function<bool(const ObjectId&)>;
  void SetGrantSink(GrantSink sink) { grant_sink_ = std::move(sink); }
  void SetGrantVeto(GrantVeto veto) { grant_veto_ = std::move(veto); }

  // Consulted with the *requesting* transaction on lock entry and again when
  // a sleeping waiter is woken with its lock granted. Returns true while the
  // requester itself is being (cascade-)aborted: the request fails kAborted
  // instead of handing a zombie task a lock it would use to write after its
  // own undo already ran. Queue mode only; absent otherwise.
  using RequesterVeto = std::function<bool(const TransactionId&)>;
  void SetRequesterVeto(RequesterVeto veto) { requester_veto_ = std::move(veto); }

  // Re-runs the FIFO grant sweep on every object. Called after an abort
  // settles (veto lifted) to grant waiters that were parked by the veto.
  void GrantAllEligible();

 private:
  struct Waiter {
    TransactionId tid;
    LockMode mode;
    bool cancelled = false;
    sim::WaitQueue queue;  // exactly one task waits here
  };
  // The modes one holder has on one object, as a bitmask indexed by
  // LockMode. A compatibility matrix never has anywhere near 64 modes, so
  // the whole per-holder std::set<LockMode> collapses into one word.
  using ModeMask = std::uint64_t;
  static ModeMask ModeBit(LockMode m) { return ModeMask{1} << m; }
  using Waiters = std::map<ObjectId, std::vector<std::shared_ptr<Waiter>>>;

  bool CanGrant(const ObjectId& oid, const TransactionId& tid, LockMode mode) const;
  void Grant(const TransactionId& tid, const ObjectId& oid, LockMode mode);
  // Grants from the front of one object's FIFO; drops the queue once empty.
  void GrantEligibleWaiters(Waiters::iterator queue);

  sim::Scheduler& sched_;
  CompatibilityMatrix matrix_;
  SimTime default_timeout_;
  // Both tables are ordered, so every walk that wakes tasks or feeds the
  // deadlock detector runs in ObjectId order (then holder order) by
  // construction. An object's holders are one contiguous range of grants_.
  // A released grant's node serves the next grant: nothing holds an entry
  // across a wait (Lock looks its grant up again when it wakes).
  using Grants = std::map<std::pair<ObjectId, TransactionId>, ModeMask>;
  Grants grants_;
  NodeRecycler<Grants> grant_nodes_;
  // FIFO per object, only for objects someone awaits. A drained queue's node
  // and capacity serve the next: Lock looks its queue up again when it wakes.
  Waiters waiters_;
  NodeRecycler<Waiters> waiter_nodes_;
  GrantSink grant_sink_;
  GrantVeto grant_veto_;
  RequesterVeto requester_veto_;
};

}  // namespace tabs::lock

#endif  // TABS_LOCK_LOCK_MANAGER_H_
