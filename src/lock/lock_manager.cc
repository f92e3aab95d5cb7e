#include "src/lock/lock_manager.h"

#include <bit>
#include <set>

namespace tabs::lock {

LockManager::LockManager(sim::Scheduler& sched, CompatibilityMatrix matrix,
                         SimTime default_timeout)
    : sched_(sched), matrix_(std::move(matrix)), default_timeout_(default_timeout) {}

bool LockManager::CanGrant(const ObjectId& oid, const TransactionId& tid,
                           LockMode mode) const {
  for (auto it = grants_.lower_bound({oid, kNullTransaction});
       it != grants_.end() && it->first.first == oid; ++it) {
    if (it->first.second == tid) {
      continue;  // conversion: own locks never conflict with the request
    }
    for (ModeMask m = it->second; m != 0; m &= m - 1) {
      LockMode held = static_cast<LockMode>(std::countr_zero(m));
      if (!matrix_.Compatible(mode, held)) {
        return false;
      }
    }
  }
  return true;
}

void LockManager::Grant(const TransactionId& tid, const ObjectId& oid, LockMode mode) {
  grant_nodes_.Get(grants_, {oid, tid})->second |= ModeBit(mode);
  if (grant_sink_) {
    grant_sink_(tid, oid);
  }
}

Status LockManager::Lock(const TransactionId& tid, const ObjectId& oid, LockMode mode,
                         SimTime timeout) {
  if (timeout == kUseDefault) {
    timeout = default_timeout_;
  }
  if (requester_veto_ && requester_veto_(tid)) {
    return Status::kAborted;  // the requester is mid-abort: refuse new locks
  }
  if (CanGrant(oid, tid, mode) && !(grant_veto_ && grant_veto_(oid))) {
    Grant(tid, oid, mode);
    return Status::kOk;
  }
  auto waiter = sim::MakeShared<Waiter>(sched_);
  waiter->tid = tid;
  waiter->mode = mode;
  waiter_nodes_.Get(waiters_, oid)->second.push_back(waiter);

  sched_.WaitUntil(waiter->queue, sched_.Now() + timeout);
  auto held = grants_.find({oid, tid});
  if (held != grants_.end() && (held->second & ModeBit(mode)) != 0) {
    if (requester_veto_ && requester_veto_(tid)) {
      // Granted while a cascade abort consumed this transaction (the grant
      // sweep ran before this task resumed). The abort's ReleaseAll cleans
      // the grant up; proceeding would write after our own undo.
      return Status::kAborted;
    }
    return Status::kOk;  // granted, possibly racing a timeout
  }
  // Timed out or cancelled: withdraw the request.
  if (auto q = waiters_.find(oid); q != waiters_.end()) {
    std::erase(q->second, waiter);
    if (q->second.empty()) {
      waiter_nodes_.Keep(waiters_.extract(q));
    }
  }
  return waiter->cancelled ? Status::kAborted : Status::kTimeout;
}

bool LockManager::ConditionalLock(const TransactionId& tid, const ObjectId& oid,
                                  LockMode mode) {
  if (!CanGrant(oid, tid, mode) || (grant_veto_ && grant_veto_(oid))) {
    return false;
  }
  Grant(tid, oid, mode);
  return true;
}

bool LockManager::IsLocked(const ObjectId& oid) const {
  auto it = grants_.lower_bound({oid, kNullTransaction});
  return it != grants_.end() && it->first.first == oid;
}

bool LockManager::Holds(const TransactionId& tid, const ObjectId& oid, LockMode mode) const {
  auto it = grants_.find({oid, tid});
  return it != grants_.end() && (it->second & ModeBit(mode)) != 0;
}

void LockManager::GrantEligibleWaiters(Waiters::iterator queue) {
  // Strict FIFO: grant from the front until the first request that still
  // conflicts. This avoids starving writers behind a stream of readers.
  const ObjectId& oid = queue->first;
  auto& waiters = queue->second;
  while (!waiters.empty()) {
    Waiter& w = *waiters.front();
    // A cancelled waiter (deadlock victim or cascade abort) is dropped, never
    // granted: its sleeping task re-checks `cancelled` on wake and fails
    // kAborted.
    if (!w.cancelled) {
      if (!CanGrant(oid, w.tid, w.mode)) {
        break;
      }
      if (grant_veto_ && grant_veto_(oid)) {
        break;  // a predecessor is mid-abort: stay parked until it settles
      }
      Grant(w.tid, oid, w.mode);
      sched_.NotifyOne(w.queue);
    }
    waiters.erase(waiters.begin());
  }
  if (waiters.empty()) {
    waiter_nodes_.Keep(waiters_.extract(queue));
  }
}

void LockManager::GrantAllEligible() {
  // Used after an abort settles: the grant veto parked requests as waiters;
  // with the veto lifted they become eligible again.
  for (auto q = waiters_.begin(); q != waiters_.end();) {
    GrantEligibleWaiters(q++);
  }
}

void LockManager::ReleaseAll(const TransactionId& tid) {
  // Walk in (object, holder) order: GrantEligibleWaiters wakes tasks, so the
  // wake sequence follows object order. Its grants are all on the object just
  // released, and a re-grant to `tid` itself sorts behind `it`, so no object
  // is released twice.
  for (auto it = grants_.begin(); it != grants_.end();) {
    if (it->first.second != tid) {
      ++it;
      continue;
    }
    ObjectId oid = it->first.first;
    grant_nodes_.Keep(grants_.extract(it++));
    if (auto q = waiters_.find(oid); q != waiters_.end()) {
      GrantEligibleWaiters(q);
    }
  }
}

void LockManager::InheritToParent(const TransactionId& child, const TransactionId& parent) {
  // Pure re-keying: no wakes, no charges, and no allocation (the node moves).
  for (auto it = grants_.begin(); it != grants_.end();) {
    if (it->first.second != child) {
      ++it;
      continue;
    }
    auto node = grants_.extract(it++);
    node.key().second = parent;
    auto inserted = grants_.insert(std::move(node));
    if (!inserted.inserted) {
      inserted.position->second |= inserted.node.mapped();  // parent held it too
      grant_nodes_.Keep(std::move(inserted.node));
    }
  }
}

std::vector<ObjectId> LockManager::LocksHeldBy(const TransactionId& tid) const {
  std::vector<ObjectId> out;
  for (const auto& [key, modes] : grants_) {
    if (key.second == tid) {
      out.push_back(key.first);
    }
  }
  return out;
}

size_t LockManager::LockedObjectCount() const {
  std::set<ObjectId> objects;
  for (const auto& [key, modes] : grants_) {
    objects.insert(key.first);
  }
  for (const auto& [oid, waiters] : waiters_) {
    objects.insert(oid);
  }
  return objects.size();
}

std::vector<LockManager::WaitsForEdge> LockManager::WaitsFor() const {
  // Edge order feeds the deadlock detector's victim choice: object order,
  // then FIFO order, then holder order.
  std::vector<WaitsForEdge> edges;
  for (const auto& [oid, waiters] : waiters_) {
    for (const auto& w : waiters) {
      for (auto it = grants_.lower_bound({oid, kNullTransaction});
           it != grants_.end() && it->first.first == oid; ++it) {
        const TransactionId& holder = it->first.second;
        if (holder == w->tid) {
          continue;
        }
        bool conflicts = false;
        for (ModeMask m = it->second; m != 0 && !conflicts; m &= m - 1) {
          conflicts = !matrix_.Compatible(
              w->mode, static_cast<LockMode>(std::countr_zero(m)));
        }
        if (conflicts) {
          edges.push_back({w->tid, holder, oid});
        }
      }
    }
  }
  return edges;
}

void LockManager::CancelWaits(const TransactionId& tid) {
  // NotifyOne order is observable: ObjectId order, as with ReleaseAll.
  for (auto& [oid, waiters] : waiters_) {
    for (auto& w : waiters) {
      if (w->tid == tid && !w->queue.empty()) {
        w->cancelled = true;
        sched_.NotifyOne(w->queue);
      }
    }
  }
}

}  // namespace tabs::lock
