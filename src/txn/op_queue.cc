#include "src/txn/op_queue.h"

#include <algorithm>
#include <cassert>

namespace tabs::txn {

void OpQueue::NoteEarlyRelease(const TransactionId& top, const std::vector<ObjectId>& oids) {
  for (const ObjectId& oid : oids) {
    auto& tail = tails_[oid];
    if (std::find(tail.begin(), tail.end(), top) == tail.end()) {
      tail.push_back(top);
      tainted_oids_[top].insert(oid);
    }
  }
}

void OpQueue::NoteAccess(const TransactionId& top, const ObjectId& oid) {
  auto it = tails_.find(oid);
  if (it == tails_.end()) {
    return;
  }
  for (const TransactionId& pred : it->second) {
    if (pred == top || aborting_.contains(pred)) {
      continue;
    }
    deps_[top].insert(pred);
    dependents_[pred].insert(top);
  }
}

bool OpQueue::GrantVetoed(const ObjectId& oid) const {
  auto it = tails_.find(oid);
  if (it == tails_.end()) {
    return false;
  }
  return std::any_of(it->second.begin(), it->second.end(),
                     [&](const TransactionId& t) { return aborting_.contains(t); });
}

Status OpQueue::AwaitPredecessors(TransactionId top, SimTime timeout) {
  auto pending = [&] {
    auto it = deps_.find(top);
    return it != deps_.end() && !it->second.empty();
  };
  if (!pending()) {
    return Status::kOk;
  }
  assert(sched_ != nullptr && sched_->in_task());
  SimTime deadline = sched_->Now() + timeout;
  while (pending() && sched_->WaitUntil(waiters_[top], deadline)) {
  }
  auto wit = waiters_.find(top);
  if (wit != waiters_.end() && wit->second.empty()) {
    waiters_.erase(wit);
  }
  return pending() ? Status::kTimeout : Status::kOk;
}

void OpQueue::Discharge(const TransactionId& dependent, const TransactionId& predecessor) {
  auto dit = deps_.find(dependent);
  if (dit == deps_.end()) {
    return;
  }
  dit->second.erase(predecessor);
  if (dit->second.empty()) {
    deps_.erase(dit);
    auto wit = waiters_.find(dependent);
    if (wit != waiters_.end() && !wit->second.empty()) {
      sched_->NotifyAll(wit->second);
    }
  }
}

void OpQueue::ClearTaints(const TransactionId& top) {
  auto tit = tainted_oids_.find(top);
  if (tit == tainted_oids_.end()) {
    return;
  }
  for (const ObjectId& oid : tit->second) {
    auto& tail = tails_[oid];
    tail.erase(std::remove(tail.begin(), tail.end(), top), tail.end());
    if (tail.empty()) {
      tails_.erase(oid);
    }
  }
  tainted_oids_.erase(tit);
}

void OpQueue::NoteCommitted(const TransactionId& top) {
  ClearTaints(top);
  auto dit = dependents_.find(top);
  if (dit != dependents_.end()) {
    // std::set iteration: dependents wake in TransactionId order.
    auto dependents = std::move(dit->second);
    dependents_.erase(dit);
    for (const TransactionId& d : dependents) {
      Discharge(d, top);
    }
  }
}

void OpQueue::BeginAbort(const TransactionId& top) { aborting_.insert(top); }

std::vector<TransactionId> OpQueue::TakeDependents(const TransactionId& top) {
  auto dit = dependents_.find(top);
  if (dit == dependents_.end()) {
    return {};
  }
  std::vector<TransactionId> out(dit->second.begin(), dit->second.end());
  dependents_.erase(dit);
  for (const TransactionId& d : out) {
    // Unlink without waking: each dependent is about to be cascade-aborted,
    // not released to proceed.
    auto it = deps_.find(d);
    if (it != deps_.end()) {
      it->second.erase(top);
      if (it->second.empty()) {
        deps_.erase(it);
      }
    }
  }
  return out;
}

void OpQueue::FinishAbort(const TransactionId& top) {
  // Its undo is complete: the on-disk and in-memory state it touched is
  // clean again.
  ClearTaints(top);
  aborting_.erase(top);
  // Unlink any dependencies this transaction itself still held (both
  // directions), then wake it if it is parked in AwaitPredecessors — it will
  // re-resolve its entry and observe the abort.
  auto dit = deps_.find(top);
  if (dit != deps_.end()) {
    for (const TransactionId& pred : dit->second) {
      auto pit = dependents_.find(pred);
      if (pit != dependents_.end()) {
        pit->second.erase(top);
        if (pit->second.empty()) {
          dependents_.erase(pit);
        }
      }
    }
    deps_.erase(dit);
  }
  auto wit = waiters_.find(top);
  if (wit != waiters_.end() && !wit->second.empty()) {
    sched_->NotifyAll(wit->second);
  }
}

}  // namespace tabs::txn
