#include "src/comm/comm_manager.h"

namespace tabs::comm {

void CommManager::NoteChild(const TransactionId& tid, NodeId child) {
  if (child == self_) {
    return;
  }
  TreeInfo& info = trees_[tid];
  if (info.children.insert(child).second) {
    // First contact with this node for this transaction: the CM informs the
    // Transaction Manager (one small local message) and records the child.
    network_.substrate().Charge(sim::Primitive::kSmallMessage, 1);
  }
}

void CommManager::NoteParent(const TransactionId& tid, NodeId parent) {
  if (parent == self_) {
    return;
  }
  TreeInfo& info = trees_[tid];
  if (info.parent == kInvalidNode) {
    info.parent = parent;
    network_.substrate().Charge(sim::Primitive::kSmallMessage, 1);
    if (listener_ != nullptr) {
      listener_->OnRemoteParentObserved(tid, parent);
    }
  }
}

std::shared_ptr<CommManager::CallWindow> CommManager::AdmitAsync(const TransactionId& tid,
                                                                NodeId to) {
  if (!Admit(tid, to)) {
    return nullptr;
  }
  sim::Substrate& sub = network_.substrate();
  sim::Scheduler& sched = sub.scheduler();
  auto& slot = windows_[tid];
  if (slot == nullptr) {
    slot = std::make_shared<CallWindow>();
  }
  // Hold a reference across the wait: Forget (commit/abort cleanup) may
  // erase the map entry while we sleep.
  std::shared_ptr<CallWindow> win = slot;
  while (win->outstanding >= max_outstanding_calls_) {
    if (!sched.WaitUntil(win->slots, sched.Now() + Network::kDefaultSessionTimeout)) {
      return nullptr;  // an in-flight call died with its destination
    }
  }
  ++win->outstanding;
  if (sub.tracer().enabled()) {
    if (outstanding_hist_ == nullptr) {
      outstanding_hist_ = sub.tracer().histograms().Register("cm.outstanding-calls");
    }
    outstanding_hist_->Record(win->outstanding);
  }
  sub.metrics().CountAsyncCall();
  return win;
}

}  // namespace tabs::comm
