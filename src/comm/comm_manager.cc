#include "src/comm/comm_manager.h"

namespace tabs::comm {

void CommManager::NoteChild(const TransactionId& tid, NodeId child) {
  // First contact with this node for this transaction: the CM informs the
  // Transaction Manager, one small local message.
  if (child != self_ && listener_ != nullptr && listener_->OnChildObserved(tid, child)) {
    network_.substrate().Charge(sim::Primitive::kSmallMessage, 1);
  }
}

void CommManager::NoteParent(const TransactionId& tid, NodeId parent) {
  if (parent != self_ && listener_ != nullptr &&
      listener_->OnRemoteParentObserved(tid, parent)) {
    network_.substrate().Charge(sim::Primitive::kSmallMessage, 1);
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
    slot = sim::MakeShared<CallWindow>(sched);
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
