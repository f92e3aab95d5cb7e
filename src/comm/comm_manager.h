// The per-node Communication Manager.
//
// Beyond moving messages, the Communication Manager "scans any transaction
// identifiers included in messages and is responsible for constructing the
// local portion of the spanning tree that the Transaction Manager uses
// during two-phase commit. In particular [it] records the node's parent,
// whether the transaction was initiated by a remote node, and the list of
// all the node's children." (Section 3.2.4.)
//
// A node A becomes the parent of node B for transaction T iff A was the
// first node to invoke an operation on behalf of T on B (Section 3.2.3).
// RemoteCall reports that relation on both ends to the local Transaction
// Manager, whose entry is the one record of the tree (the CM keeps no copy).
//
// The asynchronous fast path (AsyncRemoteCallBatch) lets a transaction
// overlap independent remote operations: up to `max_outstanding_calls`
// session calls may be in flight per top-level transaction, and up to
// `op_coalesce_batch` independent operations bound for the same server
// travel as one large message. Both knobs default to 1, which reproduces
// the paper's strictly sequential one-op-per-message behaviour (every
// table5_* number is unchanged); spanning-tree maintenance and reachability
// checks are identical to the blocking RemoteCall's.

#ifndef TABS_COMM_COMM_MANAGER_H_
#define TABS_COMM_COMM_MANAGER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/comm/network.h"
#include "src/common/types.h"
#include "src/sim/fault_injector.h"

namespace tabs::comm {

// How the Communication Manager hands the Transaction Manager the tree it
// constructs (Section 3.2.3's progress messages). Each hook returns whether
// the edge is new to the TM's record; the CM charges one small message then.
class TransactionTreeListener {
 public:
  virtual ~TransactionTreeListener() = default;
  // An inter-node message on behalf of `tid` arrived from `parent`. New only
  // at first contact, which makes `parent` this node's parent.
  virtual bool OnRemoteParentObserved(const TransactionId& tid, NodeId parent) = 0;
  // This node is about to invoke an operation on behalf of `tid` at `child`.
  virtual bool OnChildObserved(const TransactionId& tid, NodeId child) = 0;
};

class CommManager {
 public:
  CommManager(NodeId self, Network& network) : self_(self), network_(network) {}

  NodeId self() const { return self_; }
  Network& network() { return network_; }
  void SetListener(TransactionTreeListener* listener) { listener_ = listener; }

  // Pipelining knobs (WorldOptions::max_outstanding_calls /
  // op_coalesce_batch). Both 1 by default: the paper-faithful sequential,
  // one-operation-per-message configuration.
  void ConfigurePipeline(int max_outstanding_calls, int op_coalesce_batch) {
    max_outstanding_calls_ = max_outstanding_calls < 1 ? 1 : max_outstanding_calls;
    op_coalesce_batch_ = op_coalesce_batch < 1 ? 1 : op_coalesce_batch;
  }
  int max_outstanding_calls() const { return max_outstanding_calls_; }
  int op_coalesce_batch() const { return op_coalesce_batch_; }

  // Session RPC to a remote node on behalf of a transaction. Reports the
  // spanning-tree edge on both ends. `handler` runs on the destination node;
  // its Communication Manager must be passed so the receive side is reported.
  // Blocking calls take no pipeline window slot.
  template <typename R, typename F>
  Result<R> RemoteCall(const TransactionId& tid, CommManager& remote, std::string what,
                       F handler) {
    sim::Tracer& tracer = network_.substrate().tracer();
    sim::SpanGuard span(tracer, sim::Component::kCommunicationManager, "cm.remote-call",
                        tracer.enabled() ? ToString(tid) : std::string());
    if (!Admit(tid, remote.self_)) {
      return Status::kNodeDown;
    }
    return network_.SessionCall<R>(self_, remote.self_, std::move(what),
                                   remote.Received(tid, self_, std::move(handler)));
  }

  // The asynchronous fast path: `ops` (independent operations bound for the
  // same server) travel in ONE session call, issued without blocking on the
  // reply. At most `max_outstanding_calls` calls per top-level transaction
  // are in flight — the issuer blocks for a free window slot first, so the
  // window is a backpressure bound, not a queue. Tree maintenance and
  // failure semantics match RemoteCall exactly: the remote node joins the
  // spanning tree before the message flows, an unreachable destination
  // yields an already-failed kNodeDown future, and a destination that dies
  // in flight leaves the future empty (the awaiting task's Await(timeout)
  // reports the broken session).
  //
  // The session primitive is charged once for the whole batch, so a batch
  // of one op charges exactly what RemoteCall does; a batch of more than one op
  // additionally charges a large-message marshal on the sender and a
  // large-message unmarshal plus a local data-server-call dispatch per extra
  // op on the receiver — so coalescing trades k-1 inter-node calls for k-1
  // local dispatches. Results arrive in issue order; the outer Result
  // carries session-layer failure, the inner per-op Results carry each
  // operation's own verdict.
  template <typename R, typename Op>
  sim::FuturePtr<Result<std::vector<Result<R>>>> AsyncRemoteCallBatch(
      const TransactionId& tid, CommManager& remote, std::string what, std::vector<Op> ops) {
    sim::Substrate& sub = network_.substrate();
    const size_t k = ops.size();
    sim::SpanGuard span(sub.tracer(), sim::Component::kCommunicationManager,
                        k > 1 ? "cm.coalesce" : "cm.async-call",
                        sub.tracer().enabled() ? ToString(tid) : std::string());
    auto win = AdmitAsync(tid, remote.self_);
    if (win == nullptr) {
      return FailedFuture<std::vector<Result<R>>>();
    }
    if (k > 1) {
      // The request grows from a small to a large message; the k-1 coalesced
      // ops ride along instead of paying their own sessions.
      sub.Charge(sim::Primitive::kLargeMessage);
      sub.metrics().CountMessagesCoalesced(static_cast<double>(k - 1));
    }
    // Crash window: a coalesced batch is about to leave for one shard while
    // sibling shards' batches may already be in flight.
    FAULT_POINT(sub, "comm.batch-issue");
    sim::Substrate* subp = &sub;
    auto dispatch = [k, subp, ops = std::move(ops)]() -> Result<std::vector<Result<R>>> {
      if (k > 1) {
        subp->Charge(sim::Primitive::kLargeMessage);  // unmarshal the batch
        subp->Charge(sim::Primitive::kDataServerCall, static_cast<double>(k - 1));
      }
      std::vector<Result<R>> out;
      out.reserve(k);
      for (auto& op : ops) {
        out.push_back(op());
      }
      return out;
    };
    return network_.AsyncSessionCall<std::vector<Result<R>>>(
        self_, remote.self_, std::move(what),
        [subp, received = remote.Received(tid, self_, std::move(dispatch))] {
          // Crash window on the receiving shard: the batch arrived, the
          // sender believes it is in flight, nothing has executed yet.
          FAULT_POINT(*subp, "comm.batch-dispatch");
          return received();
        },
        // Runs on the reply delivery task: frees the slot and wakes one
        // blocked issuer.
        [win = std::move(win), sched = &sub.scheduler()] {
          --win->outstanding;
          sched->NotifyOne(win->slots);
        });
  }

  // Datagram on behalf of transaction management (commit protocol).
  void SendDatagram(NodeId to, std::string what, sim::TaskFn handler) {
    network_.SendDatagram(self_, to, std::move(what), std::move(handler));
  }

  // The transaction ended here: its pipeline window goes.
  void Forget(const TransactionId& tid) { windows_.erase(tid); }

  // Leak observability for tests: live pipeline windows (they must drain to
  // zero once transactions finish).
  size_t OpenCallWindowCount() const { return windows_.size(); }

 private:
  // Per-top-level-transaction pipeline window. Shared with the reply
  // delivery tasks, which may outlive this CommManager (origin crash): a
  // late completion then decrements an orphaned counter and notifies an
  // empty queue, both harmless.
  struct CallWindow {
    int outstanding = 0;
    sim::WaitQueue slots;
  };

  // The two ends of a spanning-tree edge, reported to the listener.
  void NoteChild(const TransactionId& tid, NodeId child);
  void NoteParent(const TransactionId& tid, NodeId parent);

  // Sender-side admission, shared by every remote call: an unreachable
  // destination is charged the session attempt and refused before any
  // message flows (it never becomes a participant); otherwise it joins the
  // transaction's spanning tree, even if the call later fails.
  bool Admit(const TransactionId& tid, NodeId to) {
    if (!network_.Reachable(self_, to)) {
      network_.substrate().Charge(sim::Primitive::kInterNodeDataServerCall);
      return false;
    }
    NoteChild(tid, to);
    return true;
  }

  // Admit for a pipelined call, which also claims a slot in the transaction's
  // window, blocking until one frees. Returns null if refused, or if no slot
  // frees within a session timeout (an in-flight call was lost to a crash
  // and will never complete).
  std::shared_ptr<CallWindow> AdmitAsync(const TransactionId& tid, NodeId to);

  // The receive side, shared by every remote call: `handler` wrapped to run
  // on this node, where each message of `tid` from `parent` reports the
  // spanning-tree edge before any work runs.
  template <typename F>
  auto Received(const TransactionId& tid, NodeId parent, F handler) {
    return [this, tid, parent, handler = std::move(handler)] {
      NoteParent(tid, parent);
      return handler();
    };
  }

  template <typename R>
  sim::FuturePtr<Result<R>> FailedFuture() {
    sim::Scheduler& sched = network_.substrate().scheduler();
    auto f = sim::MakeShared<sim::Future<Result<R>>>(sched, sched);
    f->Fulfil(Status::kNodeDown);
    return f;
  }

  NodeId self_;
  Network& network_;
  TransactionTreeListener* listener_ = nullptr;
  int max_outstanding_calls_ = 1;
  int op_coalesce_batch_ = 1;
  // Keyed by transaction id; never iterated, so a hashed map is safe.
  std::unordered_map<TransactionId, std::shared_ptr<CallWindow>> windows_;
  // Interned once on first use; AdmitAsync is on every pipelined call's path.
  sim::HistogramRegistry::Histogram* outstanding_hist_ = nullptr;
};

}  // namespace tabs::comm

#endif  // TABS_COMM_COMM_MANAGER_H_
