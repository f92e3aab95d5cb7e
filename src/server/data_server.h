// DataServer: the base class every TABS data server builds on, exposing the
// server library of Table 3-1.
//
// A data server encapsulates objects in a recoverable segment, locks them
// through its own lock manager (so locking can be type-specific, Section
// 2.1.2), logs updates through the node's Recovery Manager, and participates
// automatically in transaction commit, abort, and checkpoint. Operations
// execute as tasks on the server's node; the cooperative scheduler gives
// exactly the TABS coroutine monitor semantics — a switch happens only when
// an operation waits (Section 3.1.1).
//
// The modification protocol mirrors the paper exactly:
//   PinAndBuffer(oid)   — pin the object's pages and buffer its old value;
//   Staged(oid)         — the in-flight new value the operation mutates
//                         (the paper's direct assignment through the mapped
//                         segment);
//   LogAndUnPin(oid)    — send old/new to the Recovery Manager (which
//                         applies the new value under the record's LSN) and
//                         unpin.
// plus the marked-object variants (LockAndMark / PinAndBufferMarkedObjects /
// LogAndUnPinMarkedObjects) that let code like the B-tree server set all its
// locks before pinning anything, as the checkpoint protocol requires.

#ifndef TABS_SERVER_DATA_SERVER_H_
#define TABS_SERVER_DATA_SERVER_H_

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/comm/comm_manager.h"
#include "src/common/node_recycler.h"
#include "src/kernel/node.h"
#include "src/kernel/recoverable_segment.h"
#include "src/lock/lock_manager.h"
#include "src/name/name_server.h"
#include "src/recovery/recovery_manager.h"
#include "src/txn/transaction_manager.h"

namespace tabs::server {

// Transaction context threaded through every operation: the current
// (sub)transaction, its top-level ancestor, and where the call comes from.
struct Tx {
  TransactionId tid;
  TransactionId top;
  NodeId origin = kInvalidNode;
  comm::CommManager* origin_cm = nullptr;  // for routing nested remote calls
};

// Everything a data server needs from its node, assembled by tabs::World.
struct ServerContext {
  kernel::Node* node = nullptr;
  recovery::RecoveryManager* rm = nullptr;
  txn::TransactionManager* tm = nullptr;
  comm::CommManager* cm = nullptr;
  SegmentId segment = kInvalidSegment;
  std::string name;
};

class DataServer : public txn::CommitParticipant {
 public:
  // One operation of a pipelined chunk (AsyncCallChunks), held inline: 64
  // bytes fit the array server's cell operations.
  template <typename R>
  using Op = sim::InlineFunction<Result<R>(), 64>;

  struct Options {
    PageNumber pages = 16;
    size_t buffer_frames = 1024;  // effectively unbounded unless testing paging
    lock::CompatibilityMatrix matrix = lock::CompatibilityMatrix::SharedExclusive();
    SimTime lock_timeout = 5'000'000;  // TABS breaks deadlock by timeout
  };

  DataServer(const ServerContext& ctx, Options options);
  ~DataServer() override = default;

  const std::string& participant_name() const override { return name_; }
  NodeId node_id() const { return ctx_.node->id(); }
  comm::CommManager& cm() { return *ctx_.cm; }
  kernel::RecoverableSegment& segment() { return *segment_; }
  lock::LockManager& locks() { return locks_; }
  sim::Substrate& substrate() { return ctx_.node->substrate(); }

  // --- entry point -----------------------------------------------------------
  // Runs `op` in this server on behalf of `tx`, routing remotely when the
  // caller is on another node, charging the appropriate call primitive, and
  // announcing the server to the Transaction Manager on first contact.
  template <typename R, typename F>
  Result<R> Call(const Tx& tx, std::string what, F op) {
    if (tx.origin == node_id()) {
      sim::SpanGuard span(substrate().tracer(), sim::Component::kDataServer, "server.call",
                          substrate().tracer().enabled() ? what : std::string());
      substrate().Charge(sim::Primitive::kDataServerCall);
      return Serve(tx, op);
    }
    // Remote: session RPC through the Communication Managers, which also
    // grow the transaction's spanning tree. (Per-transaction CM session
    // setup costs are charged by the CM at first contact.)
    assert(tx.origin_cm != nullptr && "remote call without an origin CM");
    return tx.origin_cm->RemoteCall<R>(tx.top, *ctx_.cm, std::move(what),
                                       Arrival(tx, std::move(op)));
  }

  // Asynchronous entry point: runs the independent `ops` in this server on
  // behalf of `tx` without blocking on remote replies, one future per wire
  // message, so the caller can overlap operations on several servers (up to
  // the CM's pipeline window). Remote invocations chunk the batch by the
  // CM's coalescing limit and put every chunk on the wire before returning
  // (so batching composes with pipelining); a chunk of one op is one
  // pipelined call. Local invocations have no network latency to hide and
  // dispatch each op exactly like separate Calls into a single ready chunk —
  // coalescing saves messages, never server work. Failure semantics match
  // Call: a dead destination surfaces as kNodeDown when the chunk is
  // awaited. Results are in op order; Application::AsyncOps joins the
  // futures.
  template <typename R>
  std::vector<sim::FuturePtr<Result<std::vector<Result<R>>>>> AsyncCallChunks(
      const Tx& tx, const std::string& what, std::vector<Op<R>> ops) {
    std::vector<sim::FuturePtr<Result<std::vector<Result<R>>>>> futures;
    if (ops.empty()) {
      return futures;
    }
    if (tx.origin == node_id()) {
      std::vector<Result<R>> chunk;
      chunk.reserve(ops.size());
      for (auto& op : ops) {
        chunk.push_back(Call<R>(tx, what, std::move(op)));
      }
      sim::Scheduler& sched = substrate().scheduler();
      auto f = sim::MakeShared<sim::Future<Result<std::vector<Result<R>>>>>(sched, sched);
      f->Fulfil(std::move(chunk));
      futures.push_back(std::move(f));
      return futures;
    }
    assert(tx.origin_cm != nullptr && "remote call without an origin CM");
    size_t limit = static_cast<size_t>(tx.origin_cm->op_coalesce_batch());
    for (size_t base = 0; base < ops.size(); base += limit) {
      size_t count = std::min(limit, ops.size() - base);
      std::vector<decltype(Arrival(tx, std::move(ops[base])))> wire_ops;
      wire_ops.reserve(count);
      for (size_t i = 0; i < count; ++i) {
        wire_ops.push_back(Arrival(tx, std::move(ops[base + i])));
      }
      futures.push_back(tx.origin_cm->AsyncRemoteCallBatch<R>(
          tx.top, *ctx_.cm, what, std::move(wire_ops)));
    }
    return futures;
  }

  // --- Table 3-1: startup ------------------------------------------------------
  // ReadPermanentData / RecoverServer / AcceptRequests are subsumed by the
  // constructor (segment mapping), World-driven recovery, and Call dispatch.
  // Subclasses override Recover() to rebuild volatile structures, e.g. the
  // weak queue's tail pointer.
  virtual void Recover() {}

  // --- Table 3-1: address arithmetic --------------------------------------------
  ObjectId CreateObjectId(std::uint32_t offset, std::uint32_t length) const {
    return ObjectId{segment_->id(), offset, length};
  }

  // --- Table 3-1: locking ---------------------------------------------------------
  Status LockObject(const Tx& tx, const ObjectId& oid, lock::LockMode mode);
  bool ConditionallyLockObject(const Tx& tx, const ObjectId& oid, lock::LockMode mode);
  bool IsObjectLocked(const ObjectId& oid) const { return locks_.IsLocked(oid); }

  // --- Table 3-1: paging control ----------------------------------------------------
  void PinObject(const ObjectId& oid) { segment_->Pin(oid); }
  void UnPinObject(const ObjectId& oid) { segment_->Unpin(oid); }
  void UnPinAllObjects() { segment_->UnpinAll(); }

  // --- Table 3-1: paging control + logging -------------------------------------------
  // IMPORTANT: value-logged objects need stable identities. The value
  // recovery algorithm's backward pass tracks restored objects by exact
  // ObjectId, so two logged objects must either be identical or disjoint —
  // never partially overlapping (the paper's "individually logged component"
  // restriction). Servers with variable-sized data log fixed-shape units
  // (whole pages, fixed blocks) and write sub-ranges into them.
  void PinAndBuffer(const Tx& tx, const ObjectId& oid);
  // The staged new value created by PinAndBuffer (initially the old value);
  // the operation mutates it in place, then LogAndUnPin makes it real.
  Bytes& Staged(const Tx& tx, const ObjectId& oid);
  void LogAndUnPin(const Tx& tx, const ObjectId& oid);

  Status LockAndMark(const Tx& tx, const ObjectId& oid, lock::LockMode mode);
  void PinAndBufferMarkedObjects(const Tx& tx);
  void LogAndUnPinMarkedObjects(const Tx& tx);

  // Reads an object's current (volatile) value. No locking is implied — the
  // weak queue deliberately performs unprotected reads (Section 4.2).
  Bytes ReadObject(const ObjectId& oid) { return segment_->Read(oid); }

  // One-shot convenience: PinAndBuffer + overwrite + LogAndUnPin.
  void WriteValue(const Tx& tx, const ObjectId& oid, Bytes new_value);

  // --- Table 3-1: transaction management ------------------------------------------
  // ExecuteTransaction: runs `body` inside a fresh top-level transaction
  // (the IO server writes output records this way, Section 4.3).
  Status ExecuteTransaction(const std::function<Status(const Tx&)>& body);

  // --- operation logging (the server library extension of Section 7) -----------------
  using OpFn = std::function<void(std::span<const std::uint8_t> args, Lsn lsn)>;
  void RegisterOperation(const std::string& op_name, OpFn fn);
  Lsn LogOperationRecord(const Tx& tx, const std::string& op_name,
                         std::span<const std::uint8_t> redo_args,
                         const std::string& undo_op_name,
                         std::span<const std::uint8_t> undo_args, std::span<const PageId> pages);

  // --- CommitParticipant ----------------------------------------------------------
  bool HasUpdates(const TransactionId& tid) override { return updates_.contains(tid); }
  void OnCommit(const TransactionId& tid) override;
  void OnAbort(const TransactionId& tid) override;
  void OnSubtxnCommit(const TransactionId& child, const TransactionId& parent) override;
  void RelockForRecovery(const TransactionId& tid, const log::LogRecord& rec) override;
  // Queue-oriented execution (only reached when the mode is on; see the
  // base-class declarations in transaction_manager.h).
  void OnEarlyRelease(const TransactionId& tid, bool taint) override;
  void CancelLockWaits(const TransactionId& tid) override;
  void OnAbortSettled(const TransactionId& tid) override;

 protected:
  void Join(const Tx& tx);

  // --- recoverable page allocation ----------------------------------------------
  // A pool of pages [first, end) with one in-use byte per page, page p's at
  // segment offset map_offset + (p - first). Each byte is an individually
  // locked, logged object, so if the allocating or freeing transaction
  // aborts, the byte reverts and the page with it.
  struct PagePool {
    std::uint32_t map_offset;
    PageNumber first;
    PageNumber end;
  };
  // Claims the first free page no other transaction is allocating or
  // freeing; kConflict when the pool is exhausted.
  Result<PageNumber> AllocatePage(const Tx& tx, const PagePool& pool);
  // The freeing transaction keeps the byte locked until commit, so the page
  // cannot be reused while the free might still be undone. If the lock is
  // unavailable the page stays allocated: a leak beats a deadlock.
  void FreePage(const Tx& tx, const PagePool& pool, PageNumber page);
  std::uint32_t PagesInUse(const PagePool& pool);

  ServerContext ctx_;
  Options options_;
  std::string name_;
  std::unique_ptr<kernel::RecoverableSegment> segment_;
  lock::LockManager locks_;

 private:
  // Runs `op` as an operation of `tx` on this node: refused once the
  // transaction can no longer take operations (a zombie op after an abort
  // cascade consumed it), otherwise joined to the transaction first.
  template <typename F>
  auto Serve(const Tx& tx, const F& op) -> decltype(op()) {
    if (ctx_.tm->RefusesOps(tx.tid)) {
      return Status::kAborted;
    }
    Join(tx);
    return op();
  }

  // The server side of a remote invocation: `op` wrapped to run on arrival
  // as a local operation of `tx`, under its own "server.call" span.
  template <typename F>
  auto Arrival(const Tx& tx, F op) {
    Tx local_tx = tx;
    local_tx.origin = node_id();  // on arrival, the op is local to this node
    return [this, local_tx, op = std::move(op)] {
      sim::SpanGuard span(substrate().tracer(), sim::Component::kDataServer, "server.call");
      return Serve(local_tx, op);
    };
  }

  ObjectId InUseByte(const PagePool& pool, PageNumber page) const {
    return CreateObjectId(pool.map_offset + (page - pool.first), 1);
  }

  struct StagedWrite {
    Bytes old_value;
    Bytes new_value;
  };
  std::map<std::pair<TransactionId, ObjectId>, StagedWrite> staged_;
  std::map<TransactionId, std::vector<ObjectId>> marked_;
  // Transactions with updates here; an ended one's node serves the next.
  std::set<TransactionId> updates_;
  NodeRecycler<std::set<TransactionId>> update_nodes_;
  std::map<std::string, OpFn> operations_;
};

}  // namespace tabs::server

#endif  // TABS_SERVER_DATA_SERVER_H_
