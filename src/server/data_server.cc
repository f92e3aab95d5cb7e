#include "src/server/data_server.h"

#include <cassert>

namespace tabs::server {

DataServer::DataServer(const ServerContext& ctx, Options options)
    : ctx_(ctx),
      options_(std::move(options)),
      name_(ctx.name),
      segment_(std::make_unique<kernel::RecoverableSegment>(
          ctx.node->substrate(), ctx.node->disk(), ctx.segment, options_.pages,
          options_.buffer_frames)),
      locks_(ctx.node->substrate().scheduler(), options_.matrix, options_.lock_timeout) {
  ctx_.rm->RegisterSegment(name_, segment_.get());
  recovery::OperationHooks hooks;
  hooks.apply = [this](const std::string& op, std::span<const std::uint8_t> args, Lsn lsn) {
    auto it = operations_.find(op);
    assert(it != operations_.end() && "operation record names an unregistered operation");
    it->second(args, lsn);
  };
  ctx_.rm->RegisterOperationHooks(name_, hooks);
  if (ctx_.tm != nullptr && ctx_.tm->queue_mode()) {
    // Queue-oriented execution: every grant reports to the op queue (so a
    // successor touching an early-released object picks up a commit
    // dependency), grants on objects whose releaser is mid-abort are vetoed,
    // and requests from a transaction that is itself being cascade-aborted
    // fail instead of handing a zombie task a lock.
    txn::TransactionManager* tm = ctx_.tm;
    locks_.SetGrantSink([tm](const TransactionId& tid, const ObjectId& oid) {
      tm->op_queue().NoteAccess(tm->TopOf(tid), oid);
    });
    locks_.SetGrantVeto(
        [tm](const ObjectId& oid) { return tm->op_queue().GrantVetoed(oid); });
    locks_.SetRequesterVeto(
        [tm](const TransactionId& tid) { return tm->RefusesOps(tid); });
  }
}

void DataServer::Join(const Tx& tx) {
  ctx_.tm->JoinServer(tx.tid, tx.top, this);
}

Status DataServer::LockObject(const Tx& tx, const ObjectId& oid, lock::LockMode mode) {
  // A library call is an operation on behalf of tx: the server announces
  // itself to the Transaction Manager on first contact (idempotent), so
  // commit/abort cleanup always reaches it even when the call bypassed the
  // request dispatcher (ExecuteTransaction bodies, nested helpers).
  sim::SpanGuard span(substrate().tracer(), sim::Component::kDataServer, "lock.acquire",
                      substrate().tracer().enabled() ? ToString(oid) : std::string());
  Join(tx);
  return locks_.Lock(tx.tid, oid, mode);
}

bool DataServer::ConditionallyLockObject(const Tx& tx, const ObjectId& oid,
                                         lock::LockMode mode) {
  Join(tx);
  return locks_.ConditionalLock(tx.tid, oid, mode);
}

void DataServer::PinAndBuffer(const Tx& tx, const ObjectId& oid) {
  Join(tx);
  segment_->Pin(oid);
  Bytes current = segment_->Read(oid);
  StagedWrite sw;
  sw.old_value = current;
  sw.new_value = std::move(current);
  staged_[{tx.tid, oid}] = std::move(sw);
}

Bytes& DataServer::Staged(const Tx& tx, const ObjectId& oid) {
  auto it = staged_.find({tx.tid, oid});
  assert(it != staged_.end() && "Staged() without PinAndBuffer()");
  return it->second.new_value;
}

void DataServer::LogAndUnPin(const Tx& tx, const ObjectId& oid) {
  auto staged = staged_.extract({tx.tid, oid});
  assert(!staged.empty() && "LogAndUnPin() without PinAndBuffer()");
  // The buffered old value and the new value travel to the Recovery Manager
  // (one large local message of log data), which appends the record and
  // applies the new value to the segment under the record's LSN.
  substrate().ChargeSystemMessage(sim::Primitive::kLargeMessage, 1);
  substrate().ChargeSystemMessage(sim::Primitive::kSmallMessage, 2);  // pin/unpin kernel msgs
  // LogValue can yield inside automatic log reclamation, and an abort of
  // this transaction may run meanwhile. The write is already out of
  // staged_, so the abort's cleanup cannot free or unpin it, and the update
  // mark is set first, so that cleanup clears it.
  update_nodes_.Get(updates_, tx.tid);
  ctx_.rm->LogValue(tx.tid, tx.top, name_, oid, std::move(staged.mapped().old_value),
                    std::move(staged.mapped().new_value));
  segment_->Unpin(oid);
}

Status DataServer::LockAndMark(const Tx& tx, const ObjectId& oid, lock::LockMode mode) {
  Status s = LockObject(tx, oid, mode);
  if (s != Status::kOk) {
    return s;
  }
  marked_[tx.tid].push_back(oid);
  return Status::kOk;
}

void DataServer::PinAndBufferMarkedObjects(const Tx& tx) {
  auto it = marked_.find(tx.tid);
  if (it == marked_.end()) {
    return;
  }
  for (const ObjectId& oid : it->second) {
    PinAndBuffer(tx, oid);
  }
}

void DataServer::LogAndUnPinMarkedObjects(const Tx& tx) {
  auto it = marked_.find(tx.tid);
  if (it == marked_.end()) {
    return;
  }
  for (const ObjectId& oid : it->second) {
    LogAndUnPin(tx, oid);
  }
  marked_.erase(it);
}

void DataServer::WriteValue(const Tx& tx, const ObjectId& oid, Bytes new_value) {
  PinAndBuffer(tx, oid);
  Staged(tx, oid) = std::move(new_value);
  LogAndUnPin(tx, oid);
}

Result<PageNumber> DataServer::AllocatePage(const Tx& tx, const PagePool& pool) {
  for (PageNumber p = pool.first; p < pool.end; ++p) {
    ObjectId byte = InUseByte(pool, p);
    if (IsObjectLocked(byte) || ReadObject(byte)[0] != 0) {
      continue;  // another transaction is allocating/freeing it, or in use
    }
    if (!ConditionallyLockObject(tx, byte, lock::kExclusive)) {
      continue;
    }
    if (ReadObject(byte)[0] != 0) {
      continue;  // raced; lock retained harmlessly until commit
    }
    PinAndBuffer(tx, byte);
    Staged(tx, byte)[0] = 1;
    LogAndUnPin(tx, byte);
    return p;
  }
  return Status::kConflict;
}

void DataServer::FreePage(const Tx& tx, const PagePool& pool, PageNumber page) {
  ObjectId byte = InUseByte(pool, page);
  if (LockObject(tx, byte, lock::kExclusive) != Status::kOk) {
    return;
  }
  PinAndBuffer(tx, byte);
  Staged(tx, byte)[0] = 0;
  LogAndUnPin(tx, byte);
}

std::uint32_t DataServer::PagesInUse(const PagePool& pool) {
  std::uint32_t n = 0;
  for (PageNumber p = pool.first; p < pool.end; ++p) {
    if (ReadObject(InUseByte(pool, p))[0] != 0) {
      ++n;
    }
  }
  return n;
}

Status DataServer::ExecuteTransaction(const std::function<Status(const Tx&)>& body) {
  TransactionId tid = ctx_.tm->Begin();
  Tx tx{tid, tid, node_id(), ctx_.cm};
  // The body operates on this server directly (no dispatch), so the first-
  // operation announcement to the Transaction Manager happens here.
  Join(tx);
  Status s = body(tx);
  if (s == Status::kOk) {
    return ctx_.tm->End(tid);
  }
  ctx_.tm->Abort(tid);
  return s;
}

void DataServer::RegisterOperation(const std::string& op_name, OpFn fn) {
  operations_[op_name] = std::move(fn);
}

Lsn DataServer::LogOperationRecord(const Tx& tx, const std::string& op_name,
                                   std::span<const std::uint8_t> redo_args,
                                   const std::string& undo_op_name,
                                   std::span<const std::uint8_t> undo_args,
                                   std::span<const PageId> pages) {
  Join(tx);
  substrate().ChargeSystemMessage(sim::Primitive::kLargeMessage, 1);
  substrate().ChargeSystemMessage(sim::Primitive::kSmallMessage, 2);
  update_nodes_.Get(updates_, tx.tid);
  return ctx_.rm->LogOperation(tx.tid, tx.top, name_, op_name, redo_args, undo_op_name,
                               undo_args, pages);
}

void DataServer::OnCommit(const TransactionId& tid) {
  locks_.ReleaseAll(tid);
  update_nodes_.Keep(updates_.extract(tid));
  marked_.erase(tid);
  // Any staged-but-unlogged writes vanish (they were never applied).
  for (auto it = staged_.begin(); it != staged_.end();) {
    if (it->first.first == tid) {
      segment_->Unpin(it->first.second);
      it = staged_.erase(it);
    } else {
      ++it;
    }
  }
}

void DataServer::OnAbort(const TransactionId& tid) {
  OnCommit(tid);  // identical cleanup; the undo itself ran through the RM
}

void DataServer::OnSubtxnCommit(const TransactionId& child, const TransactionId& parent) {
  locks_.InheritToParent(child, parent);
  if (auto node = updates_.extract(child); !node.empty()) {
    node.value() = parent;
    update_nodes_.Keep(updates_.insert(std::move(node)).node);  // parent had updates too
  }
  marked_.erase(child);
}

void DataServer::OnEarlyRelease(const TransactionId& tid, bool taint) {
  if (taint) {
    // In-doubt release: register the released objects as tainted BEFORE any
    // successor can be granted one, so the grant sink sees the tail.
    ctx_.tm->op_queue().NoteEarlyRelease(ctx_.tm->TopOf(tid), locks_.LocksHeldBy(tid));
  }
  // Locks drop now; updates_/staged_ stay — the outcome (OnCommit/OnAbort)
  // still needs them for HasUpdates and cleanup.
  locks_.ReleaseAll(tid);
}

void DataServer::CancelLockWaits(const TransactionId& tid) {
  locks_.CancelWaits(tid);
}

void DataServer::OnAbortSettled(const TransactionId& tid) {
  (void)tid;
  locks_.GrantAllEligible();
}

void DataServer::RelockForRecovery(const TransactionId& tid, const log::LogRecord& rec) {
  update_nodes_.Get(updates_, tid);
  if (rec.IsValueStyle()) {
    locks_.ConditionalLock(tid, rec.oid, lock::kExclusive);
    return;
  }
  // Operation records: lock the touched pages wholesale.
  for (const PageId& p : rec.pages) {
    locks_.ConditionalLock(tid, ObjectId{p.segment, p.page * kPageSize, kPageSize},
                           lock::kExclusive);
  }
}

}  // namespace tabs::server
