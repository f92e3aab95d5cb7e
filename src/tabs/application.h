// Application: a TABS application process on one node.
//
// Applications "initiate transactions and call data servers to perform
// operations on objects" (Section 3). This handle wraps the transaction
// management library of Table 3-2 — BeginTransaction / EndTransaction /
// AbortTransaction / TransactionIsAborted — and mints the Tx contexts that
// data-server operations take.

#ifndef TABS_TABS_APPLICATION_H_
#define TABS_TABS_APPLICATION_H_

#include <exception>
#include <functional>
#include <utility>
#include <vector>

#include "src/comm/comm_manager.h"
#include "src/common/result.h"
#include "src/server/data_server.h"
#include "src/txn/transaction_manager.h"

namespace tabs {

class Application {
 public:
  // A transaction body. It never outlives the call that runs it.
  using TxnBody = sim::InlineFunction<Status(const server::Tx&), sim::kTaskFnBytes>;

  Application(NodeId node, txn::TransactionManager& tm, comm::CommManager& cm)
      : node_(node), tm_(&tm), cm_(&cm) {}

  NodeId node() const { return node_; }
  txn::TransactionManager& tm() { return *tm_; }
  comm::CommManager& cm() { return *cm_; }

  // BeginTransaction(TransactionID) — the null TID begins a top-level
  // transaction; a live TID begins a subtransaction of it.
  TransactionId Begin(const TransactionId& parent = kNullTransaction) {
    return tm_->Begin(parent);
  }
  // EndTransaction — commit. Returns kOk, or why the transaction did not commit.
  Status End(const TransactionId& tid) { return tm_->End(tid); }
  // AbortTransaction.
  void Abort(const TransactionId& tid) { tm_->Abort(tid); }
  // The TransactionIsAborted exception, as a query.
  bool TransactionIsAborted(const TransactionId& tid) { return tm_->IsAborted(tid); }

  // The context handed to data-server operations for `tid`.
  server::Tx MakeTx(const TransactionId& tid) {
    return server::Tx{tid, tm_->TopOf(tid), node_, cm_};
  }

  // Begin + body + End/Abort in one call. The body returns kOk to commit.
  Status Transaction(const TxnBody& body) {
    TransactionId tid = Begin();
    Status s = body(MakeTx(tid));
    if (s == Status::kOk) {
      return End(tid);
    }
    Abort(tid);
    return s;
  }

  struct RetryPolicy;
  struct RunResult;
  // Runs `body` as a transaction, retrying (fresh transaction, capped
  // exponential virtual-time backoff) when it ends for a transient reason:
  // a participant voting no, a lock-wait timeout (TABS's deadlock breaker,
  // Section 2.1.2), or an abort — e.g. a deadlock-detector sacrifice.
  // Non-retryable statuses (kNotFound, kNodeDown, ...) return immediately.
  RunResult RunTransactional(const TxnBody& body, const RetryPolicy& policy);
  RunResult RunTransactional(const TxnBody& body);

  class AsyncOps;
  // A joiner for the asynchronous fast path (see class below). `timeout`
  // bounds each awaited future — callers with their own session budget pass
  // it here instead of hardcoding Network::kDefaultSessionTimeout.
  AsyncOps Parallel(SimTime timeout = comm::Network::kDefaultSessionTimeout);

 private:
  NodeId node_;
  txn::TransactionManager* tm_;
  comm::CommManager* cm_;
};

// The join half of the parallel-ops API: collects the chunk futures minted
// by the servers' Async* operations and awaits them all. AddBatch()
// registers pending chunks; Join() waits for every one (in issue order, so
// the caller's clock advances to the latest completion) and returns kOk or
// the first failure. A future left empty by a destination crash surfaces as
// kNodeDown after a session timeout, exactly like a blocked synchronous
// call.
//
// Join() must be called before the transaction Ends: TABS pipelines only
// within the pre-commit phase, so every operation's verdict is known before
// the commit protocol starts (the paper's failure semantics are unchanged).
class Application::AsyncOps {
 public:
  explicit AsyncOps(SimTime timeout = comm::Network::kDefaultSessionTimeout)
      : timeout_(timeout) {}

  // A coalesced chunk (DataServer::AsyncCallChunks): the outer Result is the
  // session verdict, the inner per-op Results are each operation's own.
  template <typename R>
  void AddBatch(sim::FuturePtr<Result<std::vector<Result<R>>>> f) {
    waits_.push_back([f = std::move(f), timeout = timeout_]() -> Status {
      if (!f->Await(timeout)) {
        return Status::kNodeDown;  // broken session: the reply never came
      }
      if (!f->value().ok()) {
        return f->value().status();
      }
      for (const Result<R>& r : f->value().value()) {
        if (!r.ok()) {
          return r.status();
        }
      }
      return Status::kOk;
    });
  }
  template <typename R>
  void AddBatch(std::vector<sim::FuturePtr<Result<std::vector<Result<R>>>>> fs) {
    for (auto& f : fs) {
      AddBatch<R>(std::move(f));
    }
  }

  size_t pending() const { return waits_.size(); }

  // Awaits everything added so far, in issue order. Returns the first
  // non-kOk status (later operations are still awaited, so the window fully
  // drains and the caller's clock reflects every completion).
  Status Join() {
    Status first = Status::kOk;
    for (auto& wait : waits_) {
      Status s = wait();
      if (s != Status::kOk && first == Status::kOk) {
        first = s;
      }
    }
    waits_.clear();
    return first;
  }

 private:
  SimTime timeout_;
  std::vector<std::function<Status()>> waits_;
};

inline Application::AsyncOps Application::Parallel(SimTime timeout) {
  return AsyncOps(timeout);
}

// An RAII transaction handle: the constructor Begins (optionally as a
// subtransaction), Commit()/Abort() finish it explicitly, and the destructor
// aborts anything still live — so an early return or an exception can never
// leak a transaction holding locks. The raw Begin/End/Abort trio on
// Application remains the paper-faithful layer (Table 3-2) underneath.
class TxnScope {
 public:
  explicit TxnScope(Application& app, const TransactionId& parent = kNullTransaction)
      : app_(&app), tid_(app.Begin(parent)) {}
  TxnScope(TxnScope&& o) noexcept
      : app_(o.app_), tid_(o.tid_), live_(std::exchange(o.live_, false)) {}
  TxnScope(const TxnScope&) = delete;
  TxnScope& operator=(const TxnScope&) = delete;
  TxnScope& operator=(TxnScope&&) = delete;

  ~TxnScope() {
    // Auto-abort a still-live transaction — but not while unwinding a
    // TaskKilled (node crash): the dead node's TM is gone, and aborting
    // charges virtual time, which a killed task must not do.
    if (live_ && std::uncaught_exceptions() == 0) {
      app_->Abort(tid_);
    }
  }

  const TransactionId& id() const { return tid_; }
  bool live() const { return live_; }
  // The context handed to data-server operations.
  server::Tx tx() const { return app_->MakeTx(tid_); }

  // EndTransaction. The scope is finished regardless of the verdict (a
  // failed commit already aborted server-side).
  Status Commit() {
    live_ = false;
    return app_->End(tid_);
  }
  // AbortTransaction, explicitly.
  void Abort() {
    live_ = false;
    app_->Abort(tid_);
  }

 private:
  Application* app_;
  TransactionId tid_;
  bool live_ = true;
};

// Retry tuning for Application::RunTransactional.
struct Application::RetryPolicy {
  int max_attempts = 8;
  SimTime initial_backoff_us = 10'000;   // 10 ms virtual
  double backoff_multiplier = 2.0;
  SimTime max_backoff_us = 1'280'000;    // cap: 1.28 s virtual
  // Jitter: each wait is drawn uniformly from [backoff*(1-jitter), backoff],
  // so applications that aborted each other don't retry in lockstep and
  // re-collide on the same locks. Deterministic: the generator is seeded
  // from `jitter_seed` and the first attempt's transaction id, both fixed
  // per (seed, schedule) — same world seed, same waits. 0 disables.
  double jitter = 0.5;
  std::uint64_t jitter_seed = 0;

  // Transient outcomes worth a fresh attempt. kAborted covers deadlock
  // sacrifices (detector picks a victim) and peer-initiated aborts.
  static bool Retryable(Status s) {
    return s == Status::kVoteNo || s == Status::kTimeout || s == Status::kAborted;
  }
};

struct Application::RunResult {
  Status status = Status::kAborted;  // terminal status of the last attempt
  int attempts = 0;                  // bodies run (>= 1)

  bool ok() const { return status == Status::kOk; }
};

}  // namespace tabs

#endif  // TABS_TABS_APPLICATION_H_
