#include "src/servers/account_server.h"

#include <cstring>
#include <set>

#include "src/sim/fault_injector.h"

namespace tabs::servers {

namespace {

server::DataServer::Options MakeOptions(std::uint32_t accounts) {
  server::DataServer::Options o;
  o.pages = (accounts * 8 + kPageSize - 1) / kPageSize;
  // Typed compatibility: increments and decrements commute with each other
  // (and with themselves); reads conflict with updates; exclusive conflicts
  // with everything.
  lock::CompatibilityMatrix m(4);
  m.SetCompatible(lock::kShared, lock::kShared);
  m.SetCompatible(AccountServer::kIncrement, AccountServer::kIncrement);
  m.SetCompatible(AccountServer::kDecrement, AccountServer::kDecrement);
  m.SetCompatible(AccountServer::kIncrement, AccountServer::kDecrement);
  o.matrix = m;
  return o;
}

}  // namespace

AccountServer::AccountServer(const server::ServerContext& ctx, std::uint32_t accounts)
    : DataServer(ctx, MakeOptions(accounts)),
      accounts_(accounts),
      pending_decrement_(accounts),
      pending_increment_(accounts) {
  RegisterOperation("deposit", [this](std::span<const std::uint8_t> args, Lsn lsn) {
    std::uint32_t account;
    std::int64_t amount;
    std::memcpy(&account, args.data(), 4);
    std::memcpy(&amount, args.data() + 4, 8);
    ApplyDelta(account, amount, lsn);
  });
  RegisterOperation("withdraw", [this](std::span<const std::uint8_t> args, Lsn lsn) {
    std::uint32_t account;
    std::int64_t amount;
    std::memcpy(&account, args.data(), 4);
    std::memcpy(&amount, args.data() + 4, 8);
    ApplyDelta(account, -amount, lsn);
  });
}

AccountServer::AccountServer(const server::ServerContext& ctx, placement::ShardSlice slice,
                             std::uint64_t total_accounts)
    : AccountServer(ctx, static_cast<std::uint32_t>(slice.LocalSize(total_accounts))) {
  slice_ = slice;
}

std::int64_t AccountServer::CurrentBalance(std::uint32_t account) {
  std::int64_t v = 0;
  segment().Read(BalanceOid(account), reinterpret_cast<std::uint8_t*>(&v));
  return v;
}

void AccountServer::ApplyDelta(std::uint32_t account, std::int64_t delta, Lsn lsn) {
  std::int64_t v = CurrentBalance(account) + delta;
  ObjectId oid = BalanceOid(account);
  PinObject(oid);
  segment().Write(oid, reinterpret_cast<const std::uint8_t*>(&v), lsn);
  UnPinObject(oid);
}

Status AccountServer::LogDelta(const server::Tx& tx, std::uint32_t account,
                               std::int64_t delta, const char* op, const char* undo_op) {
  // The inverse takes the same arguments; both live on this task's stack
  // for as long as the apply that reads them.
  std::uint8_t args[12];
  std::memcpy(args, &account, 4);
  std::memcpy(args + 4, &delta, 8);
  const PageId page{segment().id(), BalanceOid(account).FirstPage()};
  LogOperationRecord(tx, op, args, undo_op, args, {&page, 1});
  return Status::kOk;
}

Status AccountServer::Deposit(const server::Tx& tx, std::uint32_t account,
                              std::int64_t amount) {
  auto r = Call<bool>(tx, "Deposit", [this, tx, account, amount]() -> Result<bool> {
    if (account >= accounts_ || amount <= 0) {
      return Status::kOutOfRange;
    }
    Status s = LockObject(tx, BalanceOid(account), kIncrement);
    if (s != Status::kOk) {
      return s;
    }
    pending_increment_[account] += amount;
    escrow_.push_back({tx.tid, account, amount, /*decrement=*/false});
    LogDelta(tx, account, amount, "deposit", "withdraw");
    return true;
  });
  return r.ok() ? Status::kOk : r.status();
}

Status AccountServer::Withdraw(const server::Tx& tx, std::uint32_t account,
                               std::int64_t amount) {
  auto r = Call<bool>(tx, "Withdraw", [this, tx, account, amount]() -> Result<bool> {
    if (account >= accounts_ || amount <= 0) {
      return Status::kOutOfRange;
    }
    Status s = LockObject(tx, BalanceOid(account), kDecrement);
    if (s != Status::kOk) {
      return s;
    }
    // Escrow admission: the guaranteed balance assumes every concurrent
    // withdrawal commits and every uncommitted deposit (already applied to
    // the in-memory balance) aborts.
    std::int64_t guaranteed = CurrentBalance(account) - pending_decrement_[account] -
                              pending_increment_[account];
    if (guaranteed < amount) {
      if (!ctx_.tm->queue_mode()) {
        return Status::kConflict;  // might overdraw; reject rather than wait
      }
      // Queue mode: park until escrowed funds free up (a concurrent
      // withdrawal aborts or a deposit commits), bounded by the lock
      // timeout. The kDecrement lock is already held and stays held — it is
      // compatible with every other update, so deposits flow underneath.
      sim::Scheduler& sched = substrate().scheduler();
      SimTime deadline = sched.Now() + options_.lock_timeout;
      FAULT_POINT(substrate(), "escrow.wait");
      while (guaranteed < amount) {
        if (sched.Now() >= deadline) {
          return Status::kConflict;  // funds never appeared
        }
        sched.WaitUntil(escrow_waiters_[account], deadline);
        if (ctx_.tm->RefusesOps(tx.tid)) {
          return Status::kAborted;  // cascade-aborted while parked
        }
        guaranteed = CurrentBalance(account) - pending_decrement_[account] -
                     pending_increment_[account];
      }
    }
    pending_decrement_[account] += amount;
    escrow_.push_back({tx.tid, account, amount, /*decrement=*/true});
    LogDelta(tx, account, amount, "withdraw", "deposit");
    return true;
  });
  return r.ok() ? Status::kOk : r.status();
}

Result<std::int64_t> AccountServer::ReadBalance(const server::Tx& tx, std::uint32_t account) {
  return Call<std::int64_t>(tx, "ReadBalance", [this, tx, account]() -> Result<std::int64_t> {
    if (account >= accounts_) {
      return Status::kOutOfRange;
    }
    Status s = LockObject(tx, BalanceOid(account), lock::kShared);
    if (s != Status::kOk) {
      return s;
    }
    return CurrentBalance(account);
  });
}

void AccountServer::SettleEscrow(const TransactionId& tid) {
  // Settling may free escrowed funds, so parked withdrawals on the touched
  // accounts wake (they re-test and re-park if still short). Only queue
  // mode parks any; std::set iteration keeps the wake order deterministic.
  const bool wake = !escrow_waiters_.empty();
  std::set<std::uint32_t> touched;
  std::erase_if(escrow_, [&](const Escrowed& e) {
    if (e.tid != tid) {
      return false;
    }
    (e.decrement ? pending_decrement_ : pending_increment_)[e.account] -= e.amount;
    if (wake) {
      touched.insert(e.account);
    }
    return true;
  });
  for (std::uint32_t account : touched) {
    auto it = escrow_waiters_.find(account);
    if (it != escrow_waiters_.end() && !it->second.empty()) {
      substrate().scheduler().NotifyAll(it->second);
    }
  }
}

void AccountServer::CancelLockWaits(const TransactionId& tid) {
  DataServer::CancelLockWaits(tid);
  // The victim may be parked in the escrow wait rather than a lock wait:
  // wake everything; innocents re-test and re-park, the victim unwinds
  // through RefusesOps.
  for (auto& [account, q] : escrow_waiters_) {
    if (!q.empty()) {
      substrate().scheduler().NotifyAll(q);
    }
  }
}

void AccountServer::OnCommit(const TransactionId& tid) {
  SettleEscrow(tid);
  DataServer::OnCommit(tid);
}

void AccountServer::OnAbort(const TransactionId& tid) {
  SettleEscrow(tid);
  DataServer::OnAbort(tid);
}

void AccountServer::OnSubtxnCommit(const TransactionId& child, const TransactionId& parent) {
  for (Escrowed& e : escrow_) {
    if (e.tid == child) {
      e.tid = parent;
    }
  }
  DataServer::OnSubtxnCommit(child, parent);
}

}  // namespace tabs::servers
