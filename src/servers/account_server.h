// The account server: the type-specific-locking data server the paper
// promises to explore (Section 4.6: "We intend to explore the type-specific
// locking capability of TABS with future data servers"; Section 2.1.2:
// "implementors can obtain increased concurrency by defining type-specific
// lock modes and lock protocols").
//
// Balances support Deposit and Withdraw operations locked in *increment* and
// *decrement* modes. Increments and decrements commute with each other, so
// any number of transactions may concurrently update the same account —
// something classic shared/exclusive locking forbids (the ablation bench
// measures the difference). Reads still need a shared lock, incompatible
// with in-flight updates, preserving serializability (Schwarz/Spector's
// typed-locking theory: modes conflict iff the operations fail to commute).
//
// Because concurrent transactions interleave updates on the same balance,
// before/after value logging would be wrong under this lock protocol (a
// value record's images capture other transactions' effects). The server
// therefore uses *operation logging*: Deposit/Withdraw log themselves with
// their inverse, undo is logical, and crash recovery replays operations
// under the page-sequence-number guard — the exact pairing of typed locking
// with operation logging the paper describes as the richer environment
// (Section 4.6).
//
// Withdrawals use escrow-style admission: a withdrawal is admitted only if
// it cannot overdraw even when every concurrent uncommitted withdrawal
// commits and every uncommitted deposit aborts.

#ifndef TABS_SERVERS_ACCOUNT_SERVER_H_
#define TABS_SERVERS_ACCOUNT_SERVER_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/placement/shard_map.h"
#include "src/server/data_server.h"

namespace tabs::servers {

class AccountServer : public server::DataServer {
 public:
  // Typed lock modes (0/1 keep their standard meanings).
  static constexpr lock::LockMode kIncrement = 2;
  static constexpr lock::LockMode kDecrement = 3;

  AccountServer(const server::ServerContext& ctx, std::uint32_t accounts);
  // Sharded-service constructor: this instance holds its slice's share of a
  // `total_accounts`-account logical bank (interleaved partitioning).
  AccountServer(const server::ServerContext& ctx, placement::ShardSlice slice,
                std::uint64_t total_accounts);

  const placement::ShardSlice& shard() const { return slice_; }

  Status Deposit(const server::Tx& tx, std::uint32_t account, std::int64_t amount);
  // kConflict when the escrow test fails (would risk overdraft).
  Status Withdraw(const server::Tx& tx, std::uint32_t account, std::int64_t amount);
  // Serializable read: shared lock, conflicts with in-flight updates.
  Result<std::int64_t> ReadBalance(const server::Tx& tx, std::uint32_t account);

  // Rebuild escrow tracking after a crash (no uncommitted updates survive).
  void Recover() override {
    pending_decrement_.assign(accounts_, 0);
    pending_increment_.assign(accounts_, 0);
    escrow_.clear();
  }

  // Escrow bookkeeping follows transaction outcomes.
  void OnCommit(const TransactionId& tid) override;
  void OnAbort(const TransactionId& tid) override;
  void OnSubtxnCommit(const TransactionId& child, const TransactionId& parent) override;
  // Queue mode: a cascade-abort victim may be parked in the escrow wait
  // rather than a lock wait; wake every escrow waiter so it unwinds.
  void CancelLockWaits(const TransactionId& tid) override;

 private:
  ObjectId BalanceOid(std::uint32_t account) const {
    return CreateObjectId(account * 8, 8);
  }
  std::int64_t CurrentBalance(std::uint32_t account);
  void ApplyDelta(std::uint32_t account, std::int64_t delta, Lsn lsn);
  Status LogDelta(const server::Tx& tx, std::uint32_t account, std::int64_t delta,
                  const char* op, const char* undo_op);
  void SettleEscrow(const TransactionId& tid);

  using PerAccount = std::vector<std::int64_t>;  // indexed by account
  // One uncommitted update's share of the escrow bookkeeping.
  struct Escrowed {
    TransactionId tid;
    std::uint32_t account;
    std::int64_t amount;
    bool decrement;  // a withdrawal; else a deposit
  };

  std::uint32_t accounts_;
  placement::ShardSlice slice_;  // {0, 1} unless service-sharded
  // Escrow bookkeeping: uncommitted withdrawals and deposits per account.
  // Volatile — the undo lists in the log are the durable truth; this only
  // guards admission. A withdrawal is admitted against the balance minus
  // every uncommitted withdrawal (they may all commit) minus every
  // uncommitted deposit (they may all abort, and they are already applied
  // to the in-memory balance). escrow_ holds each uncommitted update, so an
  // outcome can take its transaction's share back out of the pending sums.
  PerAccount pending_decrement_;
  PerAccount pending_increment_;
  std::vector<Escrowed> escrow_;
  // Queue mode only: withdrawals that failed the escrow test park here (per
  // account) instead of returning kConflict; SettleEscrow wakes them when a
  // transaction's outcome may have freed funds. Always empty when the mode
  // is off — mode-off admission stays a pure reject.
  std::map<std::uint32_t, sim::WaitQueue> escrow_waiters_;
};

}  // namespace tabs::servers

#endif  // TABS_SERVERS_ACCOUNT_SERVER_H_
