// Account server tests: type-specific (increment/decrement) locking,
// escrow admission, operation-logged undo/redo, crash recovery, and the
// concurrency win over shared/exclusive locking.

#include "src/servers/account_server.h"

#include <gtest/gtest.h>

#include "src/tabs/world.h"

namespace tabs {
namespace {

using servers::AccountServer;

class AccountTest : public ::testing::Test {
 protected:
  AccountTest() : world_(2) {
    acct_ = world_.AddServerOf<AccountServer>(1, "accounts", 16u);
  }
  void Refresh() { acct_ = world_.Server<AccountServer>(1, "accounts"); }

  World world_;
  AccountServer* acct_;
};

TEST_F(AccountTest, DepositWithdrawReadBalance) {
  world_.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(acct_->Deposit(tx, 0, 100), Status::kOk);
      return Status::kOk;
    });
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(acct_->Withdraw(tx, 0, 30), Status::kOk);
      return Status::kOk;
    });
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(acct_->ReadBalance(tx, 0).value(), 70);
      return Status::kOk;
    });
  });
}

TEST_F(AccountTest, ConcurrentDepositsDoNotBlock) {
  // The typed matrix makes increment locks compatible: two live
  // transactions update the same account with no waiting.
  world_.RunApp(1, [&](Application& app) {
    TransactionId t1 = app.Begin();
    TransactionId t2 = app.Begin();
    SimTime before = world_.scheduler().Now();
    EXPECT_EQ(acct_->Deposit(app.MakeTx(t1), 0, 10), Status::kOk);
    EXPECT_EQ(acct_->Deposit(app.MakeTx(t2), 0, 20), Status::kOk);  // no lock wait
    SimTime elapsed = world_.scheduler().Now() - before;
    // Both ran without any lock timeout (5 s) entering the latency.
    EXPECT_LT(elapsed, 1'000'000);
    EXPECT_EQ(app.End(t1), Status::kOk);
    EXPECT_EQ(app.End(t2), Status::kOk);
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(acct_->ReadBalance(tx, 0).value(), 30);
      return Status::kOk;
    });
  });
}

TEST_F(AccountTest, ConcurrentMixedUpdatesCommute) {
  world_.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) { return acct_->Deposit(tx, 0, 100); });
    TransactionId dep = app.Begin();
    TransactionId wdr = app.Begin();
    EXPECT_EQ(acct_->Deposit(app.MakeTx(dep), 0, 5), Status::kOk);
    EXPECT_EQ(acct_->Withdraw(app.MakeTx(wdr), 0, 50), Status::kOk);  // commutes
    app.End(wdr);
    app.End(dep);
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(acct_->ReadBalance(tx, 0).value(), 55);
      return Status::kOk;
    });
  });
}

TEST_F(AccountTest, ReadConflictsWithInFlightUpdate) {
  // Serializability is preserved: a reader cannot observe a balance while an
  // uncommitted update holds an increment lock.
  world_.RunApp(1, [&](Application& app) {
    TransactionId t = app.Begin();
    acct_->Deposit(app.MakeTx(t), 0, 10);
    TransactionId reader = app.Begin();
    auto v = acct_->ReadBalance(app.MakeTx(reader), 0);
    EXPECT_EQ(v.status(), Status::kTimeout);
    app.Abort(reader);
    app.End(t);
  });
}

TEST_F(AccountTest, AbortUndoesDepositLogically) {
  world_.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) { return acct_->Deposit(tx, 0, 100); });
    TransactionId t = app.Begin();
    acct_->Deposit(app.MakeTx(t), 0, 40);
    app.Abort(t);
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(acct_->ReadBalance(tx, 0).value(), 100);
      return Status::kOk;
    });
  });
}

TEST_F(AccountTest, AbortUndoesOnlyOwnEffectUnderConcurrency) {
  // The operation-logging point: with interleaved updates on the same
  // balance, undo must be logical (subtract my deposit), not value-based
  // (restore my before-image, which would erase the other transaction too).
  world_.RunApp(1, [&](Application& app) {
    TransactionId a = app.Begin();
    TransactionId b = app.Begin();
    acct_->Deposit(app.MakeTx(a), 0, 10);
    acct_->Deposit(app.MakeTx(b), 0, 200);
    app.Abort(a);              // must not erase b's 200
    EXPECT_EQ(app.End(b), Status::kOk);
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(acct_->ReadBalance(tx, 0).value(), 200);
      return Status::kOk;
    });
  });
}

TEST_F(AccountTest, EscrowRejectsRiskyWithdrawal) {
  world_.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) { return acct_->Deposit(tx, 0, 100); });
    TransactionId w1 = app.Begin();
    EXPECT_EQ(acct_->Withdraw(app.MakeTx(w1), 0, 80), Status::kOk);
    // A second withdrawal of 80 might overdraw if both commit: rejected
    // immediately (kConflict), no waiting.
    TransactionId w2 = app.Begin();
    EXPECT_EQ(acct_->Withdraw(app.MakeTx(w2), 0, 80), Status::kConflict);
    app.Abort(w2);
    app.End(w1);
    // After w1 commits, the headroom is real.
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(acct_->Withdraw(tx, 0, 20), Status::kOk);
      return Status::kOk;
    });
  });
}

TEST_F(AccountTest, UncommittedDepositCannotFundWithdrawal) {
  world_.RunApp(1, [&](Application& app) {
    TransactionId dep = app.Begin();
    acct_->Deposit(app.MakeTx(dep), 0, 100);
    // The 100 is applied in memory but could abort: a withdrawal against it
    // must be refused.
    TransactionId wdr = app.Begin();
    EXPECT_EQ(acct_->Withdraw(app.MakeTx(wdr), 0, 50), Status::kConflict);
    app.Abort(wdr);
    app.Abort(dep);
  });
}

TEST_F(AccountTest, SubtransactionEscrowPassesToItsParent) {
  world_.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) { return acct_->Deposit(tx, 0, 100); });
    TransactionId parent = app.Begin();
    TransactionId child = app.Begin(parent);
    EXPECT_EQ(acct_->Withdraw(app.MakeTx(child), 0, 60), Status::kOk);
    EXPECT_EQ(app.End(child), Status::kOk);
    // The child's 60 stays escrowed under its parent.
    TransactionId other = app.Begin();
    EXPECT_EQ(acct_->Withdraw(app.MakeTx(other), 0, 50), Status::kConflict);
    app.Abort(other);
    // The parent's abort undoes the withdrawal and releases its escrow.
    app.Abort(parent);
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(acct_->Withdraw(tx, 0, 100), Status::kOk);
      return Status::kOk;
    });
  });
}

TEST_F(AccountTest, CommittedBalancesSurviveCrashViaOperationRecovery) {
  world_.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      acct_->Deposit(tx, 0, 100);
      acct_->Deposit(tx, 1, 50);
      return Status::kOk;
    });
    app.Transaction([&](const server::Tx& tx) { return acct_->Withdraw(tx, 0, 25); });
    // One loser in flight at the crash.
    TransactionId t = app.Begin();
    acct_->Deposit(app.MakeTx(t), 1, 999);
    world_.rm(1).log().ForceAll();
    world_.CrashNode(1);
  });
  world_.RunApp(2, [&](Application& app) {
    auto stats = world_.RecoverNode(1);
    EXPECT_EQ(stats.passes, 3);  // operation records force the 3-pass algorithm
    EXPECT_EQ(stats.losers.size(), 1u);
    Refresh();
  });
  world_.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(acct_->ReadBalance(tx, 0).value(), 75);
      EXPECT_EQ(acct_->ReadBalance(tx, 1).value(), 50);  // loser's 999 undone
      return Status::kOk;
    });
  });
}

TEST_F(AccountTest, ManyConcurrentUpdatersConserveMoney) {
  world_.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) { return acct_->Deposit(tx, 0, 1000); });
  });
  int committed_deposits = 0;
  int committed_withdrawals = 0;
  for (int i = 0; i < 8; ++i) {
    world_.SpawnApp(1, "updater", [&, i](Application& app) {
      for (int r = 0; r < 5; ++r) {
        Status s = app.Transaction([&](const server::Tx& tx) {
          if ((i + r) % 2 == 0) {
            return acct_->Deposit(tx, 0, 7);
          }
          return acct_->Withdraw(tx, 0, 3);
        });
        if (s == Status::kOk) {
          if ((i + r) % 2 == 0) {
            ++committed_deposits;
          } else {
            ++committed_withdrawals;
          }
        }
      }
    }, i * 1'000);
  }
  EXPECT_EQ(world_.Drain(), 0);
  world_.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      std::int64_t expect = 1000 + 7 * committed_deposits - 3 * committed_withdrawals;
      EXPECT_EQ(acct_->ReadBalance(tx, 0).value(), expect);
      return Status::kOk;
    });
  });
}

TEST_F(AccountTest, InvalidArguments) {
  world_.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(acct_->Deposit(tx, 999, 1), Status::kOutOfRange);
      EXPECT_EQ(acct_->Deposit(tx, 0, 0), Status::kOutOfRange);
      EXPECT_EQ(acct_->Withdraw(tx, 0, -5), Status::kOutOfRange);
      EXPECT_EQ(acct_->ReadBalance(tx, 999).status(), Status::kOutOfRange);
      return Status::kOk;
    });
  });
}

}  // namespace
}  // namespace tabs
