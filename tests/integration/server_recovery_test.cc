// Single-server crash and recovery (Section 7 future work): one data server
// process dies; the node, its other servers, and unrelated transactions keep
// running; the server recovers from the common log alone.

#include <gtest/gtest.h>

#include "src/servers/account_server.h"
#include "src/servers/array_server.h"
#include "src/tabs/world.h"

namespace tabs {
namespace {

using servers::AccountServer;
using servers::ArrayServer;

class ServerRecoveryTest : public ::testing::Test {
 protected:
  ServerRecoveryTest() : world_(2) {
    a_ = world_.AddServerOf<ArrayServer>(1, "a", 32u);
    b_ = world_.AddServerOf<ArrayServer>(1, "b", 32u);
  }
  void RefreshA() { a_ = world_.Server<ArrayServer>(1, "a"); }

  World world_;
  ArrayServer* a_;
  ArrayServer* b_;
};

TEST_F(ServerRecoveryTest, CommittedDataSurvivesServerRestart) {
  world_.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      a_->SetCell(tx, 0, 11);
      b_->SetCell(tx, 0, 22);
      return Status::kOk;
    });
    world_.CrashServer(1, "a");
    auto stats = world_.RecoverServer(1, "a");
    EXPECT_EQ(stats.losers.size(), 0u);
    RefreshA();
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(a_->GetCell(tx, 0).value(), 11);
      EXPECT_EQ(b_->GetCell(tx, 0).value(), 22);  // untouched throughout
      return Status::kOk;
    });
  });
}

TEST_F(ServerRecoveryTest, ActiveTransactionsUsingTheServerAbort) {
  world_.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      a_->SetCell(tx, 0, 1);
      b_->SetCell(tx, 0, 1);
      return Status::kOk;
    });
    // An in-flight transaction touches BOTH servers when "a" dies.
    TransactionId t = app.Begin();
    a_->SetCell(app.MakeTx(t), 0, 99);
    b_->SetCell(app.MakeTx(t), 0, 99);
    world_.CrashServer(1, "a");
    EXPECT_TRUE(app.TransactionIsAborted(t));
    // The b-side write was rolled back immediately (b is alive)...
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(b_->GetCell(tx, 0).value(), 1);
      return Status::kOk;
    });
    // ...and the a-side write rolls back when the server recovers.
    world_.RecoverServer(1, "a");
    RefreshA();
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(a_->GetCell(tx, 0).value(), 1);
      return Status::kOk;
    });
  });
}

TEST_F(ServerRecoveryTest, OtherServersKeepWorkingWhileOneIsDown) {
  world_.RunApp(1, [&](Application& app) {
    world_.CrashServer(1, "a");
    // Node 1 is alive: b accepts transactions while a is down.
    Status s = app.Transaction([&](const server::Tx& tx) {
      return b_->SetCell(tx, 5, 55);
    });
    EXPECT_EQ(s, Status::kOk);
    world_.RecoverServer(1, "a");
    RefreshA();
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(b_->GetCell(tx, 5).value(), 55);
      EXPECT_EQ(a_->GetCell(tx, 0).value(), 0);
      return Status::kOk;
    });
  });
}

TEST_F(ServerRecoveryTest, RepeatedServerRestartCycles) {
  world_.RunApp(1, [&](Application& app) {
    for (int round = 1; round <= 3; ++round) {
      app.Transaction([&](const server::Tx& tx) {
        a_->SetCell(tx, 1, round);
        return Status::kOk;
      });
      world_.CrashServer(1, "a");
      world_.RecoverServer(1, "a");
      RefreshA();
      app.Transaction([&](const server::Tx& tx) {
        EXPECT_EQ(a_->GetCell(tx, 1).value(), round);
        return Status::kOk;
      });
    }
  });
}

TEST_F(ServerRecoveryTest, ServerRecoveryScansOnlyItsOwnRecordsIntoSegment) {
  world_.RunApp(1, [&](Application& app) {
    for (int i = 0; i < 10; ++i) {
      app.Transaction([&](const server::Tx& tx) {
        a_->SetCell(tx, static_cast<std::uint32_t>(i), i);
        b_->SetCell(tx, static_cast<std::uint32_t>(i), -i);
        return Status::kOk;
      });
    }
    world_.CrashServer(1, "a");
    auto stats = world_.RecoverServer(1, "a");
    RefreshA();
    // Correct values on both servers: a's from log replay, b's untouched.
    app.Transaction([&](const server::Tx& tx) {
      for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(a_->GetCell(tx, static_cast<std::uint32_t>(i)).value(), i);
        EXPECT_EQ(b_->GetCell(tx, static_cast<std::uint32_t>(i)).value(), -i);
      }
      return Status::kOk;
    });
    EXPECT_GT(stats.records_scanned, 0);
  });
}

// An operation-logged server crashes under an active deposit. The abort
// that follows skips the crashed server's record, so the deposit is in the
// log with an abort record and no compensation: recovery must still roll it
// back, although the transaction is no loser.
class AccountServerRecoveryTest : public ::testing::Test {
 protected:
  AccountServerRecoveryTest() : world_(2) {
    arr_ = world_.AddServerOf<ArrayServer>(1, "arr", 4u);
    acc_ = world_.AddServerOf<AccountServer>(1, "acc", 16u);
  }

  // Commits a deposit of 100, then lets a transaction deposit 7 into the
  // same account and crashes "acc", which aborts it.
  void DepositThenCrashServer(Application& app) {
    app.Transaction([&](const server::Tx& tx) { return acc_->Deposit(tx, 0, 100); });
    TransactionId t = app.Begin();
    ASSERT_EQ(acc_->Deposit(app.MakeTx(t), 0, 7), Status::kOk);
    world_.CrashServer(1, "acc");
    ASSERT_TRUE(app.TransactionIsAborted(t));
  }

  void ExpectBalance(Application& app, std::int64_t expected) {
    acc_ = world_.Server<AccountServer>(1, "acc");
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(acc_->ReadBalance(tx, 0).value(), expected);
      return Status::kOk;
    });
  }

  World world_;
  ArrayServer* arr_;
  AccountServer* acc_;
};

TEST_F(AccountServerRecoveryTest, AbortedDepositStaysRolledBackAfterServerRecovery) {
  world_.RunApp(1, [&](Application& app) {
    DepositThenCrashServer(app);
    // An unrelated commit forces the deposit and its abort record.
    app.Transaction([&](const server::Tx& tx) { return arr_->SetCell(tx, 0, 1); });
    auto stats = world_.RecoverServer(1, "acc");
    EXPECT_TRUE(stats.losers.empty());
    EXPECT_EQ(stats.operations_redone, 2);
    EXPECT_EQ(stats.operations_undone, 1);
    ExpectBalance(app, 100);
  });
}

TEST_F(AccountServerRecoveryTest, AbortedDepositStaysRolledBackAfterNodeRecovery) {
  world_.RunApp(1, [&](Application& app) {
    DepositThenCrashServer(app);
    // Nothing forced the deposit: the server recovers without it, and its
    // recovery's final force makes it durable.
    world_.RecoverServer(1, "acc");
    ExpectBalance(app, 100);
    world_.CrashNode(1);
  });
  world_.RunApp(2, [&](Application& app) { world_.RecoverNode(1); });
  world_.RunApp(1, [&](Application& app) { ExpectBalance(app, 100); });
}

}  // namespace
}  // namespace tabs
