// Transaction Manager unit tests: identifier allocation, transaction tree,
// state machine, outcome queries, and the active-transaction table.

#include "src/txn/transaction_manager.h"

#include <gtest/gtest.h>

#include "src/servers/array_server.h"
#include "src/tabs/world.h"

namespace tabs {
namespace {

using txn::TxnState;

class TmTest : public ::testing::Test {
 protected:
  TmTest() : world_(2) {
    arr_ = world_.AddServerOf<servers::ArrayServer>(1, "arr", 16u);
  }

  World world_;
  servers::ArrayServer* arr_;
};

TEST_F(TmTest, TidsAreUniqueAndNodeTagged) {
  world_.RunApp(1, [&](Application& app) {
    TransactionId a = app.Begin();
    TransactionId b = app.Begin();
    EXPECT_NE(a, b);
    EXPECT_EQ(a.node, 1u);
    EXPECT_LT(a.sequence, b.sequence);
    app.Abort(a);
    app.Abort(b);
  });
}

TEST_F(TmTest, SequencesSurviveCrashWithoutReuse) {
  std::uint64_t before = 0;
  world_.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      arr_->SetCell(tx, 0, 1);
      return Status::kOk;
    });
    before = app.Begin().sequence;
    world_.CrashNode(1);
  });
  world_.RunApp(2, [&](Application&) { world_.RecoverNode(1); });
  world_.RunApp(1, [&](Application& app) {
    // The recovered TM rebuilt its sequence floor from the log: identifiers
    // of logged transactions are never reissued.
    TransactionId fresh = app.Begin();
    EXPECT_GT(fresh.sequence, 1u);
    app.Abort(fresh);
  });
  (void)before;
}

TEST_F(TmTest, StateTransitions) {
  world_.RunApp(1, [&](Application& app) {
    TransactionId t = app.Begin();
    EXPECT_EQ(world_.tm(1).StateOf(t), TxnState::kActive);
    arr_->SetCell(app.MakeTx(t), 0, 5);
    EXPECT_EQ(app.End(t), Status::kOk);
    EXPECT_EQ(world_.tm(1).StateOf(t), TxnState::kCommitted);
    TransactionId u = app.Begin();
    app.Abort(u);
    EXPECT_EQ(world_.tm(1).StateOf(u), TxnState::kAborted);
    EXPECT_TRUE(app.TransactionIsAborted(u));
    EXPECT_FALSE(app.TransactionIsAborted(t));
  });
}

TEST_F(TmTest, TopOfResolvesNestedTree) {
  world_.RunApp(1, [&](Application& app) {
    TransactionId top = app.Begin();
    TransactionId child = app.Begin(top);
    TransactionId grandchild = app.Begin(child);
    EXPECT_EQ(world_.tm(1).TopOf(grandchild), top);
    EXPECT_EQ(world_.tm(1).TopOf(child), top);
    EXPECT_EQ(world_.tm(1).TopOf(top), top);
    app.Abort(top);  // aborts the whole tree
    EXPECT_TRUE(app.TransactionIsAborted(grandchild));
  });
}

TEST_F(TmTest, DeepNestingCommitsThroughAllLevels) {
  world_.RunApp(1, [&](Application& app) {
    TransactionId top = app.Begin();
    TransactionId cur = top;
    for (int depth = 0; depth < 5; ++depth) {
      cur = app.Begin(cur);
      arr_->SetCell(app.MakeTx(cur), static_cast<std::uint32_t>(depth), depth + 1);
    }
    // End only the top: open descendants commit with their parent.
    EXPECT_EQ(app.End(top), Status::kOk);
    app.Transaction([&](const server::Tx& tx) {
      for (int depth = 0; depth < 5; ++depth) {
        EXPECT_EQ(arr_->GetCell(tx, static_cast<std::uint32_t>(depth)).value(), depth + 1);
      }
      return Status::kOk;
    });
  });
}

TEST_F(TmTest, SubtransactionCannotOutliveParentCommitIndependently) {
  // "Subtransactions may not be committed before their parents": ending a
  // child merely merges; its effects are not durable until the top ends.
  world_.RunApp(1, [&](Application& app) {
    TransactionId top = app.Begin();
    TransactionId child = app.Begin(top);
    arr_->SetCell(app.MakeTx(child), 0, 42);
    EXPECT_EQ(app.End(child), Status::kOk);  // tentative
    // Another transaction still cannot see (or touch) the child's write.
    TransactionId probe = app.Begin();
    EXPECT_EQ(arr_->GetCell(app.MakeTx(probe), 0).status(), Status::kTimeout);
    app.Abort(probe);
    app.Abort(top);  // and the whole tree can still vanish
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(arr_->GetCell(tx, 0).value(), 0);
      return Status::kOk;
    });
  });
}

TEST_F(TmTest, ActiveTransactionTable) {
  world_.RunApp(1, [&](Application& app) {
    TransactionId a = app.Begin();
    arr_->SetCell(app.MakeTx(a), 0, 1);
    TransactionId b = app.Begin();
    auto table = world_.tm(1).ActiveTransactions();
    ASSERT_EQ(table.size(), 2u);
    // The writer's first-LSN is recorded (it pins log space).
    bool found_writer = false;
    for (const auto& at : table) {
      if (at.owner == a) {
        found_writer = true;
        EXPECT_NE(at.first_lsn, kNullLsn);
      }
    }
    EXPECT_TRUE(found_writer);
    app.Abort(a);
    app.Abort(b);
    EXPECT_TRUE(world_.tm(1).ActiveTransactions().empty());
  });
}

TEST_F(TmTest, EndOfUnknownTransactionReportsAborted) {
  world_.RunApp(1, [&](Application& app) {
    TransactionId bogus{1, 999999};
    EXPECT_EQ(app.End(bogus), Status::kAborted);
  });
}

TEST_F(TmTest, DoubleAbortIsHarmless) {
  world_.RunApp(1, [&](Application& app) {
    TransactionId t = app.Begin();
    arr_->SetCell(app.MakeTx(t), 0, 7);
    app.Abort(t);
    app.Abort(t);  // idempotent
    EXPECT_TRUE(app.TransactionIsAborted(t));
  });
}

TEST_F(TmTest, QueryCommittedPresumesAbort) {
  world_.RunApp(1, [&](Application& app) {
    TransactionId unknown{1, 424242};
    EXPECT_EQ(world_.tm(1).KnownOutcome(unknown, /*presume_abort=*/true), -1);
    TransactionId t = app.Begin();
    arr_->SetCell(app.MakeTx(t), 0, 1);
    app.End(t);
    EXPECT_EQ(world_.tm(1).KnownOutcome(t, /*presume_abort=*/true), 1);
  });
}

}  // namespace
}  // namespace tabs
