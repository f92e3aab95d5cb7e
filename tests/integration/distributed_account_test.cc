// Operation logging under distribution: account servers on two nodes inside
// one transaction — typed locks, logical undo across nodes, in-doubt
// resolution with operation-logged state.

#include <gtest/gtest.h>

#include "src/servers/account_server.h"
#include "src/tabs/world.h"

namespace tabs {
namespace {

using servers::AccountServer;

class DistributedAccountTest : public ::testing::Test {
 protected:
  explicit DistributedAccountTest(const WorldOptions& opt = WorldOptions())
      : world_(2, opt) {
    local_ = world_.AddServerOf<AccountServer>(1, "local-acct", 8u);
    remote_ = world_.AddServerOf<AccountServer>(2, "remote-acct", 8u);
  }
  void Refresh() {
    local_ = world_.Server<AccountServer>(1, "local-acct");
    remote_ = world_.Server<AccountServer>(2, "remote-acct");
  }

  World world_;
  AccountServer* local_;
  AccountServer* remote_;

 public:
  static WorldOptions TwoPhase() {
    WorldOptions opt;
    opt.commit_mode = txn::CommitMode::kTwoPhase;
    return opt;
  }
};

TEST_F(DistributedAccountTest, CrossNodeTransferCommits) {
  world_.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) { return local_->Deposit(tx, 0, 100); });
    Status s = app.Transaction([&](const server::Tx& tx) {
      Status w = local_->Withdraw(tx, 0, 40);
      if (w != Status::kOk) {
        return w;
      }
      return remote_->Deposit(tx, 0, 40);
    });
    EXPECT_EQ(s, Status::kOk);
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(local_->ReadBalance(tx, 0).value(), 60);
      EXPECT_EQ(remote_->ReadBalance(tx, 0).value(), 40);
      return Status::kOk;
    });
  });
}

TEST_F(DistributedAccountTest, AbortUndoesLogicallyOnBothNodes) {
  world_.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) { return local_->Deposit(tx, 0, 100); });
    TransactionId t = app.Begin();
    server::Tx tx = app.MakeTx(t);
    local_->Withdraw(tx, 0, 30);
    remote_->Deposit(tx, 0, 30);
    // A concurrent deposit interleaves on the remote account: abort must
    // subtract only the transfer's 30, not restore a before-image.
    app.Transaction([&](const server::Tx& tx2) { return remote_->Deposit(tx2, 0, 500); });
    app.Abort(t);
    app.Transaction([&](const server::Tx& tx2) {
      EXPECT_EQ(local_->ReadBalance(tx2, 0).value(), 100);
      EXPECT_EQ(remote_->ReadBalance(tx2, 0).value(), 500);
      return Status::kOk;
    });
  });
}

// The in-doubt window and its ResolveInDoubt outcome asserted here are
// 2PC's; the commit-mode CI matrix would otherwise resolve the crash through
// the acceptors with a different verdict.
class TwoPhaseAccountTest : public DistributedAccountTest {
 protected:
  TwoPhaseAccountTest() : DistributedAccountTest(TwoPhase()) {}
};

TEST_F(TwoPhaseAccountTest, ParticipantCrashInDoubtResolvesWithOperationLog) {
  // Lose the commit datagram so the remote account server's node recovers an
  // in-doubt operation-logged transaction, then resolve via the coordinator.
  int count = 0;
  world_.network().SetDatagramLoss([&](NodeId from, NodeId to, const std::string&) {
    if (from == 1 && to == 2) {
      ++count;
      return count == 2;  // prepare passes, commit is lost
    }
    return false;
  });
  Status outcome = Status::kInternal;
  world_.RunApp(1, [&](Application& app) {
    outcome = app.Transaction([&](const server::Tx& tx) {
      Status d = local_->Deposit(tx, 0, 10);
      if (d != Status::kOk) {
        return d;
      }
      return remote_->Deposit(tx, 0, 20);
    });
  });
  EXPECT_EQ(outcome, Status::kOk);
  world_.network().SetDatagramLoss({});
  world_.RunApp(1, [&](Application& app) {
    world_.CrashNode(2);
    auto stats = world_.RecoverNode(2, /*resolve_in_doubt=*/false);
    ASSERT_EQ(stats.in_doubt.size(), 1u);
    EXPECT_EQ(stats.passes, 3);  // operation records in the log
    Refresh();
    EXPECT_EQ(world_.tm(2).ResolveInDoubt(stats.in_doubt[0]), Status::kOk);
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(remote_->ReadBalance(tx, 0).value(), 20);
      return Status::kOk;
    });
  });
}

TEST_F(DistributedAccountTest, TypedLocksCommuteAcrossNodesToo) {
  world_.RunApp(1, [&](Application& app) {
    TransactionId t1 = app.Begin();
    TransactionId t2 = app.Begin();
    // Both live transactions deposit into the same REMOTE account: increment
    // locks commute, so neither blocks.
    EXPECT_EQ(remote_->Deposit(app.MakeTx(t1), 0, 5), Status::kOk);
    EXPECT_EQ(remote_->Deposit(app.MakeTx(t2), 0, 6), Status::kOk);
    EXPECT_EQ(app.End(t1), Status::kOk);
    EXPECT_EQ(app.End(t2), Status::kOk);
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(remote_->ReadBalance(tx, 0).value(), 11);
      return Status::kOk;
    });
  });
}

}  // namespace
}  // namespace tabs
