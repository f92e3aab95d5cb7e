// Cooperative termination (Dwork/Skeen, via the paper's note that plain
// two-phase commit blocks in-doubt participants "until other nodes recover"
// and that "TABS could use one of the other commit algorithms that do not
// have this deficiency"): an in-doubt participant whose coordinator is down
// learns the verdict from a sibling participant instead of staying blocked.

#include <gtest/gtest.h>

#include "src/servers/array_server.h"
#include "src/tabs/world.h"

namespace tabs {
namespace {

using servers::ArrayServer;

// The 2PC in-doubt window is the subject under test (Paxos Commit has no
// cooperative-termination protocol to exercise), so the mode is pinned.
WorldOptions TwoPhaseOptions() {
  WorldOptions opt;
  opt.commit_mode = txn::CommitMode::kTwoPhase;
  return opt;
}

class CooperativeTerminationTest : public ::testing::Test {
 protected:
  CooperativeTerminationTest() : world_(3, TwoPhaseOptions()) {
    a1_ = world_.AddServerOf<ArrayServer>(1, "a1", 8u);
    a2_ = world_.AddServerOf<ArrayServer>(2, "a2", 8u);
    a3_ = world_.AddServerOf<ArrayServer>(3, "a3", 8u);
  }

  World world_;
  ArrayServer* a1_;
  ArrayServer* a2_;
  ArrayServer* a3_;
};

TEST_F(CooperativeTerminationTest, SiblingSuppliesCommitWhenCoordinatorIsDown) {
  // Lose only the commit datagram 1 -> 2: node 3 learns the commit, node 2
  // stays in doubt. The coordinator then crashes. Node 2 resolves through
  // its sibling (node 3) without waiting for node 1.
  int count_1_2 = 0;
  world_.network().SetDatagramLoss([&](NodeId from, NodeId to, const std::string&) {
    if (from == 1 && to == 2) {
      ++count_1_2;
      return count_1_2 == 2;  // the commit, not the prepare
    }
    return false;
  });
  Status outcome = Status::kInternal;
  world_.RunApp(1, [&](Application& app) {
    outcome = app.Transaction([&](const server::Tx& tx) {
      a1_->SetCell(tx, 0, 1);
      a2_->SetCell(tx, 0, 2);
      a3_->SetCell(tx, 0, 3);
      return Status::kOk;
    });
  });
  EXPECT_EQ(outcome, Status::kOk);
  world_.network().SetDatagramLoss({});

  world_.RunApp(3, [&](Application& app) {
    world_.CrashNode(1);  // the coordinator is gone
    auto in_doubt = world_.tm(2).InDoubt();
    ASSERT_EQ(in_doubt.size(), 1u);
    // The parent is unreachable; the sibling (node 3) knows the verdict.
    EXPECT_EQ(world_.tm(2).ResolveInDoubt(in_doubt[0]), Status::kOk);
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(a2_->GetCell(tx, 0).value(), 2);  // commit took effect
      return Status::kOk;
    });
  });
}

TEST_F(CooperativeTerminationTest, StillBlockedWhenNobodyKnows) {
  // Lose the commit datagrams to BOTH participants: both are in doubt, the
  // coordinator crashes — cooperative termination cannot invent a verdict.
  int commits_lost = 0;
  world_.network().SetDatagramLoss([&](NodeId from, NodeId to, const std::string&) {
    if (from == 1 && to != 1) {
      // Datagrams 1->2: prepare, commit; 1->3: prepare, commit. Count per
      // destination: drop the second to each.
      static std::map<NodeId, int> per_dest;
      if (++per_dest[to] == 2) {
        ++commits_lost;
        return true;
      }
    }
    return false;
  });
  world_.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      a1_->SetCell(tx, 0, 1);
      a2_->SetCell(tx, 0, 2);
      a3_->SetCell(tx, 0, 3);
      return Status::kOk;
    });
  });
  world_.network().SetDatagramLoss({});
  EXPECT_EQ(commits_lost, 2);

  world_.RunApp(3, [&](Application& app) {
    world_.CrashNode(1);
    auto in_doubt = world_.tm(2).InDoubt();
    ASSERT_EQ(in_doubt.size(), 1u);
    // Neither the parent (down) nor the sibling (in doubt too) can answer.
    EXPECT_EQ(world_.tm(2).ResolveInDoubt(in_doubt[0]), Status::kNodeDown);
    // The data stays locked — correctly: the verdict is genuinely unknown.
    TransactionId probe = app.Begin();
    EXPECT_EQ(a2_->SetCell(app.MakeTx(probe), 0, 99), Status::kTimeout);
    app.Abort(probe);
    // Once the coordinator recovers, the authoritative answer flows.
    world_.RecoverNode(1);
    EXPECT_EQ(world_.tm(2).ResolveInDoubt(in_doubt[0]), Status::kOk);
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(a2_->GetCell(tx, 0).value(), 2);
      return Status::kOk;
    });
  });
}

TEST_F(CooperativeTerminationTest, SiblingSuppliesAbortVerdict) {
  // The coordinator aborts (a participant votes no via crash); the abort
  // datagram reaches node 3 but not node 2; coordinator dies; node 2 learns
  // "aborted" from node 3.
  int count_1_2 = 0;
  world_.network().SetDatagramLoss([&](NodeId from, NodeId to, const std::string&) {
    if (from == 1 && to == 2) {
      ++count_1_2;
      return count_1_2 == 2;  // lose node 2's verdict datagram
    }
    return false;
  });
  world_.RunApp(1, [&](Application& app) {
    TransactionId t = app.Begin();
    server::Tx tx = app.MakeTx(t);
    a1_->SetCell(tx, 0, 1);
    a2_->SetCell(tx, 0, 2);
    a3_->SetCell(tx, 0, 3);
    app.Abort(t);
  });
  world_.network().SetDatagramLoss({});

  world_.RunApp(3, [&](Application& app) {
    world_.CrashNode(1);
    // Node 2 never heard the abort: it still carries the transaction. (It
    // was not prepared — aborts flow outside 2PC — so it shows up as live
    // state that the sibling's knowledge clears.)
    for (const TransactionId& t : world_.tm(2).InDoubt()) {
      world_.tm(2).ResolveInDoubt(t);
    }
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(a2_->GetCell(tx, 0).value(), 0);  // the abort stands
      return Status::kOk;
    });
  });
}

}  // namespace
}  // namespace tabs
