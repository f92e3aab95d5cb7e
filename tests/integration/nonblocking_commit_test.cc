// Non-blocking commit (Paxos Commit, Gray & Lamport): the window the paper
// concedes — a coordinator that dies after collecting votes but before any
// commit datagram lands leaves EVERY participant in doubt, and cooperative
// termination cannot help because no sibling knows the verdict either.
// Under WorldOptions::commit_mode = kPaxosCommit the decision lives at 2F+1
// acceptors, so the survivors drive it to a conclusion without coordinator
// recovery. These tests pin both halves: plain 2PC stays blocked until the
// coordinator returns; Paxos Commit resolves within acceptor round-trips.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/servers/account_server.h"
#include "src/servers/array_server.h"
#include "src/tabs/world.h"

namespace tabs {
namespace {

using servers::AccountServer;
using servers::ArrayServer;
using txn::CommitMode;

WorldOptions PaxosOptions() {
  WorldOptions opt;
  opt.commit_mode = CommitMode::kPaxosCommit;
  opt.paxos_f = 1;  // 3 acceptors, quorum 2
  return opt;
}

// --- sanity: the mode commits and aborts like 2PC when nothing fails --------

TEST(PaxosCommitTest, DistributedWriteCommitsAndAbortUndoes) {
  World world(3, PaxosOptions());
  auto* a1 = world.AddServerOf<ArrayServer>(1, "a1", 4u);
  auto* a2 = world.AddServerOf<ArrayServer>(2, "a2", 4u);
  auto* a3 = world.AddServerOf<ArrayServer>(3, "a3", 4u);

  world.RunApp(1, [&](Application& app) {
    Status s = app.Transaction([&](const server::Tx& tx) {
      a1->SetCell(tx, 0, 1);
      a2->SetCell(tx, 0, 2);
      a3->SetCell(tx, 0, 3);
      return Status::kOk;
    });
    EXPECT_EQ(s, Status::kOk);

    // An explicit abort unwinds across all participants.
    TransactionId t = app.Begin();
    server::Tx tx = app.MakeTx(t);
    a2->SetCell(tx, 1, 42);
    a3->SetCell(tx, 1, 43);
    app.Abort(t);

    app.Transaction([&](const server::Tx& tx2) {
      EXPECT_EQ(a1->GetCell(tx2, 0).value(), 1);
      EXPECT_EQ(a2->GetCell(tx2, 0).value(), 2);
      EXPECT_EQ(a3->GetCell(tx2, 0).value(), 3);
      EXPECT_EQ(a2->GetCell(tx2, 1).value(), 0);
      EXPECT_EQ(a3->GetCell(tx2, 1).value(), 0);
      return Status::kOk;
    });
  });
}

TEST(PaxosCommitTest, ReadOnlyParticipantsDropOutOfPhaseTwo) {
  World world(3, PaxosOptions());
  auto* a1 = world.AddServerOf<ArrayServer>(1, "a1", 4u);
  auto* a2 = world.AddServerOf<ArrayServer>(2, "a2", 4u);
  auto* a3 = world.AddServerOf<ArrayServer>(3, "a3", 4u);

  world.RunApp(1, [&](Application& app) {
    Status s = app.Transaction([&](const server::Tx& tx) {
      a1->SetCell(tx, 0, 7);
      a2->GetCell(tx, 0);  // reads only: votes ReadOnly through its instance
      a3->GetCell(tx, 0);
      return Status::kOk;
    });
    EXPECT_EQ(s, Status::kOk);
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(a1->GetCell(tx, 0).value(), 7);
      return Status::kOk;
    });
  });
  // Nothing lingers in doubt anywhere.
  for (NodeId n = 1; n <= 3; ++n) {
    EXPECT_TRUE(world.tm(n).InDoubt().empty()) << "node " << n;
  }
}

// Acceptor records join no undo list. Node 3 is an acceptor but not a
// participant: it holds no Txn whose end would forget a list, so one left
// behind there would stay for the life of the node.
TEST(PaxosCommitTest, AcceptorRecordsLeaveNoUndoList) {
  World world(3, PaxosOptions());
  auto* a1 = world.AddServerOf<ArrayServer>(1, "a1", 4u);
  auto* a2 = world.AddServerOf<ArrayServer>(2, "a2", 4u);
  world.AddServerOf<ArrayServer>(3, "a3", 4u);

  TransactionId tid = kNullTransaction;
  world.SpawnApp(1, "client", [&](Application& app) {
    tid = app.Begin();
    server::Tx tx = app.MakeTx(tid);
    a1->SetCell(tx, 0, 1);
    a2->SetCell(tx, 0, 2);
    EXPECT_EQ(app.End(tid), Status::kOk);
  });
  ASSERT_EQ(world.Drain(), 0);
  ASSERT_NE(world.rm(3).log().last_lsn(), kNullLsn);  // node 3 did log as acceptor
  for (NodeId n = 1; n <= 3; ++n) {
    EXPECT_TRUE(world.rm(n).UndoListOf(tid).empty()) << "node " << n;
  }
}

// --- where the acceptor windows land ----------------------------------------

// Every coordinator's transaction counter advances at about the same pace.
// Thirty-two coordinators that each begin their first transaction at once
// must still spread the windows: each node accepts for exactly three of them
// (a window keyed by the counter alone puts all 32 on nodes 2-4).
TEST(PaxosCommitTest, ConcurrentCoordinatorsSpreadTheirAcceptorWindows) {
  constexpr NodeId kNodes = 32;
  World world(kNodes, PaxosOptions());
  std::vector<AccountServer*> banks(kNodes + 1);
  for (NodeId n = 1; n <= kNodes; ++n) {
    banks[n] = world.AddServerOf<AccountServer>(n, "bank" + std::to_string(n), 1u);
  }
  for (NodeId n = 1; n <= kNodes; ++n) {
    world.SpawnApp(n, "client", [&banks, n](Application& app) {
      Status s = app.Transaction([&](const server::Tx& tx) {
        Status own = banks[n]->Deposit(tx, 0, 1);
        return own != Status::kOk ? own : banks[n % kNodes + 1]->Deposit(tx, 0, 1);
      });
      EXPECT_EQ(s, Status::kOk) << "node " << n;
    });
  }
  ASSERT_EQ(world.Drain(), 0);
  for (NodeId n = 1; n <= kNodes; ++n) {
    EXPECT_EQ(world.tm(n).acceptor_state_count(), 3u) << "node " << n;
  }
}

// --- the paper's blocking window, both ways ----------------------------------

// Commits a three-node write transaction from node 1 while every commit
// datagram out of the coordinator is lost, so BOTH participants end up
// prepared and in doubt with no sibling knowing the verdict. Under Paxos
// Commit the learn datagrams are lost too, forcing a genuine takeover (the
// surviving acceptors hold only ballot-0 acceptances, not the outcome).
template <typename WorldT>
void CommitWithVerdictsLost(WorldT& world, ArrayServer* a1, ArrayServer* a2,
                            ArrayServer* a3) {
  world.network().SetDatagramLoss(
      [](NodeId from, NodeId, const std::string& what) {
        return from == 1 && (what == "2pc-commit" || what == "paxos-learn");
      });
  Status outcome = Status::kInternal;
  world.RunApp(1, [&](Application& app) {
    outcome = app.Transaction([&](const server::Tx& tx) {
      a1->SetCell(tx, 0, 1);
      a2->SetCell(tx, 0, 2);
      a3->SetCell(tx, 0, 3);
      return Status::kOk;
    });
  });
  ASSERT_EQ(outcome, Status::kOk);  // the coordinator decided commit
  world.network().SetDatagramLoss({});
  ASSERT_EQ(world.tm(2).InDoubt().size(), 1u);
  ASSERT_EQ(world.tm(3).InDoubt().size(), 1u);
}

TEST(NonBlockingCommitTest, TwoPhaseBlocksUntilCoordinatorRecovery) {
  WorldOptions opt;
  opt.commit_mode = txn::CommitMode::kTwoPhase;  // the 2PC control leg
  World world(3, opt);
  auto* a1 = world.AddServerOf<ArrayServer>(1, "a1", 4u);
  auto* a2 = world.AddServerOf<ArrayServer>(2, "a2", 4u);
  auto* a3 = world.AddServerOf<ArrayServer>(3, "a3", 4u);
  CommitWithVerdictsLost(world, a1, a2, a3);

  world.RunApp(3, [&](Application& app) {
    world.CrashNode(1);
    auto in_doubt = world.tm(2).InDoubt();
    ASSERT_EQ(in_doubt.size(), 1u);
    // The parent is dead and the only sibling is in doubt too: blocked —
    // this is exactly the deficiency the paper concedes for 2PC.
    EXPECT_EQ(world.tm(2).ResolveInDoubt(in_doubt[0]), Status::kNodeDown);
    TransactionId probe = app.Begin();
    EXPECT_EQ(a2->SetCell(app.MakeTx(probe), 0, 99), Status::kTimeout);
    app.Abort(probe);
    // Only coordinator recovery unblocks it.
    world.RecoverNode(1);
    EXPECT_EQ(world.tm(2).ResolveInDoubt(in_doubt[0]), Status::kOk);
  });
}

TEST(NonBlockingCommitTest, PaxosResolvesAllInDoubtWithoutCoordinator) {
  World world(3, PaxosOptions());
  auto* a1 = world.AddServerOf<ArrayServer>(1, "a1", 4u);
  auto* a2 = world.AddServerOf<ArrayServer>(2, "a2", 4u);
  auto* a3 = world.AddServerOf<ArrayServer>(3, "a3", 4u);
  CommitWithVerdictsLost(world, a1, a2, a3);

  // Crash the coordinator. Node 2's transaction is resolved explicitly so
  // the takeover's virtual-time cost can be bounded; node 3's is left to the
  // background takeover sweep the crash spawns on every survivor.
  SimTime elapsed = 0;
  world.RunApp(3, [&](Application&) {
    world.CrashNode(1);
    auto in_doubt = world.tm(2).InDoubt();
    ASSERT_EQ(in_doubt.size(), 1u);
    SimTime before = world.scheduler().Now();
    EXPECT_EQ(world.tm(2).ResolveInDoubt(in_doubt[0]), Status::kOk);
    elapsed = world.scheduler().Now() - before;
  });

  EXPECT_TRUE(world.tm(2).InDoubt().empty());
  EXPECT_TRUE(world.tm(3).InDoubt().empty());  // the sweep alone got this one
  // Resolution is acceptor round-trips, log forces and (under takeover
  // contention) a bounded backoff — never a wait on the 10 s vote budget.
  // The measurement is inflated by the fresh task's clock joining the node's
  // I/O frontier from the earlier commit, so the bound is coarse on purpose:
  // a regression that burns even one vote timeout lands far above it.
  EXPECT_LT(elapsed, world.tm(2).vote_timeout() / 2);

  // The commit decided at the acceptors took effect; locks are released.
  world.RunApp(3, [&](Application& app) {
    Status s = app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(a2->GetCell(tx, 0).value(), 2);
      EXPECT_EQ(a3->GetCell(tx, 0).value(), 3);
      return a3->SetCell(tx, 1, 9);  // previously-locked data writable again
    });
    EXPECT_EQ(s, Status::kOk);
  });
}

// --- the vote_timeout_us interaction (flip point) -----------------------------
//
// Every acceptor acknowledgement back to the coordinator is lost, so ballot 0
// never completes at the leader even though the acceptors durably accepted
// every Prepared vote. A 2PC coordinator in this spot presumes abort — but
// for Paxos Commit that presumption is UNSOUND: an instance may already hold
// a quorum, meaning the transaction is committed at the acceptors. The
// coordinator must route its timeout through the acceptor read path (phase
// 1) and discover the truth.

TEST(PaxosVoteTimeoutTest, LostAcceptRepliesFlipTimeoutToCommit) {
  World world(3, PaxosOptions());  // default 10 s vote budget: all virtual time
  auto* a1 = world.AddServerOf<ArrayServer>(1, "a1", 4u);
  auto* a2 = world.AddServerOf<ArrayServer>(2, "a2", 4u);
  auto* a3 = world.AddServerOf<ArrayServer>(3, "a3", 4u);
  world.network().SetDatagramLoss(
      [](NodeId, NodeId, const std::string& what) { return what == "paxos-accepted"; });

  Status outcome = Status::kInternal;
  world.RunApp(1, [&](Application& app) {
    outcome = app.Transaction([&](const server::Tx& tx) {
      a1->SetCell(tx, 0, 1);
      a2->SetCell(tx, 0, 2);
      a3->SetCell(tx, 0, 3);
      return Status::kOk;
    });
  });
  // The flip point: the votes were all Prepared and durably accepted, so the
  // read path finds them and the transaction COMMITS despite the timeout.
  EXPECT_EQ(outcome, Status::kOk);
  world.network().SetDatagramLoss({});

  world.RunApp(2, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(a1->GetCell(tx, 0).value(), 1);
      EXPECT_EQ(a2->GetCell(tx, 0).value(), 2);
      EXPECT_EQ(a3->GetCell(tx, 0).value(), 3);
      return Status::kOk;
    });
  });
  for (NodeId n = 1; n <= 3; ++n) {
    EXPECT_TRUE(world.tm(n).InDoubt().empty()) << "node " << n;
  }
}

TEST(PaxosVoteTimeoutTest, TwoPhaseControlPresumesAbortOnTheSameLoss) {
  // The control: plain 2PC under the equivalent loss (every vote datagram
  // back to the coordinator) presumes abort, as it must — its verdict lives
  // nowhere else. This is the asymmetry the flip-point test above pins.
  WorldOptions opt;
  opt.commit_mode = txn::CommitMode::kTwoPhase;  // the 2PC control leg
  World world(3, opt);
  auto* a1 = world.AddServerOf<ArrayServer>(1, "a1", 4u);
  auto* a2 = world.AddServerOf<ArrayServer>(2, "a2", 4u);
  auto* a3 = world.AddServerOf<ArrayServer>(3, "a3", 4u);
  world.network().SetDatagramLoss(
      [](NodeId, NodeId to, const std::string& what) { return to == 1 && what == "2pc-vote"; });

  Status outcome = Status::kInternal;
  world.RunApp(1, [&](Application& app) {
    outcome = app.Transaction([&](const server::Tx& tx) {
      a1->SetCell(tx, 0, 1);
      a2->SetCell(tx, 0, 2);
      a3->SetCell(tx, 0, 3);
      return Status::kOk;
    });
  });
  EXPECT_EQ(outcome, Status::kVoteNo);
  world.network().SetDatagramLoss({});

  world.RunApp(2, [&](Application& app) {
    // Participants resolve to abort through the (live) coordinator.
    for (const TransactionId& t : world.tm(2).InDoubt()) {
      world.tm(2).ResolveInDoubt(t);
    }
    for (const TransactionId& t : world.tm(3).InDoubt()) {
      world.tm(3).ResolveInDoubt(t);
    }
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(a2->GetCell(tx, 0).value(), 0);  // the abort stands
      EXPECT_EQ(a3->GetCell(tx, 0).value(), 0);
      return Status::kOk;
    });
  });
}

// --- the batched (multi-instance) acceptor force under crashes ---------------
//
// One forced kPaxosAccept record carries EVERY instance of a transaction's
// ballot-0 acceptance: the head fields hold the first participant, the
// paxos_extra list the rest. These tests pin the two recovery obligations the
// batching creates: replay must rebuild every bundled instance (not just the
// head), and an undecided record must pin the log through checkpoints and
// reclamation so a later takeover can still read it.

TEST(PaxosBatchedAcceptTest, ReplayedBundleSurvivesReclaimAndDecidesTakeover) {
  World world(3, PaxosOptions());
  auto* a2 = world.AddServerOf<ArrayServer>(2, "a2", 4u);
  auto* a3 = world.AddServerOf<ArrayServer>(3, "a3", 4u);

  // Node 1 is a pure acceptor — no servers, no participant state — so nothing
  // but the accept record's own pin can hold its log tail. Drop the bundle to
  // acceptor 2 (the commit quorum becomes {3, 1}) and every verdict out of
  // the coordinator, leaving node 2 in doubt and every acceptance undecided.
  world.network().SetDatagramLoss(
      [](NodeId from, NodeId to, const std::string& what) {
        return (what == "paxos-bundle" && to == 2) ||
               (from == 3 && (what == "2pc-commit" || what == "paxos-learn"));
      });
  Status outcome = Status::kInternal;
  world.RunApp(3, [&](Application& app) {
    outcome = app.Transaction([&](const server::Tx& tx) {
      a2->SetCell(tx, 0, 2);
      return a3->SetCell(tx, 0, 3);
    });
  });
  ASSERT_EQ(outcome, Status::kOk);  // acceptors 3 and 1 hold both instances
  world.network().SetDatagramLoss({});
  ASSERT_EQ(world.tm(2).InDoubt().size(), 1u);

  // Crash the loaded acceptor twice, with a checkpoint and log reclamation
  // between: recovery must rebuild both bundled instances from the single
  // record each time, and the undecided state must keep that record above
  // the truncation point in between.
  world.RunApp(2, [&](Application&) {
    world.CrashNode(1);
    world.RecoverNode(1);
    world.Checkpoint(1);
    world.ReclaimLog(1);
    world.CrashNode(1);
    world.RecoverNode(1);
  });

  // Kill the coordinator before any verdict was ever delivered. The takeover
  // quorum is {1, 2}, and acceptor 2 never saw a bundle: the commit decision
  // rests entirely on node 1's twice-replayed record — including node 2's
  // instance, which rides in the record's extra list.
  world.RunApp(2, [&](Application&) {
    world.CrashNode(3);
    auto in_doubt = world.tm(2).InDoubt();
    ASSERT_EQ(in_doubt.size(), 1u);
    EXPECT_EQ(world.tm(2).ResolveInDoubt(in_doubt[0]), Status::kOk);
  });
  EXPECT_TRUE(world.tm(2).InDoubt().empty());

  // The takeover chose the accepted Prepared values: the transaction
  // committed and node 2's locks are free again.
  world.RunApp(2, [&](Application& app) {
    Status s = app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(a2->GetCell(tx, 0).value(), 2);
      return a2->SetCell(tx, 1, 9);
    });
    EXPECT_EQ(s, Status::kOk);
  });
}

TEST(PaxosBatchedAcceptTest, TornBundleForceTruncatesAndRollsBack) {
  World world(3, PaxosOptions());
  auto* a1 = world.AddServerOf<ArrayServer>(1, "a1", 4u);
  auto* a3 = world.AddServerOf<ArrayServer>(3, "a3", 64u);

  // Durable baseline on the coordinator's node.
  world.RunApp(3, [&](Application& app) {
    Status s = app.Transaction([&](const server::Tx& tx) { return a3->SetCell(tx, 0, 7); });
    EXPECT_EQ(s, Status::kOk);
  });

  // Local writes plus a remote READ: the remote participant votes ReadOnly
  // without logging anything, and the coordinator's prepare record defers
  // onto its own acceptance (co-located-acceptor coalescing). The commit's
  // FIRST stable write is therefore the one batched force carrying the
  // buffered updates, the prepare record, and the multi-instance accept
  // record — and that is the write that tears. One durable sector cuts the
  // tail inside the update records, so prepare and acceptance never reach
  // the platter.
  world.faults().ArmTornLogForce(1);
  world.RunApp(3, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      auto r = a1->GetCell(tx, 0);
      if (!r.ok()) {
        return r.status();
      }
      for (std::uint32_t c = 1; c < 48; ++c) {
        Status w = a3->SetCell(tx, c, 9);
        if (w != Status::kOk) {
          return w;
        }
      }
      return Status::kOk;
    });
    ADD_FAILURE() << "transaction survived a torn accept-bundle force";
  });
  EXPECT_TRUE(world.faults().crash_fired());
  EXPECT_FALSE(world.NodeAlive(3));
  EXPECT_EQ(world.metrics().faults_injected(sim::FaultKind::kTornLogWrite), 1);

  world.RunApp(1, [&](Application&) { world.RecoverNode(3); });
  a3 = world.Server<ArrayServer>(3, "a3");
  ASSERT_NE(a3, nullptr);
  // The damaged tail was found and cut; with no durable prepare or accept
  // record the interrupted transaction is a loser, not an in-doubt one, and
  // no acceptor anywhere holds a half-replicated instance for it.
  EXPECT_GE(world.metrics().log_tail_truncations(), 1);
  EXPECT_TRUE(world.tm(3).InDoubt().empty());
  for (NodeId n = 1; n <= 3; ++n) {
    EXPECT_TRUE(world.tm(n).InDoubt().empty()) << "node " << n;
  }

  world.RunApp(3, [&](Application& app) {
    Status s = app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(a3->GetCell(tx, 0).value(), 7);  // committed prefix intact
      for (std::uint32_t c = 1; c < 48; ++c) {
        EXPECT_EQ(a3->GetCell(tx, c).value(), 0) << "cell " << c;
      }
      return a3->SetCell(tx, 1, 5);  // the rolled-back cells are writable
    });
    EXPECT_EQ(s, Status::kOk);
  });
}

}  // namespace
}  // namespace tabs
