// Queue-oriented execution (WorldOptions::queue_execution): correctness of
// the early-lock-release pipeline for hot objects.
//
//  * Determinism: the mode changes the schedule, but the changed schedule is
//    still a function of the seed — two runs fingerprint identically.
//  * Throughput: a hot-spot workload commits strictly more with the mode on
//    (the bench/queue_ablation sweep quantifies the speedup; this pins the
//    direction so a regression fails fast in ctest).
//  * Abort cascade: an in-doubt early release (participant prepare) taints
//    the released objects; when the predecessor aborts, the cascade consumes
//    exactly the queued successors — and the rolled-back state is the state
//    from before the predecessor, not a half-undone hybrid.
//  * Retry hygiene: a cascade-aborted RunTransactional attempt retries into
//    clean state — the committed attempt never observes the aborted
//    predecessor's value or the victim's own pre-abort write.
//  * Escrow wait: a withdrawal short on guaranteed funds parks instead of
//    rejecting, and is admitted when a concurrent outcome frees escrow.
//  * Crash safety: money is conserved at every queue.* / escrow.* fault
//    point (the generic surface is covered by crash_point_exploration_test;
//    this sweep targets only the windows this mode added).

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/servers/account_server.h"
#include "src/servers/array_server.h"
#include "src/sim/cost_model.h"
#include "src/tabs/world.h"
#include "src/txn/op_queue.h"

namespace tabs {
namespace {

using servers::AccountServer;
using servers::ArrayServer;

WorldOptions QueueOptions(bool queue_on) {
  WorldOptions opt;
  opt.group_commit_window_us = 500;
  opt.queue_execution = queue_on;
  return opt;
}

// A contended single-node workload: `clients` tasks all update cell 0 for
// `window` virtual microseconds. The trace of every attempt (client, index,
// status, virtual time) plus the final cell and force count is the
// fingerprint.
std::string HotSpotFingerprint(bool queue_on, int clients, SimTime window) {
  World world(1, QueueOptions(queue_on));
  auto* arr = world.AddServerOf<ArrayServer>(1, "cells", 16u);
  std::ostringstream trace;
  for (int c = 0; c < clients; ++c) {
    world.SpawnApp(1, "client", [&world, &trace, arr, c, window](Application& app) {
      int i = 0;
      while (world.scheduler().Now() < window) {
        Status s = app.Transaction(
            [&](const server::Tx& tx) { return arr->SetCell(tx, 0, c); });
        trace << c << ":" << i++ << ":" << StatusName(s) << "@"
              << world.scheduler().Now() << "\n";
      }
    }, c * 1'000);
  }
  world.Drain();
  world.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      auto v = arr->GetCell(tx, 0);
      trace << "final=" << (v.ok() ? v.value() : -1);
      return Status::kOk;
    });
  });
  trace << " forces=" << world.metrics().forces_issued();
  return trace.str();
}

TEST(QueueExecution, HotSpotScheduleIsDeterministic) {
  std::string a = HotSpotFingerprint(/*queue_on=*/true, /*clients=*/6, 200'000);
  std::string b = HotSpotFingerprint(/*queue_on=*/true, /*clients=*/6, 200'000);
  EXPECT_EQ(a, b) << "queue-mode schedule is not a pure function of the seed";
}

TEST(QueueExecution, HotSpotCommitsMoreWithQueueOn) {
  // The co-located hot spot: with the mode off the exclusive lock rides the
  // group-commit window and the force; with it on the commit append releases
  // the lock and successors pipeline into the window (bench/queue_ablation
  // sweeps the full curve).
  auto committed = [](bool queue_on) {
    WorldOptions opt = QueueOptions(queue_on);
    // The bench's operating point: Table 5-5 achievable times (cheap
    // execution, disk-bound commit) and a window near the force duration.
    // The margin below is calibrated against 2PC's commit latencies.
    opt.commit_mode = txn::CommitMode::kTwoPhase;
    opt.costs = sim::CostModel::Achievable();
    opt.group_commit_window_us = 20'000;
    World world(1, opt);
    auto* arr = world.AddServerOf<ArrayServer>(1, "cells", 16u);
    int done = 0;
    for (int c = 0; c < 8; ++c) {
      world.SpawnApp(1, "client", [&world, &done, arr, c](Application& app) {
        while (world.scheduler().Now() < 2'000'000) {
          Status s = app.Transaction(
              [&](const server::Tx& tx) { return arr->SetCell(tx, 0, c); });
          if (s == Status::kOk) {
            ++done;
          }
        }
      }, c * 1'000);
    }
    world.Drain();
    return done;
  };
  int off = committed(false);
  int on = committed(true);
  // The bench sweeps the full speedup curve (5.7x at 16 clients); here we
  // pin >2x at 8 clients so a pipelining regression fails in tier 1.
  EXPECT_GT(on, off) << "queue mode no longer speeds up the hot spot";
  EXPECT_GT(on, 2 * off) << "hot-spot speedup collapsed: on=" << on
                         << " off=" << off;
}

// In-doubt early release and the abort cascade. Node 1 hosts the driver of
// transaction A, node 2 the array. A updates cell 0 remotely and commits;
// node 2 prepares, early-releases cell 0 *tainted*, and its yes-vote is lost
// in the network. B (on node 2) is granted the released lock, overwrites the
// cell, and queues behind A. A's coordinator times out and aborts; the
// cascade must abort B first (restoring A's value), then undo A (restoring
// the original) — and a fresh transaction must then run normally.
TEST(QueueExecution, AbortCascadeConsumesOnlyQueuedSuccessors) {
  WorldOptions opt = QueueOptions(true);
  opt.commit_mode = txn::CommitMode::kTwoPhase;  // the lost tag below is 2PC's
  opt.vote_timeout_us = 300'000;
  World world(2, opt);
  auto* arr = world.AddServerOf<ArrayServer>(2, "cells", 16u);

  world.network().SetDatagramLoss(
      [](NodeId from, NodeId, const std::string& what) {
        return from == 2 && what == "2pc-vote";
      });

  Status end_a = Status::kInternal;
  Status write_b = Status::kInternal;
  Status end_b = Status::kInternal;
  world.SpawnApp(1, "victim-a", [&](Application& app) {
    TransactionId tid = app.Begin();
    ASSERT_EQ(arr->SetCell(app.MakeTx(tid), 0, 111), Status::kOk);
    end_a = app.End(tid);  // vote lost -> timeout -> abort subtree
  });
  // B starts while A holds the hot cell (A's remote write lands ~120 virtual
  // ms in; the prepare early release is later still), so B's request queues
  // behind A rather than winning the initial race.
  world.SpawnApp(2, "successor-b", [&](Application& app) {
    TransactionId tid = app.Begin();
    // Blocks on A's exclusive lock until A's prepare early-releases it.
    write_b = arr->SetCell(app.MakeTx(tid), 0, 222);
    end_b = app.End(tid);  // parks on the commit dependency, then cascades
  }, 150'000);
  world.Drain();
  world.network().SetDatagramLoss({});

  EXPECT_EQ(end_a, Status::kVoteNo);
  EXPECT_EQ(write_b, Status::kOk) << "B was never granted the released lock";
  EXPECT_NE(end_b, Status::kOk) << "a dependent committed past its aborted predecessor";

  // Both writes rolled back, in cascade order (B first, then A): the cell is
  // back to its initial value, and the system is open for business.
  world.RunApp(2, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      auto v = arr->GetCell(tx, 0);
      EXPECT_TRUE(v.ok());
      if (v.ok()) {
        EXPECT_EQ(v.value(), 0) << "cascade left a half-undone cell";
      }
      return Status::kOk;
    });
    Status fresh = app.Transaction(
        [&](const server::Tx& tx) { return arr->SetCell(tx, 0, 333); });
    EXPECT_EQ(fresh, Status::kOk) << "cascade left the object wedged";
  });
  world.RunApp(2, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      auto v = arr->GetCell(tx, 0);
      EXPECT_TRUE(v.ok() && v.value() == 333);
      return Status::kOk;
    });
  });
}

// Satellite: early release x RunTransactional retry. The victim's committed
// attempt must observe fully rolled-back state — never the aborted
// predecessor's value, and never a leftover of its own pre-abort write.
TEST(QueueExecution, RetriedVictimObservesCleanState) {
  WorldOptions opt = QueueOptions(true);
  opt.commit_mode = txn::CommitMode::kTwoPhase;
  opt.vote_timeout_us = 300'000;
  World world(2, opt);
  auto* arr = world.AddServerOf<ArrayServer>(2, "cells", 16u);

  world.network().SetDatagramLoss(
      [](NodeId from, NodeId, const std::string& what) {
        return from == 2 && what == "2pc-vote";
      });

  Status end_a = Status::kInternal;
  Application::RunResult run_b;
  std::vector<std::int32_t> observed;  // cell 0 as seen by each B attempt
  world.SpawnApp(1, "victim-a", [&](Application& app) {
    TransactionId tid = app.Begin();
    ASSERT_EQ(arr->SetCell(app.MakeTx(tid), 0, 111), Status::kOk);
    end_a = app.End(tid);
  });
  world.SpawnApp(2, "retrier-b", [&](Application& app) {
    run_b = app.RunTransactional([&](const server::Tx& tx) {
      auto v = arr->GetCell(tx, 0);
      if (!v.ok()) {
        return v.status();
      }
      observed.push_back(v.value());
      return arr->SetCell(tx, 0, 222);
    });
  }, 150'000);  // inside A's hold window, as above
  world.Drain();
  world.network().SetDatagramLoss({});

  EXPECT_EQ(end_a, Status::kVoteNo);
  ASSERT_TRUE(run_b.ok()) << "victim never recovered: " << StatusName(run_b.status);
  EXPECT_GE(run_b.attempts, 2) << "B was expected to queue behind A and cascade once";
  // The attempt that committed is the last one: it must have read the
  // original cell (0), not A's aborted 111 and not B's own undone 222.
  ASSERT_FALSE(observed.empty());
  EXPECT_EQ(observed.back(), 0)
      << "committed retry observed dirty state: " << observed.back();
  world.RunApp(2, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      auto v = arr->GetCell(tx, 0);
      EXPECT_TRUE(v.ok() && v.value() == 222);
      return Status::kOk;
    });
  });
}

// Escrow wait: with the mode on, a withdrawal short on guaranteed funds
// parks until a concurrent outcome frees escrow; with it off, the same
// schedule is a straight kConflict reject.
TEST(QueueExecution, TimedOutDependentLeavesNoWaitQueue) {
  // The predecessor released early and never decides: its dependent gives
  // up waiting and aborts. No wait queue may outlive the wait.
  sim::Scheduler sched;
  txn::OpQueue queue;
  queue.Attach(&sched);
  queue.Enable(true);
  const TransactionId pred{1, 1};
  const TransactionId dep{1, 2};
  const ObjectId oid{1, 0, 4};
  Status waited = Status::kOk;
  sched.Spawn("dependent", 1, 0, [&] {
    queue.NoteEarlyRelease(pred, {oid});
    queue.NoteAccess(dep, oid);
    waited = queue.AwaitPredecessors(dep, 100);
    EXPECT_EQ(sched.Now(), 100);
    queue.BeginAbort(dep);
    queue.FinishAbort(dep);
  });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_EQ(waited, Status::kTimeout);
  EXPECT_EQ(queue.WaitQueueCount(), 0u);
}

TEST(QueueExecution, EscrowWaitAdmitsWhenFundsSettle) {
  for (bool queue_on : {false, true}) {
    World world(1, QueueOptions(queue_on));
    auto* bank = world.AddServerOf<AccountServer>(1, "bank", 4u);
    world.RunApp(1, [&](Application& app) {
      ASSERT_EQ(app.Transaction([&](const server::Tx& tx) {
        return bank->Deposit(tx, 0, 40);
      }), Status::kOk);
    });

    // A holds an uncommitted 30-withdrawal for 50 virtual ms, then aborts.
    // The Yield makes the hold real in execution order: pure charges never
    // yield, so without it the whole body (withdraw through abort) would run
    // atomically and B could never overlap the shortage window.
    world.SpawnApp(1, "holder", [&](Application& app) {
      TransactionId tid = app.Begin();
      ASSERT_EQ(bank->Withdraw(app.MakeTx(tid), 0, 30), Status::kOk);
      world.scheduler().Charge(50'000);
      world.scheduler().Yield();
      app.Abort(tid);
    });
    // B's 30-withdrawal finds only 10 guaranteed (40 minus A's escrow).
    Status withdraw_b = Status::kInternal;
    Status end_b = Status::kInternal;
    world.SpawnApp(1, "waiter", [&](Application& app) {
      TransactionId tid = app.Begin();
      withdraw_b = bank->Withdraw(app.MakeTx(tid), 0, 30);
      end_b = withdraw_b == Status::kOk ? app.End(tid) : Status::kAborted;
      if (withdraw_b != Status::kOk) {
        app.Abort(tid);
      }
    }, 5'000);
    world.Drain();

    std::int64_t balance = -1;
    world.RunApp(1, [&](Application& app) {
      app.Transaction([&](const server::Tx& tx) {
        auto v = bank->ReadBalance(tx, 0);
        balance = v.ok() ? v.value() : -1;
        return Status::kOk;
      });
    });
    if (queue_on) {
      // B parked in the escrow wait and was admitted when A's abort settled.
      EXPECT_EQ(withdraw_b, Status::kOk) << "escrow wait never admitted B";
      EXPECT_EQ(end_b, Status::kOk);
      EXPECT_EQ(balance, 10);
    } else {
      EXPECT_EQ(withdraw_b, Status::kConflict) << "mode off must stay a pure reject";
      EXPECT_EQ(balance, 40);
    }
  }
}

// ---- crash-point sweep over the queue/escrow windows -----------------------
//
// A two-bank transfer workload with two concurrent clients (so escrow waits
// and commit queues actually form), recorded once fault-free, then re-run
// with a crash armed at each queue.* / escrow.* point. Transfers conserve
// money by construction, so after recovery the grand total must equal the
// seeded total (or zero, if the crash interrupted the seed transaction's own
// commit), every balance must be non-negative (the escrow guarantee), and no
// transaction may remain in doubt.

constexpr std::int64_t kSeedPerBank = 50;

WorldOptions SweepOptions() {
  WorldOptions opt = QueueOptions(true);
  opt.commit_mode = txn::CommitMode::kTwoPhase;  // keep the recorded plan stable
  opt.group_commit_window_us = 50;
  opt.vote_timeout_us = 500'000;
  return opt;
}

void RunSweepWorkload(World& world, AccountServer* b1, AccountServer* b2) {
  // Seed both banks in one distributed transaction (atomic: total is 50+50
  // or nothing).
  world.SpawnApp(3, "seeder", [&world, b1, b2](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      Status s = b1->Deposit(tx, 0, kSeedPerBank);
      if (s != Status::kOk) {
        return s;
      }
      return b2->Deposit(tx, 0, kSeedPerBank);
    });
  });
  // Two clients shuttling 40 back and forth: each withdrawal leaves only 10
  // guaranteed, so overlapping attempts park in the escrow wait until the
  // opposing transfer commits.
  world.SpawnApp(3, "shuttle-a", [b1, b2](Application& app) {
    for (int i = 0; i < 3; ++i) {
      app.RunTransactional([&](const server::Tx& tx) {
        Status s = b1->Withdraw(tx, 0, 40);
        if (s != Status::kOk) {
          return s;
        }
        return b2->Deposit(tx, 0, 40);
      });
    }
  }, 2'000);
  world.SpawnApp(3, "shuttle-b", [b1, b2](Application& app) {
    for (int i = 0; i < 3; ++i) {
      app.RunTransactional([&](const server::Tx& tx) {
        Status s = b2->Withdraw(tx, 0, 40);
        if (s != Status::kOk) {
          return s;
        }
        return b1->Deposit(tx, 0, 40);
      });
    }
  }, 2'500);
  world.Drain();
}

void RecoverAll(World& world) {
  NodeId runner = world.NodeAlive(1) ? 1 : 2;
  world.RunApp(runner, [&world](Application&) {
    for (NodeId n = 1; n <= 3; ++n) {
      if (!world.NodeAlive(n)) {
        world.RecoverNode(n);
      }
    }
    for (int pass = 0; pass < 2; ++pass) {
      for (NodeId n = 1; n <= 3; ++n) {
        for (const TransactionId& tid : world.tm(n).InDoubt()) {
          world.tm(n).ResolveInDoubt(tid);
        }
      }
    }
  });
}

TEST(QueueExecution, CrashAtEveryQueueAndEscrowPointConservesMoney) {
  // Pass 1: record the reachable fault surface.
  std::vector<sim::FaultInjector::PointHit> hits;
  {
    World world(3, SweepOptions());
    auto* b1 = world.AddServerOf<AccountServer>(1, "bank1", 2u);
    auto* b2 = world.AddServerOf<AccountServer>(2, "bank2", 2u);
    world.faults().StartRecording();
    RunSweepWorkload(world, b1, b2);
    hits = world.faults().recorded_hits();
  }
  std::map<std::string, int> counts;
  for (const auto& h : hits) {
    if (h.point.rfind("queue.", 0) == 0 || h.point.rfind("escrow.", 0) == 0) {
      counts[h.point] = std::max(counts[h.point], h.hit);
    }
  }
  // The workload must reach the mode's whole new surface: both release
  // regimes, the cascade window, and the escrow wait.
  ASSERT_TRUE(counts.count("queue.commit.early-release"));
  ASSERT_TRUE(counts.count("queue.prepare.early-release"));
  ASSERT_TRUE(counts.count("escrow.wait"));
  std::vector<std::pair<std::string, int>> plan;
  for (const auto& [point, count] : counts) {
    plan.emplace_back(point, 1);
    if (count > 2) {
      plan.emplace_back(point, count / 2 + 1);
    }
  }

  // Pass 2: one fresh universe per planned crash.
  for (const auto& [point, hit] : plan) {
    World world(3, SweepOptions());
    auto* b1 = world.AddServerOf<AccountServer>(1, "bank1", 2u);
    auto* b2 = world.AddServerOf<AccountServer>(2, "bank2", 2u);
    world.faults().ArmCrash(point, hit);
    RunSweepWorkload(world, b1, b2);
    EXPECT_TRUE(world.faults().crash_fired())
        << point << " hit " << hit << " never fired: determinism broken between passes";
    world.faults().Disarm();
    RecoverAll(world);

    const std::string where = point + "#" + std::to_string(hit);
    for (NodeId n = 1; n <= 3; ++n) {
      EXPECT_TRUE(world.tm(n).InDoubt().empty())
          << "unresolved in-doubt transaction on node " << n << " after " << where;
    }
    auto* r1 = world.Server<AccountServer>(1, "bank1");
    auto* r2 = world.Server<AccountServer>(2, "bank2");
    std::int64_t total = 0;
    bool read_ok = false;
    world.RunApp(3, [&](Application& app) {
      Status s = app.Transaction([&](const server::Tx& tx) {
        for (std::uint32_t a = 0; a < 2; ++a) {
          auto v1 = r1->ReadBalance(tx, a);
          auto v2 = r2->ReadBalance(tx, a);
          if (!v1.ok() || !v2.ok()) {
            return Status::kInternal;
          }
          EXPECT_GE(v1.value(), 0) << "bank1:" << a << " overdrawn after " << where;
          EXPECT_GE(v2.value(), 0) << "bank2:" << a << " overdrawn after " << where;
          total += v1.value() + v2.value();
        }
        return Status::kOk;
      });
      read_ok = s == Status::kOk;
    });
    ASSERT_TRUE(read_ok) << "balance read failed after " << where;
    EXPECT_TRUE(total == 2 * kSeedPerBank || total == 0)
        << "money not conserved after crash at " << where << ": total=" << total;
    if (::testing::Test::HasFailure()) {
      break;  // one repro is enough; later crashes would drown it
    }
  }
}

}  // namespace
}  // namespace tabs
