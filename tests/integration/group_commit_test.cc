// Group commit integration tests.
//
// The contract under test: with group_commit_window_us > 0, committing
// transactions batch their log forces through the per-node daemon — many
// commits, one stable write — while the externally visible guarantee is
// unchanged: End() returns kOk only after the commit record is stable, and a
// node crash mid-batch aborts the entire unforced tail on recovery.

#include <gtest/gtest.h>

#include "src/log/group_commit.h"
#include "src/servers/array_server.h"
#include "src/tabs/world.h"

namespace tabs {
namespace {

using servers::ArrayServer;

WorldOptions GroupCommitOptions(SimTime window_us) {
  WorldOptions opt;
  opt.group_commit_window_us = window_us;
  return opt;
}

TEST(GroupCommitTest, WindowZeroForcesPerTransaction) {
  WorldOptions opt;
  opt.commit_mode = txn::CommitMode::kTwoPhase;  // force counts are 2PC's
  World world(1, opt);  // default window: daemon disabled
  ArrayServer* a = world.AddServerOf<ArrayServer>(1, "array", 64u);
  world.metrics().Reset();
  int result = world.RunApp(1, [&](Application& app) {
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(app.Transaction([&](const server::Tx& tx) {
        return a->SetCell(tx, static_cast<std::uint32_t>(i), i);
      }), Status::kOk);
    }
  });
  EXPECT_EQ(result, 0);
  // Paper-faithful: one issued force per commit, nothing absorbed.
  EXPECT_EQ(world.metrics().forces_issued(), 4.0);
  EXPECT_EQ(world.metrics().forces_absorbed(), 0.0);
  EXPECT_FALSE(world.group_commit(1).enabled());
}

TEST(GroupCommitTest, ConcurrentCommittersShareOneForce) {
  World world(1, GroupCommitOptions(2'000));
  ArrayServer* a = world.AddServerOf<ArrayServer>(1, "array", 64u);
  world.metrics().Reset();
  constexpr int kApps = 8;
  int committed = 0;
  for (int i = 0; i < kApps; ++i) {
    world.SpawnApp(1, "app" + std::to_string(i), [&, i](Application& app) {
      Status s = app.Transaction([&](const server::Tx& tx) {
        return a->SetCell(tx, static_cast<std::uint32_t>(i), i + 1);
      });
      if (s == Status::kOk) {
        ++committed;
      }
    }, i * 100);  // all land inside one 2 ms batch window
  }
  EXPECT_EQ(world.Drain(), 0);
  EXPECT_EQ(committed, kApps);
  // The batch window coalesced the 8 commit forces into fewer stable
  // writes; the absorbed count is what the batching saved.
  EXPECT_LT(world.metrics().forces_issued(), static_cast<double>(kApps));
  EXPECT_GT(world.metrics().forces_absorbed(), 0.0);
  EXPECT_GE(world.group_commit(1).largest_batch(), 2);
  // Everything really committed: values are durable and visible.
  world.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      for (int i = 0; i < kApps; ++i) {
        EXPECT_EQ(a->GetCell(tx, static_cast<std::uint32_t>(i)).value(), i + 1);
      }
      return Status::kOk;
    });
  });
}

TEST(GroupCommitTest, FullBatchFlushesBeforeWindowExpires) {
  // Window far larger than the workload's span: only the full-batch early
  // flush can complete these commits promptly.
  World world(1, GroupCommitOptions(50'000'000));
  ArrayServer* a = world.AddServerOf<ArrayServer>(1, "array", 64u);
  constexpr int kCommitters = log::GroupCommit::kMaxBatch;
  int committed = 0;
  std::vector<SimTime> commit_times;
  for (int i = 0; i < kCommitters; ++i) {
    world.SpawnApp(1, "app" + std::to_string(i), [&, i](Application& app) {
      if (app.Transaction([&](const server::Tx& tx) {
            return a->SetCell(tx, static_cast<std::uint32_t>(i), 1);
          }) == Status::kOk) {
        ++committed;
        commit_times.push_back(world.scheduler().Now());
      }
    }, i * 100);
  }
  EXPECT_EQ(world.Drain(), 0);
  EXPECT_EQ(committed, kCommitters);
  for (SimTime t : commit_times) {
    EXPECT_LT(t, 50'000'000) << "commit waited for the window timer";
  }
  EXPECT_EQ(world.group_commit(1).largest_batch(), kCommitters);
}

TEST(GroupCommitTest, CrashMidBatchAbortsUnforcedTail) {
  // A huge window keeps commit records unforced: the committer blocks in the
  // daemon, the node crashes before any flush, and recovery must roll the
  // transaction back — End() never returned, so nothing was ever promised.
  World world(2, GroupCommitOptions(1'000'000'000));
  ArrayServer* a = world.AddServerOf<ArrayServer>(1, "array", 64u);
  bool commit_returned = false;
  world.SpawnApp(1, "committer", [&](Application& app) {
    TxnScope t(app);
    a->SetCell(t.tx(), 0, 42);
    // Make the *update* records stable so recovery genuinely sees this
    // transaction — and must judge it by its missing commit record.
    world.rm(1).log().ForceAll();
    t.Commit();  // blocks in the daemon; the crash kills the task here
    commit_returned = true;  // must never run
  });
  world.SpawnApp(2, "crasher", [&](Application& app) {
    world.CrashNode(1);
  }, 500'000);  // after the commit record is appended, before the window fires
  EXPECT_EQ(world.Drain(), 0);
  EXPECT_FALSE(commit_returned);

  world.RunApp(2, [&](Application& app) {
    auto stats = world.RecoverNode(1);
    // The unforced tail (our one transaction) is a loser: its commit record
    // never reached the stable device.
    EXPECT_EQ(stats.losers.size(), 1u);
  });
  a = world.Server<ArrayServer>(1, "array");
  world.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(a->GetCell(tx, 0).value(), 0);  // write rolled back
      return Status::kOk;
    });
  });
}

TEST(GroupCommitTest, CommitReportedBeforeCrashSurvivesRecovery) {
  // Positive control for CrashMidBatchAbortsUnforcedTail: with a short
  // window the batch flushes, End() returns kOk, and the value must then
  // survive the crash.
  WorldOptions opt = GroupCommitOptions(1'000);
  opt.commit_mode = txn::CommitMode::kTwoPhase;  // recovery shape is 2PC's
  World world(2, opt);
  ArrayServer* a = world.AddServerOf<ArrayServer>(1, "array", 64u);
  bool commit_returned = false;
  world.SpawnApp(1, "committer", [&](Application& app) {
    Status s = app.Transaction([&](const server::Tx& tx) {
      return a->SetCell(tx, 0, 42);
    });
    EXPECT_EQ(s, Status::kOk);
    commit_returned = true;
  });
  world.SpawnApp(2, "crasher", [&](Application& app) {
    world.CrashNode(1);
  }, 500'000);
  EXPECT_EQ(world.Drain(), 0);
  EXPECT_TRUE(commit_returned);

  world.RunApp(2, [&](Application& app) {
    auto stats = world.RecoverNode(1);
    EXPECT_TRUE(stats.losers.empty());
  });
  a = world.Server<ArrayServer>(1, "array");
  world.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(a->GetCell(tx, 0).value(), 42);  // reported committed => stable
      return Status::kOk;
    });
  });
}

TEST(GroupCommitTest, CheckpointForceAbsorbsPendingBatch) {
  // A checkpoint's ForceAll advances the durable frontier past a pending
  // batch's records: the blocked committer wakes immediately (its force
  // absorbed) instead of waiting out the window.
  WorldOptions opt = GroupCommitOptions(20'000'000);
  opt.commit_mode = txn::CommitMode::kTwoPhase;  // force counts are 2PC's
  World world(1, opt);
  ArrayServer* a = world.AddServerOf<ArrayServer>(1, "array", 64u);
  world.metrics().Reset();
  SimTime commit_time = 0;
  world.SpawnApp(1, "committer", [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      return a->SetCell(tx, 0, 1);
    });
    commit_time = world.scheduler().Now();
  });
  world.SpawnApp(1, "checkpointer", [&](Application& app) {
    world.Checkpoint(1);
  }, 1'000'000);
  EXPECT_EQ(world.Drain(), 0);
  EXPECT_GT(commit_time, 0);
  EXPECT_LT(commit_time, 20'000'000) << "committer waited out the window";
}

TEST(GroupCommitTest, DaemonSurvivesCrashRecoverCycle) {
  // RecoverNode rebuilds the runtime, daemon included: batching still works
  // in the node's second incarnation.
  World world(2, GroupCommitOptions(2'000));
  ArrayServer* a = world.AddServerOf<ArrayServer>(1, "array", 64u);
  world.RunApp(2, [&](Application& app) {
    world.CrashNode(1);
    world.RecoverNode(1);
  });
  a = world.Server<ArrayServer>(1, "array");
  world.metrics().Reset();
  int committed = 0;
  for (int i = 0; i < 4; ++i) {
    world.SpawnApp(1, "app" + std::to_string(i), [&, i](Application& app) {
      if (app.Transaction([&](const server::Tx& tx) {
            return a->SetCell(tx, static_cast<std::uint32_t>(i), 1);
          }) == Status::kOk) {
        ++committed;
      }
    }, i * 100);
  }
  EXPECT_EQ(world.Drain(), 0);
  EXPECT_EQ(committed, 4);
  EXPECT_TRUE(world.group_commit(1).enabled());
  EXPECT_GT(world.metrics().forces_absorbed(), 0.0);
}

}  // namespace
}  // namespace tabs
