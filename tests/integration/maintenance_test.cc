// Log-maintenance tests: automatic reclamation under a log-space budget
// (Section 3.2.2).

#include <gtest/gtest.h>

#include <vector>

#include "src/servers/array_server.h"
#include "src/tabs/world.h"

namespace tabs {
namespace {

using servers::ArrayServer;

TEST(MaintenanceTest, AutoReclaimKeepsLogWithinBudget) {
  WorldOptions options;
  options.log_space_budget = 16 * 1024;
  World world(2, options);
  auto* arr = world.AddServerOf<ArrayServer>(1, "arr", 64u);

  world.RunApp(1, [&](Application& app) {
    for (int i = 0; i < 300; ++i) {
      app.Transaction([&](const server::Tx& tx) {
        arr->SetCell(tx, i % 32, i);
        return Status::kOk;
      });
    }
    EXPECT_GT(world.rm(1).auto_reclaim_count(), 0);
    // The retained log stays near the budget (one reclamation's worth of
    // slack: records may accumulate until the next trigger).
    EXPECT_LT(world.rm(1).StableLogBytesInUse(), 2 * options.log_space_budget);
  });
  // Correctness after heavy reclamation + a crash.
  world.RunApp(1, [&](Application& app) {
    world.CrashNode(1);
  });
  world.RunApp(2, [&](Application& app) {
    world.RecoverNode(1);
    arr = world.Server<ArrayServer>(1, "arr");
  });
  world.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(arr->GetCell(tx, 299 % 32).value(), 299);
      return Status::kOk;
    });
  });
}

TEST(MaintenanceTest, ReclaimPreservesActiveTransactionUndo) {
  WorldOptions options;
  options.log_space_budget = 8 * 1024;
  World world(1, options);
  auto* arr = world.AddServerOf<ArrayServer>(1, "arr", 64u);
  world.RunApp(1, [&](Application& app) {
    // A long-running transaction pins its first record across reclamations.
    TransactionId oldie = app.Begin();
    arr->SetCell(app.MakeTx(oldie), 0, 12345);
    for (int i = 0; i < 200; ++i) {
      app.Transaction([&](const server::Tx& tx) {
        arr->SetCell(tx, 1 + (i % 16), i);
        return Status::kOk;
      });
    }
    EXPECT_GT(world.rm(1).auto_reclaim_count(), 0);
    // The old transaction can still abort cleanly: its records survived.
    app.Abort(oldie);
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(arr->GetCell(tx, 0).value(), 0);
      return Status::kOk;
    });
  });
}

// A remote subtransaction's updates are filed under the subtransaction at
// the participant, whose Transaction Manager lists only the top-level entry
// (with no first record there). Reclamation must still keep them until the
// subtransaction aborts.
TEST(MaintenanceTest, ReclaimKeepsALiveRemoteSubtransactionsUndo) {
  World world(2);
  auto* a2 = world.AddServerOf<ArrayServer>(2, "a2", 4u);
  world.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) { return a2->SetCell(tx, 0, 5); });
    TransactionId t = app.Begin();
    TransactionId s = app.Begin(t);
    ASSERT_EQ(a2->SetCell(app.MakeTx(s), 0, 9), Status::kOk);
    world.ReclaimLog(2);
    app.Abort(s);
    EXPECT_EQ(app.End(t), Status::kOk);
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(a2->GetCell(tx, 0).value(), 5);
      return Status::kOk;
    });
  });
}

TEST(MaintenanceTest, PinnedLogReclaimsOncePerHalfBudget) {
  WorldOptions options;
  options.log_space_budget = 16 * 1024;
  options.log_reclaim_watermark = 0.75;
  World world(2, options);
  constexpr std::uint32_t kCells = 1024;
  auto* arr = world.AddServerOf<ArrayServer>(1, "arr", kCells);
  std::vector<std::int32_t> model(kCells, 0);

  world.RunApp(1, [&](Application& app) {
    // One long transaction pins the log from its first record, so past the
    // watermark no reclamation can truncate anything until it commits.
    const Lsn start = world.rm(1).log().last_lsn();
    ASSERT_EQ(app.Transaction([&](const server::Tx& tx) {
      for (std::uint32_t c = 0; c < kCells; ++c) {
        Status s = arr->SetCell(tx, c, static_cast<std::int32_t>(c + 1));
        if (s != Status::kOk) {
          return s;
        }
      }
      return Status::kOk;
    }),
              Status::kOk);
    for (std::uint32_t c = 0; c < kCells; ++c) {
      model[c] = static_cast<std::int32_t>(c + 1);
    }
    // A reclamation the pin makes futile waits for another half budget of
    // log instead of repeating on every update.
    const std::uint64_t log_bytes = world.rm(1).log().last_lsn() - start;
    const std::uint64_t half = options.log_space_budget / 2;
    EXPECT_GT(world.rm(1).auto_reclaim_count(), 0);
    EXPECT_LE(static_cast<std::uint64_t>(world.rm(1).auto_reclaim_count()),
              1 + (log_bytes + half - 1) / half);
    EXPECT_GT(world.rm(1).StableLogBytesInUse(), options.log_space_budget);

    // With the pin gone, short transactions bring the log back under budget.
    for (std::uint32_t i = 0; i < 100; ++i) {
      const std::uint32_t cell = (i * 37) % kCells;
      const auto value = static_cast<std::int32_t>(-1 - static_cast<std::int32_t>(i));
      ASSERT_EQ(app.Transaction(
                    [&](const server::Tx& tx) { return arr->SetCell(tx, cell, value); }),
                Status::kOk);
      model[cell] = value;
    }
    EXPECT_LT(world.rm(1).StableLogBytesInUse(), options.log_space_budget);
  });

  // Every acknowledged cell survives a crash.
  world.RunApp(1, [&](Application&) { world.CrashNode(1); });
  world.RunApp(2, [&](Application&) {
    world.RecoverNode(1);
    arr = world.Server<ArrayServer>(1, "arr");
  });
  world.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      for (std::uint32_t c = 0; c < kCells; ++c) {
        EXPECT_EQ(arr->GetCell(tx, c).value(), model[c]) << "cell " << c;
      }
      return Status::kOk;
    });
  });
}

TEST(MaintenanceTest, CheckpointsDisabledByDefault) {
  World world(1);
  auto* arr = world.AddServerOf<ArrayServer>(1, "arr", 64u);
  world.RunApp(1, [&](Application& app) {
    for (int i = 0; i < 20; ++i) {
      app.Transaction([&](const server::Tx& tx) {
        arr->SetCell(tx, 0, i);
        return Status::kOk;
      });
    }
    EXPECT_EQ(world.rm(1).auto_reclaim_count(), 0);
  });
}

}  // namespace
}  // namespace tabs
