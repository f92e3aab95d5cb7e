// Property tests: randomized workloads with crashes injected at arbitrary
// points, checked against an in-memory model.
//
//  * Local durability: after any sequence of committed / aborted /
//    interrupted transactions, checkpoints, reclamations and crashes, the
//    recovered array equals exactly the committed prefix.
//  * Distributed atomicity: a 2-node transfer interrupted by a participant
//    or coordinator crash either happens on both nodes or on neither, once
//    in-doubt transactions are resolved.
// Deterministic per seed (virtual time), so failures replay exactly.

#include <gtest/gtest.h>

#include <map>
#include <random>

#include "src/servers/array_server.h"
#include "src/tabs/world.h"

namespace tabs {
namespace {

using servers::ArrayServer;

struct FuzzParam {
  unsigned seed;
  int cycles;        // crash/recover cycles
  int txns_per_cycle;
};

class RecoveryFuzzTest : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(RecoveryFuzzTest, CommittedPrefixSurvivesArbitraryCrashes) {
  const FuzzParam param = GetParam();
  std::mt19937 rng(param.seed);
  constexpr std::uint32_t kCells = 32;

  World world(2);
  ArrayServer* arr = world.AddServerOf<ArrayServer>(1, "fuzz", kCells);
  std::map<std::uint32_t, std::int32_t> model;  // committed state only

  for (int cycle = 0; cycle < param.cycles; ++cycle) {
    world.RunApp(1, [&](Application& app) {
      for (int t = 0; t < param.txns_per_cycle; ++t) {
        int writes = 1 + static_cast<int>(rng() % 4);
        std::map<std::uint32_t, std::int32_t> staged;
        TransactionId tid = app.Begin();
        server::Tx tx = app.MakeTx(tid);
        for (int w = 0; w < writes; ++w) {
          std::uint32_t cell = rng() % kCells;
          auto value = static_cast<std::int32_t>(rng() % 100000);
          if (arr->SetCell(tx, cell, value) == Status::kOk) {
            staged[cell] = value;
          }
        }
        switch (rng() % 4) {
          case 0:  // abort explicitly
            app.Abort(tid);
            break;
          case 1: {  // crash mid-transaction, sometimes with forced log/pages
            if (rng() % 2 == 0) {
              world.rm(1).log().ForceAll();
            }
            if (rng() % 3 == 0) {
              arr->segment().FlushAll();
            }
            world.CrashNode(1);  // unwinds this task via TaskKilled
            return;              // unreachable
          }
          default:  // commit
            if (app.End(tid) == Status::kOk) {
              for (auto& [cell, value] : staged) {
                model[cell] = value;
              }
            }
            break;
        }
        if (rng() % 7 == 0) {
          world.Checkpoint(1);
        }
        if (rng() % 11 == 0) {
          world.ReclaimLog(1);
        }
      }
      // Cycle ended without a mid-transaction crash: crash at rest.
      world.CrashNode(1);
    });

    world.RunApp(2, [&](Application&) {
      world.RecoverNode(1);
      arr = world.Server<ArrayServer>(1, "fuzz");
    });

    world.RunApp(1, [&](Application& app) {
      app.Transaction([&](const server::Tx& tx) {
        for (std::uint32_t cell = 0; cell < kCells; ++cell) {
          std::int32_t expect = model.contains(cell) ? model[cell] : 0;
          auto got = arr->GetCell(tx, cell);
          EXPECT_TRUE(got.ok());
          EXPECT_EQ(got.value(), expect)
              << "cell " << cell << " cycle " << cycle << " seed " << param.seed;
        }
        return Status::kOk;
      });
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryFuzzTest,
                         ::testing::Values(FuzzParam{101, 3, 12}, FuzzParam{202, 3, 12},
                                           FuzzParam{303, 4, 8}, FuzzParam{404, 2, 20},
                                           FuzzParam{505, 5, 6}, FuzzParam{606, 3, 15}),
                         [](const ::testing::TestParamInfo<FuzzParam>& info) {
                           return "seed" + std::to_string(info.param.seed);
                         });

// ---------- distributed atomicity under crashes ----------

class DistributedFuzzTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(DistributedFuzzTest, TransfersAreAtomicAcrossCrashes) {
  std::mt19937 rng(GetParam());
  World world(3);
  ArrayServer* a1 = world.AddServerOf<ArrayServer>(1, "a1", 8u);
  ArrayServer* a2 = world.AddServerOf<ArrayServer>(2, "a2", 8u);

  // Invariant: cell 0 on node 1 plus cell 0 on node 2 stays 1000.
  world.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      a1->SetCell(tx, 0, 1000);
      a2->SetCell(tx, 0, 0);
      return Status::kOk;
    });
  });

  for (int round = 0; round < 10; ++round) {
    int crash_node = static_cast<int>(rng() % 3);  // 0: none, 1 or 2: that node
    // Occasionally lose a commit-protocol datagram as well.
    if (rng() % 3 == 0) {
      int drop_after = static_cast<int>(rng() % 3);
      // The filter outlives this block, so the counter must live inside it.
      world.network().SetDatagramLoss(
          [count = 0, drop_after](NodeId from, NodeId to, const std::string&) mutable {
            return ++count == drop_after + 1;
          });
    }
    world.RunApp(1, [&](Application& app) {
      TransactionId tid = app.Begin();
      server::Tx tx = app.MakeTx(tid);
      auto from = a1->GetCell(tx, 0);
      if (!from.ok()) {
        app.Abort(tid);
        return;
      }
      auto amount = static_cast<std::int32_t>(rng() % 50);
      a1->SetCell(tx, 0, from.value() - amount);
      auto to = a2->GetCell(tx, 0);
      if (to.ok()) {
        a2->SetCell(tx, 0, to.value() + amount);
      }
      if (crash_node == 2 && rng() % 2 == 0) {
        world.CrashNode(2);  // participant dies before commit
      }
      app.End(tid);  // outcome may be commit or abort; atomicity must hold
      if (crash_node == 1) {
        world.CrashNode(1);  // coordinator dies right after deciding
      }
    });
    world.network().SetDatagramLoss({});
    world.RunApp(3, [&](Application&) {
      if (!world.NodeAlive(1)) {
        world.RecoverNode(1);
        a1 = world.Server<ArrayServer>(1, "a1");
      }
      if (!world.NodeAlive(2)) {
        world.RecoverNode(2);
        a2 = world.Server<ArrayServer>(2, "a2");
      }
      // Resolve any lingering in-doubt transactions on both nodes.
      for (NodeId n = 1; n <= 2; ++n) {
        for (const TransactionId& t : world.tm(n).InDoubt()) {
          world.tm(n).ResolveInDoubt(t);
        }
      }
    });
    world.RunApp(3, [&](Application& app) {
      app.Transaction([&](const server::Tx& tx) {
        auto v1 = a1->GetCell(tx, 0);
        auto v2 = a2->GetCell(tx, 0);
        EXPECT_TRUE(v1.ok());
        EXPECT_TRUE(v2.ok());
        if (v1.ok() && v2.ok()) {
          EXPECT_EQ(v1.value() + v2.value(), 1000)
              << "round " << round << " seed " << GetParam();
        }
        return Status::kOk;
      });
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistributedFuzzTest,
                         ::testing::Values(11u, 22u, 33u, 44u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace tabs
