// An abort that lands while a pipelined write of the same transaction is
// suspended inside the Recovery Manager's automatic log reclamation. The
// write has handed its before/after images to the log but has not yet
// finished: the abort's cleanup must neither free the write's staged entry
// under it nor leave the aborted transaction marked as having updates.

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/servers/array_server.h"
#include "src/tabs/world.h"

namespace tabs {
namespace {

using servers::ArrayServer;

constexpr NodeId kNodes = 4;
constexpr std::uint32_t kCells = 256;

std::string NameOf(NodeId n) { return "a" + std::to_string(n); }

// 400 transactions from node 1, each issuing one to three pipelined writes to
// random nodes. Every fifth aborts without awaiting its writes; the others
// await them and commit.
void RunWorkload(unsigned seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  WorldOptions opt;
  opt.log_space_budget = 16 * 1024;  // small enough that writes reclaim often
  World world(kNodes, opt);
  for (NodeId n = 1; n <= kNodes; ++n) {
    world.AddServerOf<ArrayServer>(n, NameOf(n), kCells);
  }

  std::map<std::pair<NodeId, std::uint32_t>, std::int32_t> committed;
  std::vector<TransactionId> aborted;
  world.SpawnApp(1, "app", [&](Application& app) {
    std::mt19937 rng(seed);
    for (int i = 0; i < 400; ++i) {
      TransactionId t = app.Begin();
      server::Tx tx = app.MakeTx(t);
      std::map<std::pair<NodeId, std::uint32_t>, std::int32_t> writes;
      std::vector<sim::FuturePtr<Result<std::vector<Result<bool>>>>> futures;
      int count = 1 + static_cast<int>(rng() % 3);
      for (int w = 0; w < count; ++w) {
        NodeId n = 1 + static_cast<NodeId>(rng() % kNodes);
        std::uint32_t cell = rng() % kCells;
        std::int32_t value = i + 1;
        auto* server = world.Server<ArrayServer>(n, NameOf(n));
        futures.push_back(server->AsyncSetCells(tx, {{cell, value}}).front());
        writes[{n, cell}] = value;
      }
      if (i % 5 == 4) {
        // Abort while the writes may still be running at their servers.
        app.Abort(t);
        aborted.push_back(t);
        continue;
      }
      bool ok = true;
      for (auto& f : futures) {
        ok = f->Await(comm::Network::kDefaultSessionTimeout) && f->value().ok() &&
             f->value().value().front().ok() && ok;
      }
      if (!ok) {
        app.Abort(t);
        aborted.push_back(t);
        continue;
      }
      if (app.End(t) == Status::kOk) {
        for (const auto& [where, value] : writes) {
          committed[where] = value;
        }
      } else {
        aborted.push_back(t);
      }
    }
  });
  EXPECT_EQ(world.Drain(), 0);

  world.RunApp(1, [&](Application& app) {
    Status s = app.Transaction([&](const server::Tx& tx) {
      for (const auto& [where, value] : committed) {
        auto* server = world.Server<ArrayServer>(where.first, NameOf(where.first));
        EXPECT_EQ(server->GetCell(tx, where.second).value(), value)
            << "cell " << where.second << " on node " << where.first;
      }
      return Status::kOk;
    });
    EXPECT_EQ(s, Status::kOk);
  });
  for (NodeId n = 1; n <= kNodes; ++n) {
    auto* server = world.Server<ArrayServer>(n, NameOf(n));
    for (const TransactionId& t : aborted) {
      EXPECT_FALSE(server->HasUpdates(t)) << "aborted " << ToString(t) << " on node " << n;
    }
  }
}

TEST(AbortDuringReclaimTest, AbortedPipelinedWritesLeaveNothingBehind) {
  for (unsigned seed = 1; seed <= 3; ++seed) {
    RunWorkload(seed);
  }
}

}  // namespace
}  // namespace tabs
