// Placement and service-handle integration tests.
//
// A logical service spanning N nodes must behave like one server: operations
// route to the shard that owns the key or index, cross-shard transactions
// commit atomically under the unchanged two-phase protocol, and the handle
// heals itself across shard-node crash and recovery. The last test reuses
// the crash-point exploration harness over the *fan-out* windows the
// sharded batches open (comm.batch-issue on the coordinator,
// comm.batch-dispatch on the receiving shard): for every reached
// communication fault point, a crash armed there must leave the committed
// prefix intact and conserve the array total after recovery.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/placement/shard_map.h"
#include "src/servers/account_server.h"
#include "src/servers/array_server.h"
#include "src/servers/btree_server.h"
#include "src/tabs/service_handle.h"
#include "src/tabs/world.h"
#include "tests/integration/fault_census.h"

namespace tabs {
namespace {

using servers::AccountServer;
using servers::ArrayServer;
using servers::BTreeServer;

// --- shard map unit behaviour ---------------------------------------------------

TEST(ShardMapTest, InterleavedRoutingIsInvertibleAndBalanced) {
  std::vector<name::Binding> bindings;
  for (std::uint32_t s = 0; s < 3; ++s) {
    bindings.push_back({static_cast<NodeId>(s + 1),
                        placement::ShardInstanceName("a", s),
                        {10 + s, s, 3}});
  }
  auto map = placement::ShardMap::FromBindings("a", bindings);
  ASSERT_TRUE(map.ok());
  std::uint64_t per_shard[3] = {0, 0, 0};
  for (std::uint64_t i = 0; i < 100; ++i) {
    std::uint32_t shard = map.value().ShardOfIndex(i);
    std::uint64_t local = map.value().LocalIndex(i);
    EXPECT_EQ(shard, i % 3);
    EXPECT_EQ(local * 3 + shard, i);  // invertible
    ++per_shard[shard];
  }
  EXPECT_EQ(per_shard[0], 34u);
  EXPECT_EQ(per_shard[1], 33u);
  EXPECT_EQ(per_shard[2], 33u);
  // LocalSize partitions the total exactly.
  std::uint64_t sum = 0;
  for (std::uint32_t s = 0; s < 3; ++s) {
    sum += placement::ShardSlice{s, 3}.LocalSize(100);
  }
  EXPECT_EQ(sum, 100u);
}

TEST(ShardMapTest, RejectsPartialOrInconsistentShardSets) {
  std::vector<name::Binding> two;
  two.push_back({1, "a#0", {10, 0, 3}});
  two.push_back({2, "a#1", {11, 1, 3}});
  EXPECT_FALSE(placement::ShardMap::FromBindings("a", two).ok());  // shard 2 missing

  std::vector<name::Binding> conflicting;
  conflicting.push_back({1, "a#0", {10, 0, 2}});
  conflicting.push_back({2, "a#1", {11, 1, 3}});  // disagrees on the count
  EXPECT_FALSE(placement::ShardMap::FromBindings("a", conflicting).ok());
}

TEST(ShardMapTest, KeyHashIsDeterministic) {
  // FNV-1a, fixed across platforms: the routing of a key must never depend
  // on the standard library's std::hash.
  EXPECT_EQ(placement::ShardMap::HashKey(""), 14695981039346656037ull);
  EXPECT_EQ(placement::ShardMap::HashKey("a"),
            (14695981039346656037ull ^ 'a') * 1099511628211ull);
}

// --- routed operations ----------------------------------------------------------

TEST(PlacementTest, ArrayServiceRoutesEveryIndexToItsShard) {
  World world(3);
  constexpr std::uint64_t kCells = 10;
  auto shards = world.AddShardedServiceOf<ArrayServer>("cells", {1, 2, 3}, 3, kCells);
  ASSERT_EQ(shards.size(), 3u);
  // Interleaved partitioning: 10 cells over 3 shards -> sizes 4, 3, 3.
  EXPECT_EQ(shards[0]->max_cell(), 4u);
  EXPECT_EQ(shards[1]->max_cell(), 3u);
  EXPECT_EQ(shards[2]->max_cell(), 3u);

  world.RunApp(1, [&](Application& app) {
    ArrayService cells = OpenArray(world, "cells");
    Status s = app.Transaction([&](const server::Tx& tx) {
      for (std::uint64_t i = 0; i < kCells; ++i) {
        Status w = cells.Set(tx, i, static_cast<std::int32_t>(i * 10));
        if (w != Status::kOk) {
          return w;
        }
      }
      return Status::kOk;
    });
    ASSERT_EQ(s, Status::kOk);
    EXPECT_EQ(cells.shard_count(), 3u);

    app.Transaction([&](const server::Tx& tx) {
      for (std::uint64_t i = 0; i < kCells; ++i) {
        // Through the handle...
        auto v = cells.Get(tx, i);
        EXPECT_TRUE(v.ok());
        EXPECT_EQ(v.ok() ? v.value() : -1, static_cast<std::int32_t>(i * 10));
        // ...and at the owning shard directly, at the interleaved local slot.
        auto direct = shards[i % 3]->GetCell(tx, static_cast<std::uint32_t>(i / 3));
        EXPECT_TRUE(direct.ok());
        EXPECT_EQ(direct.ok() ? direct.value() : -1, static_cast<std::int32_t>(i * 10));
      }
      return Status::kOk;
    });
  });
}

TEST(PlacementTest, BatchedOpsSpanShardsInArgumentOrder) {
  WorldOptions opt;
  opt.max_outstanding_calls = 4;  // the batches ride the pipelining window
  opt.op_coalesce_batch = 2;
  World world(3, opt);
  constexpr std::uint64_t kCells = 12;
  world.AddShardedServiceOf<ArrayServer>("cells", {1, 2, 3}, 3, kCells);

  world.RunApp(1, [&](Application& app) {
    ArrayService cells = OpenArray(world, "cells");
    Status s = app.Transaction([&](const server::Tx& tx) {
      std::vector<std::pair<std::uint64_t, std::int32_t>> writes;
      for (std::uint64_t i = 0; i < kCells; ++i) {
        writes.push_back({i, static_cast<std::int32_t>(100 + i)});
      }
      return cells.SetMany(tx, writes);
    });
    ASSERT_EQ(s, Status::kOk);

    app.Transaction([&](const server::Tx& tx) {
      // Shuffled read order across all three shards; results must come back
      // in argument order.
      std::vector<std::uint64_t> indices = {11, 0, 7, 3, 5, 10, 1, 8};
      auto got = cells.GetMany(tx, indices);
      EXPECT_TRUE(got.ok());
      if (got.ok()) {
        EXPECT_EQ(got.value().size(), indices.size());
        for (size_t k = 0; k < indices.size(); ++k) {
          EXPECT_EQ(got.value()[k], static_cast<std::int32_t>(100 + indices[k]));
        }
      }
      return Status::kOk;
    });
  });
  EXPECT_GT(world.metrics().async_calls_issued(), 0u);
}

TEST(PlacementTest, BTreeServiceHashesKeysToOwningShard) {
  World world(2);
  auto shards = world.AddShardedServiceOf<BTreeServer>("kv", {1, 2}, 2);
  ASSERT_EQ(shards.size(), 2u);

  std::vector<std::string> keys = {"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"};
  world.RunApp(1, [&](Application& app) {
    BTreeService kv = OpenBTree(world, "kv");
    Status s = app.Transaction([&](const server::Tx& tx) {
      for (const std::string& k : keys) {
        Status w = kv.Insert(tx, k, "v-" + k);
        if (w != Status::kOk) {
          return w;
        }
      }
      return Status::kOk;
    });
    ASSERT_EQ(s, Status::kOk);

    app.Transaction([&](const server::Tx& tx) {
      for (const std::string& k : keys) {
        auto v = kv.Lookup(tx, k);
        EXPECT_TRUE(v.ok()) << k;
        EXPECT_EQ(v.ok() ? v.value() : "", "v-" + k);
        // The key lives on exactly the shard the hash names: present there,
        // absent on the other.
        std::uint32_t owner = placement::ShardMap::HashKey(k) % 2;
        EXPECT_TRUE(shards[owner]->Lookup(tx, k).ok()) << k;
        EXPECT_FALSE(shards[1 - owner]->Lookup(tx, k).ok()) << k;
      }
      return Status::kOk;
    });
  });
}

TEST(PlacementTest, OpeningUnknownServiceFailsNotFound) {
  World world(1);
  world.RunApp(1, [&](Application& app) {
    AccountService ghost = OpenAccounts(world, "no-such-service");
    Status s = app.Transaction(
        [&](const server::Tx& tx) { return ghost.Deposit(tx, 0, 1); });
    EXPECT_EQ(s, Status::kNotFound);
  });
}

// --- cross-shard transactions ---------------------------------------------------

TEST(PlacementTest, CrossShardTransferIsAtomic) {
  World world(3);
  constexpr std::uint64_t kAccounts = 6;
  world.AddShardedServiceOf<AccountServer>("accounts", {1, 2, 3}, 3, kAccounts);

  world.RunApp(1, [&](Application& app) {
    AccountService bank = OpenAccounts(world, "accounts");
    ASSERT_EQ(app.Transaction([&](const server::Tx& tx) {
                for (std::uint64_t a = 0; a < kAccounts; ++a) {
                  Status s = bank.Deposit(tx, a, 100);
                  if (s != Status::kOk) {
                    return s;
                  }
                }
                return Status::kOk;
              }),
              Status::kOk);

    // Accounts 1 (shard 1) and 2 (shard 2): debit and credit on different
    // nodes, one transaction.
    ASSERT_EQ(app.Transaction([&](const server::Tx& tx) {
                Status s = bank.Withdraw(tx, 1, 40);
                if (s != Status::kOk) {
                  return s;
                }
                return bank.Deposit(tx, 2, 40);
              }),
              Status::kOk);

    // A doomed cross-shard transaction leaves no trace on either shard.
    TxnScope doomed(app);
    bank.Withdraw(doomed.tx(), 1, 25);
    bank.Deposit(doomed.tx(), 2, 25);
    doomed.Abort();

    app.Transaction([&](const server::Tx& tx) {
      auto b1 = bank.Balance(tx, 1);
      auto b2 = bank.Balance(tx, 2);
      EXPECT_TRUE(b1.ok() && b2.ok());
      EXPECT_EQ(b1.value(), 60);
      EXPECT_EQ(b2.value(), 140);
      return Status::kOk;
    });
  });
}

TEST(PlacementTest, HandleHealsAcrossShardCrashAndRecovery) {
  World world(3);
  constexpr std::uint64_t kAccounts = 6;
  world.AddShardedServiceOf<AccountServer>("accounts", {1, 2, 3}, 3, kAccounts);

  world.RunApp(1, [&](Application& app) {
    AccountService bank = OpenAccounts(world, "accounts");
    ASSERT_EQ(app.Transaction([&](const server::Tx& tx) {
                for (std::uint64_t a = 0; a < kAccounts; ++a) {
                  Status s = bank.Deposit(tx, a, 100);
                  if (s != Status::kOk) {
                    return s;
                  }
                }
                return Status::kOk;
              }),
              Status::kOk);

    // Shard 1 (node 2) dies. Operations on its accounts fail kNodeDown —
    // the handle's fresh re-resolution comes back incomplete — while other
    // shards keep serving.
    world.CrashNode(2);
    EXPECT_EQ(app.Transaction([&](const server::Tx& tx) { return bank.Withdraw(tx, 1, 10); }),
              Status::kNodeDown);
    EXPECT_EQ(app.Transaction([&](const server::Tx& tx) { return bank.Withdraw(tx, 0, 10); }),
              Status::kOk);

    // Recovery re-registers the shard's binding; the *same* handle heals on
    // the next operation and the shard's committed state is intact.
    world.RecoverNode(2);
    EXPECT_EQ(app.Transaction([&](const server::Tx& tx) { return bank.Withdraw(tx, 1, 10); }),
              Status::kOk);
    app.Transaction([&](const server::Tx& tx) {
      auto b = bank.Balance(tx, 1);
      EXPECT_TRUE(b.ok());
      EXPECT_EQ(b.value(), 90);
      return Status::kOk;
    });
  });
}

TEST(PlacementTest, CrossShardBatchFailsOnDeadShardThenHealsAfterRecovery) {
  WorldOptions opt;
  opt.max_outstanding_calls = 4;
  opt.op_coalesce_batch = 2;
  World world(3, opt);
  constexpr std::uint64_t kCells = 12;  // 4 per shard: two coalesced chunks each
  world.AddShardedServiceOf<ArrayServer>("cells", {1, 2, 3}, 3, kCells);

  // The driver runs on node 3, so shard 0's chunks are on the wire (and
  // hold window slots) when the fan-out reaches the dead shard 1.
  world.RunApp(3, [&](Application& app) {
    ArrayService cells = OpenArray(world, "cells");
    std::vector<std::uint64_t> all;
    std::vector<std::pair<std::uint64_t, std::int32_t>> writes;
    for (std::uint64_t i = 0; i < kCells; ++i) {
      all.push_back(i);
      writes.push_back({i, static_cast<std::int32_t>(7 * i)});
    }
    // Resolve the handle while every shard is up.
    ASSERT_EQ(app.Transaction([&](const server::Tx& tx) { return cells.Set(tx, 0, 0); }),
              Status::kOk);

    world.CrashNode(2);
    EXPECT_EQ(app.Transaction([&](const server::Tx& tx) { return cells.SetMany(tx, writes); }),
              Status::kNodeDown);
    for (NodeId n : {1, 3}) {
      EXPECT_EQ(world.cm(n).OpenCallWindowCount(), 0u) << "node " << n << " after SetMany";
    }
    EXPECT_EQ(app.Transaction(
                  [&](const server::Tx& tx) { return cells.GetMany(tx, all).status(); }),
              Status::kNodeDown);
    for (NodeId n : {1, 3}) {
      EXPECT_EQ(world.cm(n).OpenCallWindowCount(), 0u) << "node " << n << " after GetMany";
    }

    // The same handle heals once the shard is back.
    world.RecoverNode(2);
    EXPECT_EQ(app.Transaction([&](const server::Tx& tx) { return cells.SetMany(tx, writes); }),
              Status::kOk);
    app.Transaction([&](const server::Tx& tx) {
      auto got = cells.GetMany(tx, all);
      EXPECT_TRUE(got.ok());
      if (got.ok()) {
        for (std::uint64_t i = 0; i < kCells; ++i) {
          EXPECT_EQ(got.value()[i], static_cast<std::int32_t>(7 * i)) << "cell " << i;
        }
      }
      return Status::kOk;
    });
  });
  for (NodeId n : {1, 2, 3}) {
    EXPECT_EQ(world.cm(n).OpenCallWindowCount(), 0u) << "node " << n;
  }
}

// --- crash-point exploration over the shard fan-out windows ---------------------

constexpr std::uint64_t kCells = 6;  // 2 shards (nodes 1, 2), 3 cells each
constexpr std::int32_t kSeedValue = 100;

// cell -> absolute value. The workload stages absolute values, so folding a
// transaction into the model overwrites rather than adds.
using Cells = std::map<std::uint64_t, std::int32_t>;

struct Model {
  Cells committed;
  Cells inflight;  // the transaction whose EndTransaction the crash caught
  bool end_in_progress = false;
};

void Overwrite(Cells& into, const Cells& writes) {
  for (const auto& [cell, value] : writes) {
    into[cell] = value;
  }
}

WorldOptions FanOutOptions() {
  WorldOptions opt;
  opt.group_commit_window_us = 50;
  opt.vote_timeout_us = 2'000'000;
  // Pipelining on, so several batch chunks are in flight per fan-out and the
  // comm.* windows are genuinely open when the crash fires.
  opt.max_outstanding_calls = 4;
  opt.op_coalesce_batch = 2;
  return opt;
}

// The deterministic sharded workload: a driver on node 3 runs read-modify-
// write transfers through the handle; every GetMany/SetMany fans out to both
// shards. May be killed at any armed fault point.
void RunShardedWorkload(World& world, unsigned seed, Model& m) {
  world.RunApp(3, [&world, seed, &m](Application& app) {
    ArrayService cells = OpenArray(world, "cells");
    std::mt19937 rng(seed);

    auto transact = [&](const std::function<Status(const server::Tx&, Cells&)>& body,
                        bool doom) {
      Cells staged;
      TransactionId tid = app.Begin();
      Status s = body(app.MakeTx(tid), staged);
      if (doom || s != Status::kOk) {
        app.Abort(tid);
        return;
      }
      m.inflight = staged;
      m.end_in_progress = true;
      Status end = app.End(tid);
      m.end_in_progress = false;
      m.inflight.clear();
      if (end == Status::kOk) {
        Overwrite(m.committed, staged);
      }
    };

    // Seed all cells in one cross-shard batch.
    transact(
        [&](const server::Tx& tx, Cells& staged) {
          std::vector<std::pair<std::uint64_t, std::int32_t>> writes;
          for (std::uint64_t i = 0; i < kCells; ++i) {
            writes.push_back({i, kSeedValue});
          }
          Status s = cells.SetMany(tx, writes);
          if (s == Status::kOk) {
            for (const auto& [cell, value] : writes) {
              staged[cell] = value;
            }
          }
          return s;
        },
        /*doom=*/false);

    for (int i = 0; i < 8; ++i) {
      std::uint64_t a = rng() % kCells;
      std::uint64_t b = rng() % kCells;
      if (b == a) {
        b = (b + 1) % kCells;
      }
      auto amount = static_cast<std::int32_t>(1 + rng() % 20);
      bool doom = (rng() % 4) == 0;
      transact(
          [&](const server::Tx& tx, Cells& staged) {
            auto values = cells.GetMany(tx, {a, b});
            if (!values.ok()) {
              return values.status();
            }
            Status s = cells.SetMany(tx, {{a, values.value()[0] - amount},
                                          {b, values.value()[1] + amount}});
            if (s == Status::kOk) {
              staged[a] = values.value()[0] - amount;
              staged[b] = values.value()[1] + amount;
            }
            return s;
          },
          doom);
      if (i == 4) {
        // One single-op async probe per run: a one-op chunk, issued and
        // awaited on its own, is part of the explored surface too.
        transact(
            [&](const server::Tx& tx, Cells&) {
              auto* shard0 =
                  world.Server<ArrayServer>(1, placement::ShardInstanceName("cells", 0));
              if (shard0 == nullptr) {
                return Status::kNodeDown;
              }
              auto f = shard0->AsyncGetCells(tx, {0}).front();
              if (!f->Await(comm::Network::kDefaultSessionTimeout)) {
                return Status::kTimeout;
              }
              if (!f->value().ok()) {
                return f->value().status();
              }
              return f->value().value().front().status();
            },
            /*doom=*/false);
      }
    }
  });
}

void Recover(World& world) {
  NodeId runner = 0;
  for (NodeId n = 1; n <= 3; ++n) {
    if (world.NodeAlive(n)) {
      runner = n;
      break;
    }
  }
  ASSERT_NE(runner, 0u);
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

Cells ReadCells(World& world) {
  Cells out;
  world.RunApp(3, [&](Application& app) {
    ArrayService cells = OpenArray(world, "cells");
    app.Transaction([&](const server::Tx& tx) {
      std::vector<std::uint64_t> all;
      for (std::uint64_t i = 0; i < kCells; ++i) {
        all.push_back(i);
      }
      auto got = cells.GetMany(tx, all);
      EXPECT_TRUE(got.ok());
      if (got.ok()) {
        for (std::uint64_t i = 0; i < kCells; ++i) {
          out[i] = got.value()[i];
        }
      }
      return Status::kOk;
    });
  });
  return out;
}

std::int64_t Total(const Cells& c) {
  std::int64_t t = 0;
  for (const auto& [cell, v] : c) {
    t += v;
  }
  return t;
}

std::string Describe(const Cells& c) {
  std::string s;
  for (const auto& [cell, v] : c) {
    s += std::to_string(cell) + "=" + std::to_string(v) + " ";
  }
  return s.empty() ? "(empty)" : s;
}

void CheckInvariants(World& world, const Model& m, unsigned seed, const std::string& where) {
  for (NodeId n = 1; n <= 3; ++n) {
    EXPECT_TRUE(world.tm(n).InDoubt().empty())
        << "unresolved in-doubt transactions on node " << n << " after crash at " << where
        << " (seed " << seed << ")";
  }
  Cells got = ReadCells(world);
  Cells want_committed = m.committed;
  for (std::uint64_t i = 0; i < kCells; ++i) {
    want_committed.try_emplace(i, 0);
  }
  Cells want_with_inflight = want_committed;
  Overwrite(want_with_inflight, m.inflight);

  bool matches =
      got == want_committed || (m.end_in_progress && got == want_with_inflight);
  EXPECT_TRUE(matches) << "committed prefix violated after crash at " << where << " (seed "
                       << seed << ")\n  got:               " << Describe(got)
                       << "\n  committed model:   " << Describe(want_committed)
                       << "\n  model + in-flight: " << Describe(want_with_inflight);
  std::int64_t total = Total(got);
  EXPECT_TRUE(total == Total(want_committed) ||
              (m.end_in_progress && total == Total(want_with_inflight)))
      << "cell total not conserved after crash at " << where << ": " << total;
}

class ShardFanOutCrashTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ShardFanOutCrashTest, CommFaultPointsRecoverConsistently) {
  const unsigned seed = GetParam();

  // Pass 1: record which fault points the sharded fan-out reaches.
  std::vector<sim::FaultInjector::PointHit> hits;
  {
    World world(3, FanOutOptions());
    world.AddShardedServiceOf<ArrayServer>("cells", {1, 2}, 2, kCells);
    world.faults().StartRecording();
    Model m;
    RunShardedWorkload(world, seed, m);
    EXPECT_FALSE(world.faults().crash_fired());
    hits = world.faults().recorded_hits();
    std::set<std::string> distinct(world.faults().distinct_points().begin(),
                                   world.faults().distinct_points().end());
    // The new communication windows must be part of the reached surface.
    EXPECT_TRUE(distinct.count("comm.batch-issue")) << "batch issue window not reached";
    EXPECT_TRUE(distinct.count("comm.batch-dispatch")) << "batch dispatch window not reached";
    CheckInvariants(world, m, seed, "no-fault");
    ASSERT_FALSE(::testing::Test::HasFailure()) << "fault-free run is already inconsistent";
  }

  // Crash plan: the communication points only (the rest of the surface is
  // explored by crash_point_exploration_test); first hit plus a mid-run hit.
  std::map<std::string, int> counts;
  for (const auto& h : hits) {
    if (h.point.rfind("comm.", 0) == 0) {
      counts[h.point] = std::max(counts[h.point], h.hit);
    }
  }
  ASSERT_FALSE(counts.empty());
  std::vector<std::pair<std::string, int>> plan;
  for (const auto& [point, count] : counts) {
    plan.emplace_back(point, 1);
    if (count > 2) {
      plan.emplace_back(point, count / 2 + 1);
    }
  }

  // Pass 2: one fresh deterministic universe per planned crash.
  for (const auto& [point, hit] : plan) {
    World world(3, FanOutOptions());
    world.AddShardedServiceOf<ArrayServer>("cells", {1, 2}, 2, kCells);
    world.faults().ArmCrash(point, hit);
    Model m;
    RunShardedWorkload(world, seed, m);
    EXPECT_TRUE(world.faults().crash_fired())
        << point << " hit " << hit << " never fired (seed " << seed
        << "): determinism broken between passes";
    world.faults().Disarm();
    Recover(world);
    CheckInvariants(world, m, seed, point + "#" + std::to_string(hit));
    if (::testing::Test::HasFailure()) {
      std::fprintf(stderr, "[fault-repro] seed=%u point=%s hit=%d\n", seed, point.c_str(),
                   hit);
      break;
    }
  }
}

// Every fault point the fault-free fan-out workload reaches at seeds 1-2,
// with its hits per node, against tests/golden/fanout_points[.paxos].txt.
TEST(FaultPointCensus, FanOutWorkload) {
  std::string census;
  for (unsigned seed = 1; seed <= 2; ++seed) {
    World world(3, FanOutOptions());
    world.AddShardedServiceOf<ArrayServer>("cells", {1, 2}, 2, kCells);
    world.faults().StartRecording();
    Model m;
    RunShardedWorkload(world, seed, m);
    census += RenderCensus(seed, world.faults().recorded_hits());
  }
  ExpectCensusMatchesGolden(census, "fanout_points");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardFanOutCrashTest, ::testing::Values(1u, 2u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return "seed" + std::to_string(info.param);
                         });
}  // namespace
}  // namespace tabs
