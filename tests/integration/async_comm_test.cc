// The asynchronous communication fast path under faults.
//
// Pipelined server calls and coalesced batches must fail exactly like their
// sequential counterparts: a destination crash with calls in flight surfaces
// as kNodeDown after the session timeout, a dropped session fails fast, the
// transaction aborts cleanly, and neither the Transaction Manager's entries
// (spanning-tree records included) nor the Communication Manager's call
// windows leak. With the knobs on, runs remain deterministic, and
// crash-point exploration still recovers consistently.
//
// Also here: the regression test for the commit protocol's vote-wait budget
// (one deadline across all children, not a fresh timeout per vote).

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/servers/array_server.h"
#include "src/tabs/world.h"

namespace tabs {
namespace {

using servers::ArrayServer;

WorldOptions PipelineOptions(int window, int batch) {
  WorldOptions opt;
  opt.max_outstanding_calls = window;
  opt.op_coalesce_batch = batch;
  return opt;
}

TEST(AsyncCommTest, PipelinedReadsReturnCorrectValues) {
  World world(3, PipelineOptions(/*window=*/4, /*batch=*/2));
  auto* remote = world.AddServerOf<ArrayServer>(2, "arr2", 64u);
  auto* third = world.AddServerOf<ArrayServer>(3, "arr3", 64u);
  world.RunApp(1, [&](Application& app) {
    Status seeded = app.Transaction([&](const server::Tx& tx) {
      for (std::uint32_t c = 0; c < 8; ++c) {
        remote->SetCell(tx, c, static_cast<std::int32_t>(100 + c));
        third->SetCell(tx, c, static_cast<std::int32_t>(200 + c));
      }
      return Status::kOk;
    });
    ASSERT_EQ(seeded, Status::kOk);

    Status s = app.Transaction([&](const server::Tx& tx) {
      // One-op chunks: each read is a pipelined call of its own.
      std::vector<sim::FuturePtr<Result<std::vector<Result<std::int32_t>>>>> singles;
      for (std::uint32_t c = 0; c < 4; ++c) {
        auto chunks = remote->AsyncGetCells(tx, {c});
        EXPECT_EQ(chunks.size(), 1u);
        singles.push_back(chunks.front());
      }
      auto chunks = third->AsyncGetCells(tx, {0, 1, 2, 3, 4});
      std::vector<std::int32_t> third_values;
      for (auto& chunk : chunks) {
        if (!chunk->Await() || !chunk->value().ok()) {
          ADD_FAILURE() << "coalesced chunk failed";
          return Status::kNodeDown;
        }
        for (const Result<std::int32_t>& r : chunk->value().value()) {
          EXPECT_TRUE(r.ok());
          third_values.push_back(r.ok() ? r.value() : -1);
        }
      }
      EXPECT_EQ(third_values, (std::vector<std::int32_t>{200, 201, 202, 203, 204}));
      for (std::uint32_t c = 0; c < 4; ++c) {
        if (!singles[c]->Await() || !singles[c]->value().ok() ||
            !singles[c]->value().value().front().ok()) {
          ADD_FAILURE() << "pipelined read " << c << " failed";
          return Status::kNodeDown;
        }
        EXPECT_EQ(singles[c]->value().value().front().value(),
                  static_cast<std::int32_t>(100 + c));
      }
      return Status::kOk;
    });
    EXPECT_EQ(s, Status::kOk);
  });
  EXPECT_EQ(world.tm(1).live_entry_count(), 0u);
  EXPECT_EQ(world.cm(1).OpenCallWindowCount(), 0u);
}

TEST(AsyncCommTest, PipelinedBatchWritesCommitAndAreVisible) {
  World world(2, PipelineOptions(/*window=*/2, /*batch=*/4));
  auto* remote = world.AddServerOf<ArrayServer>(2, "arr", 64u);
  world.RunApp(1, [&](Application& app) {
    Status s = app.Transaction([&](const server::Tx& tx) {
      std::vector<std::pair<std::uint32_t, std::int32_t>> writes;
      for (std::uint32_t c = 0; c < 10; ++c) {
        writes.emplace_back(c, static_cast<std::int32_t>(7 * c));
      }
      Application::AsyncOps ops = app.Parallel();
      ops.AddBatch<bool>(remote->AsyncSetCells(tx, writes));
      return ops.Join();
    });
    ASSERT_EQ(s, Status::kOk);
    app.Transaction([&](const server::Tx& tx) {
      for (std::uint32_t c = 0; c < 10; ++c) {
        auto v = remote->GetCell(tx, c);
        EXPECT_TRUE(v.ok());
        EXPECT_EQ(v.value(), static_cast<std::int32_t>(7 * c));
      }
      return Status::kOk;
    });
  });
  // 10 ops in batches of 4 -> 3 messages, 7 ops coalesced away.
  EXPECT_EQ(world.metrics().messages_coalesced(), 7.0);
  EXPECT_EQ(world.cm(1).OpenCallWindowCount(), 0u);
}

TEST(AsyncCommTest, PipeliningIsFasterThanSequential) {
  auto elapsed_with = [](int window) {
    World world(2, PipelineOptions(window, /*batch=*/1));
    auto* remote = world.AddServerOf<ArrayServer>(2, "arr", 64u);
    SimTime elapsed = 0;
    world.RunApp(1, [&](Application& app) {
      SimTime t0 = world.scheduler().Now();
      app.Transaction([&](const server::Tx& tx) {
        Application::AsyncOps ops = app.Parallel();
        for (std::uint32_t c = 0; c < 8; ++c) {
          ops.AddBatch<std::int32_t>(remote->AsyncGetCells(tx, {c}));
        }
        return ops.Join();
      });
      elapsed = world.scheduler().Now() - t0;
    });
    return elapsed;
  };
  SimTime sequential = elapsed_with(1);
  SimTime pipelined = elapsed_with(8);
  EXPECT_LT(pipelined, sequential);
}

TEST(AsyncCommTest, CrashWithCallsInFlightSurfacesAsNodeDown) {
  World world(2, PipelineOptions(/*window=*/4, /*batch=*/1));
  auto* remote = world.AddServerOf<ArrayServer>(2, "arr", 64u);
  world.RunApp(1, [&](Application& app) {
    Status s = app.Transaction([&](const server::Tx& tx) {
      Application::AsyncOps ops = app.Parallel();
      for (std::uint32_t c = 0; c < 3; ++c) {
        ops.AddBatch<std::int32_t>(remote->AsyncGetCells(tx, {c}));
      }
      // The destination dies with three calls in flight: their futures are
      // never fulfilled, so each Join arm times out and reports kNodeDown.
      world.CrashNode(2);
      return ops.Join();
    });
    EXPECT_EQ(s, Status::kNodeDown);

    // No state survives the aborted transaction, and the origin node keeps
    // working: an empty local transaction still commits.
    EXPECT_EQ(world.tm(1).live_entry_count(), 0u);
    EXPECT_EQ(world.cm(1).OpenCallWindowCount(), 0u);
    EXPECT_EQ(app.Transaction([](const server::Tx&) { return Status::kOk; }),
              Status::kOk);
  });
}

TEST(AsyncCommTest, SessionLossFailsFastAsNodeDown) {
  World world(2, PipelineOptions(/*window=*/2, /*batch=*/2));
  auto* remote = world.AddServerOf<ArrayServer>(2, "arr", 64u);
  world.network().SetSessionLoss(
      [](NodeId from, NodeId to) { return from == 1 && to == 2; });
  world.RunApp(1, [&](Application& app) {
    SimTime t0 = world.scheduler().Now();
    Status s = app.Transaction([&](const server::Tx& tx) {
      Application::AsyncOps ops = app.Parallel();
      ops.AddBatch<std::int32_t>(remote->AsyncGetCells(tx, {0, 1, 2}));
      return ops.Join();
    });
    EXPECT_EQ(s, Status::kNodeDown);
    // A dropped session is detected at the sender: no 30 s await needed.
    EXPECT_LT(world.scheduler().Now() - t0, 1'000'000);
  });
  EXPECT_GT(world.metrics().faults_injected(sim::FaultKind::kSessionDrop), 0);
  EXPECT_EQ(world.tm(1).live_entry_count(), 0u);
  EXPECT_EQ(world.cm(1).OpenCallWindowCount(), 0u);

  world.network().SetSessionLoss({});
  world.RunApp(1, [&](Application& app) {
    Status s = app.Transaction([&](const server::Tx& tx) {
      Application::AsyncOps ops = app.Parallel();
      ops.AddBatch<std::int32_t>(remote->AsyncGetCells(tx, {0}));
      return ops.Join();
    });
    EXPECT_EQ(s, Status::kOk);
  });
}

// A one-op chunk is one pipelined call. With window 1 and batch 1, awaiting
// it through AsyncOps leaves the caller at the same virtual time, with the
// same primitive counts, as the blocking call; only the pipelined-call
// counter tells the two apart.
struct RemoteOpCost {
  Status op = Status::kInternal;
  SimTime op_clock = 0;
  sim::PrimitiveCounts op_total;
  Status end = Status::kInternal;
  SimTime end_clock = 0;
  sim::PrimitiveCounts end_total;
  double async_calls = 0;
};

RemoteOpCost CostOfRemoteOp(bool write, bool pipelined) {
  World world(2, PipelineOptions(/*window=*/1, /*batch=*/1));
  auto* remote = world.AddServerOf<ArrayServer>(2, "arr", 16u);
  RemoteOpCost out;
  world.RunApp(1, [&](Application& app) {
    TransactionId tid = app.Begin();
    server::Tx tx = app.MakeTx(tid);
    if (pipelined) {
      Application::AsyncOps ops = app.Parallel();
      if (write) {
        ops.AddBatch<bool>(remote->AsyncSetCells(tx, {{3, 7}}));
      } else {
        ops.AddBatch<std::int32_t>(remote->AsyncGetCells(tx, {3}));
      }
      out.op = ops.Join();
    } else {
      out.op = write ? remote->SetCell(tx, 3, 7) : remote->GetCell(tx, 3).status();
    }
    out.op_clock = world.scheduler().Now();
    out.op_total = world.metrics().Total();
    out.end = app.End(tid);
    out.end_clock = world.scheduler().Now();
  });
  out.end_total = world.metrics().Total();
  out.async_calls = world.metrics().async_calls_issued();
  return out;
}

TEST(AsyncCommTest, OneOpChunkCostsWhatTheBlockingCallCosts) {
  for (bool write : {false, true}) {
    SCOPED_TRACE(write ? "SetCell" : "GetCell");
    RemoteOpCost blocking = CostOfRemoteOp(write, /*pipelined=*/false);
    RemoteOpCost chunk = CostOfRemoteOp(write, /*pipelined=*/true);
    EXPECT_EQ(blocking.op, Status::kOk);
    EXPECT_EQ(chunk.op, Status::kOk);
    EXPECT_EQ(chunk.op_clock, blocking.op_clock);
    EXPECT_EQ(chunk.op_total.count, blocking.op_total.count);
    EXPECT_EQ(blocking.end, Status::kOk);
    EXPECT_EQ(chunk.end, Status::kOk);
    EXPECT_EQ(chunk.end_clock, blocking.end_clock);
    EXPECT_EQ(chunk.end_total.count, blocking.end_total.count);
    EXPECT_EQ(blocking.async_calls, 0);
    EXPECT_EQ(chunk.async_calls, 1);
  }
}

// Same seed knobs on -> bit-identical virtual time and counters.
TEST(AsyncCommTest, PipelinedRunsAreDeterministic) {
  auto run = [] {
    World world(3, PipelineOptions(/*window=*/4, /*batch=*/2));
    auto* remote = world.AddServerOf<ArrayServer>(2, "arr2", 64u);
    auto* third = world.AddServerOf<ArrayServer>(3, "arr3", 64u);
    SimTime final_clock = 0;
    world.RunApp(1, [&](Application& app) {
      for (int i = 0; i < 4; ++i) {
        app.Transaction([&](const server::Tx& tx) {
          Application::AsyncOps ops = app.Parallel();
          ops.AddBatch<bool>(remote->AsyncSetCells(
              tx, {{0, i}, {1, i + 1}, {2, i + 2}}));
          ops.AddBatch<std::int32_t>(third->AsyncGetCells(tx, {0, 1, 2, 3}));
          return ops.Join();
        });
      }
      final_clock = world.scheduler().Now();
    });
    return std::make_tuple(final_clock, world.metrics().async_calls_issued(),
                           world.metrics().messages_coalesced());
  };
  EXPECT_EQ(run(), run());
}

// --- vote-wait budget regression (one deadline across all children) ----------
//
// N children prepared in parallel return their votes staggered by the
// sender-serialized prepare datagrams (half a datagram time apart). With a
// per-child budget, each arriving vote would restart the clock and the
// coordinator could wait far past its timeout collecting a long stagger one
// vote at a time; with a single deadline the total wait is bounded by one
// vote_timeout_us regardless of the child count.

Status EndStatusWithVoteTimeout(int children, SimTime vote_timeout_us,
                                SimTime* commit_elapsed = nullptr) {
  WorldOptions opt;
  opt.vote_timeout_us = vote_timeout_us;
  opt.commit_mode = txn::CommitMode::kTwoPhase;  // 2PC vote collection under test
  World world(1 + children, opt);
  std::vector<ArrayServer*> arrays;
  for (int n = 0; n < children; ++n) {
    arrays.push_back(world.AddServerOf<ArrayServer>(
        static_cast<NodeId>(2 + n), "arr" + std::to_string(n), 16u));
  }
  Status status = Status::kOk;
  world.RunApp(1, [&](Application& app) {
    TransactionId tid = app.Begin();
    server::Tx tx = app.MakeTx(tid);
    for (ArrayServer* a : arrays) {
      a->GetCell(tx, 0);  // read-only children: cheap, uniform prepares
    }
    SimTime t0 = world.scheduler().Now();
    status = app.End(tid);
    if (commit_elapsed != nullptr) {
      *commit_elapsed = world.scheduler().Now() - t0;
    }
  });
  return status;
}

TEST(VoteTimeoutTest, BudgetCoversAllVotesWhenGenerous) {
  // Sanity: with a generous budget every staggered vote arrives in time.
  EXPECT_EQ(EndStatusWithVoteTimeout(6, /*vote_timeout_us=*/1'000'000), Status::kOk);
}

TEST(VoteTimeoutTest, SingleDeadlineAcrossAllVotes) {
  // Find the minimal budget (to 1 ms resolution) that still commits: under a
  // single shared deadline that is the whole vote stagger, last arrival
  // included. A per-child budget would commit with far less — it only has to
  // cover the largest single gap between consecutive votes — so asserting
  // the flip point sits above the per-gap scale pins the deadline semantics.
  SimTime lo = 0, hi = 1'000'000;
  while (hi - lo > 1'000) {
    SimTime mid = (lo + hi) / 2;
    if (EndStatusWithVoteTimeout(6, mid) == Status::kOk) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  // Six staggered votes: the cumulative stagger spans several datagram
  // half-times (~3 ms each), so the minimal shared budget exceeds 10 ms. A
  // per-child budget's flip point would sit at one gap (~7 ms or less).
  EXPECT_GT(hi, 10'000) << "vote wait no longer spans the full stagger: the "
                           "per-child-budget regression is back";

  // And the budget must not scale with the child count: aborting on a too
  // tight budget costs ~one vote_timeout_us of commit-phase time on top of
  // the fixed prepare/abort messaging (~85 ms for six children). A per-child
  // budget that waited at every child would sit past 200 ms here.
  SimTime elapsed = 0;
  EXPECT_EQ(EndStatusWithVoteTimeout(6, /*vote_timeout_us=*/20'000, &elapsed),
            Status::kVoteNo);
  EXPECT_LT(elapsed, 160'000);
}

// --- crash-point exploration with the window open ----------------------------
//
// The systematic nemesis from crash_point_exploration_test, shrunk to a
// pipelined array workload: every fault point reached with
// max_outstanding_calls > 1 is crashed at least once, the node recovers, and
// the committed prefix must survive.

using CellModel = std::map<std::uint32_t, std::int32_t>;

void RunPipelinedWorkload(World& world, ArrayServer* remote, CellModel& committed,
                          CellModel& inflight, bool& end_in_progress) {
  world.RunApp(1, [&](Application& app) {
    for (int i = 0; i < 5; ++i) {
      std::vector<std::pair<std::uint32_t, std::int32_t>> writes;
      for (std::uint32_t k = 0; k < 4; ++k) {
        // Values start at 1: cell 0's initial value is 0, and the read-back
        // below uses non-zero as "was ever written".
        writes.emplace_back(4 * i + k, static_cast<std::int32_t>(10 * i + k + 1));
      }
      TransactionId tid = app.Begin();
      server::Tx tx = app.MakeTx(tid);
      Application::AsyncOps ops = app.Parallel();
      ops.AddBatch<bool>(remote->AsyncSetCells(tx, writes));
      if (ops.Join() != Status::kOk) {
        app.Abort(tid);
        continue;
      }
      inflight = CellModel(writes.begin(), writes.end());
      end_in_progress = true;
      Status end = app.End(tid);
      end_in_progress = false;
      if (end == Status::kOk) {
        for (const auto& [cell, value] : inflight) {
          committed[cell] = value;
        }
      }
      inflight.clear();
    }
  });
}

TEST(AsyncCommTest, CrashPointExplorationWithWindowOpen) {
  WorldOptions opt = PipelineOptions(/*window=*/3, /*batch=*/2);
  opt.vote_timeout_us = 2'000'000;
  opt.commit_mode = txn::CommitMode::kTwoPhase;  // plan stability across passes

  // Pass 1: record the reachable fault surface, fault-free.
  std::vector<sim::FaultInjector::PointHit> hits;
  {
    World world(2, opt);
    auto* remote = world.AddServerOf<ArrayServer>(2, "arr", 64u);
    world.faults().StartRecording();
    CellModel committed, inflight;
    bool end_in_progress = false;
    RunPipelinedWorkload(world, remote, committed, inflight, end_in_progress);
    hits = world.faults().recorded_hits();
    ASSERT_FALSE(hits.empty());
  }
  std::map<std::string, int> first_hits;
  for (const auto& h : hits) {
    first_hits.try_emplace(h.point, h.hit);
  }

  // Pass 2: crash at the first hit of every distinct point, then recover.
  for (const auto& [point, hit] : first_hits) {
    World world(2, opt);
    auto* remote = world.AddServerOf<ArrayServer>(2, "arr", 64u);
    world.faults().ArmCrash(point, hit);
    CellModel committed, inflight;
    bool end_in_progress = false;
    RunPipelinedWorkload(world, remote, committed, inflight, end_in_progress);
    EXPECT_TRUE(world.faults().crash_fired())
        << point << " hit " << hit << " never fired: determinism broken";
    world.faults().Disarm();

    NodeId runner = world.NodeAlive(1) ? 1 : 2;
    world.RunApp(runner, [&](Application&) {
      for (NodeId n = 1; n <= 2; ++n) {
        if (!world.NodeAlive(n)) {
          world.RecoverNode(n);
        }
      }
      for (int pass = 0; pass < 2; ++pass) {
        for (NodeId n = 1; n <= 2; ++n) {
          for (const TransactionId& tid : world.tm(n).InDoubt()) {
            world.tm(n).ResolveInDoubt(tid);
          }
        }
      }
    });

    CellModel got;
    // Recovery re-instantiated the servers: re-fetch by name, the old
    // pointer died with the crashed incarnation.
    auto* recovered = world.Server<ArrayServer>(2, "arr");
    ASSERT_NE(recovered, nullptr);
    world.RunApp(1, [&](Application& app) {
      app.Transaction([&](const server::Tx& tx) {
        for (std::uint32_t c = 0; c < 20; ++c) {
          auto v = recovered->GetCell(tx, c);
          EXPECT_TRUE(v.ok());
          if (v.ok() && v.value() != 0) {
            got[c] = v.value();
          }
        }
        return Status::kOk;
      });
    });
    CellModel with_inflight = committed;
    for (const auto& [cell, value] : inflight) {
      with_inflight[cell] = value;
    }
    bool matches = got == committed || (end_in_progress && got == with_inflight);
    EXPECT_TRUE(matches) << "committed prefix violated after crash at " << point << "#"
                         << hit;
    if (::testing::Test::HasFailure()) {
      break;
    }
  }
}

}  // namespace
}  // namespace tabs
