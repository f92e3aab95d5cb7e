// Crash-point exploration: the systematic half of the nemesis.
//
// A distributed debit-credit workload (two remote banks plus one co-located
// with the driver/coordinator, read-only audits, checkpoints and log
// reclamation mixed in) runs once with
// the fault injector recording, enumerating every fault point the workload
// reaches. Then, for every {point, hit} in the crash plan, the exact same
// workload re-runs in a fresh World with a crash armed there; after the node
// dies, recovery runs and the test asserts the paper's correctness claims:
//
//  * the committed prefix survives (balances equal the committed model, or
//    the model plus the one transaction whose EndTransaction the crash
//    interrupted — its outcome is legitimately either),
//  * every in-doubt transaction resolves,
//  * money is conserved (the final total matches the model's total).
//
// Everything is deterministic per seed: a failure prints — and writes to
// $TABS_FAULT_REPRO_FILE — the {seed, fault-point, hit} tuple that replays
// it exactly.
//
// The Paxos half re-runs the same exploration under commit_mode =
// kPaxosCommit, restricted to the paxos.* windows (vote-send, accept-log,
// accept-send, learn, readonly-skip), the accept-bundle datagram window,
// and the prepare-record windows they share with 2PC — and adds the
// non-blocking assertion 2PC cannot make: the surviving nodes drain every
// in-doubt transaction through the acceptors BEFORE the dead node recovers.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/servers/account_server.h"
#include "src/tabs/world.h"
#include "tests/integration/fault_census.h"

namespace tabs {
namespace {

using servers::AccountServer;

constexpr std::uint32_t kAccounts = 3;
constexpr std::int64_t kBank1Seed = 600;
constexpr std::int64_t kBank2Seed = 400;
constexpr std::int64_t kBank3Seed = 200;

// (bank index 1/2/3, account) -> balance.
using Ledger = std::map<std::pair<int, std::uint32_t>, std::int64_t>;

struct Model {
  Ledger committed;
  // Deltas of the transaction whose EndTransaction was in flight when the
  // driver died; its outcome is legitimately commit or abort.
  Ledger inflight;
  bool end_in_progress = false;
};

WorldOptions ExplorationOptions() {
  WorldOptions opt;
  // Group commit on so the batch-flush windows are part of the explored
  // surface; a tight vote timeout so a crashed participant aborts the
  // in-flight transaction in virtual seconds, not tens of them.
  opt.group_commit_window_us = 50;
  opt.vote_timeout_us = 2'000'000;
  return opt;
}

WorldOptions PaxosExplorationOptions() {
  WorldOptions opt = ExplorationOptions();
  opt.commit_mode = txn::CommitMode::kPaxosCommit;
  opt.paxos_f = 1;  // 3 acceptors on a 3-node world: quorum survives any one crash
  return opt;
}

void Fold(Ledger& into, const Ledger& deltas) {
  for (const auto& [key, delta] : deltas) {
    into[key] += delta;
  }
}

// The deterministic debit-credit workload. Runs as an application task on
// node 3 (the 2PC coordinator for every transfer — its log holds the commit
// records, so coordinator-crash windows are load-bearing). Bank 3 lives on
// node 3 itself, so transfers within it are coordinator-local and take the
// single-participant commit fast path (`paxos.local-commit`) under
// kPaxosCommit. May be killed at any armed fault point; everything written
// to `m` before the kill is valid.
void RunWorkload(World& world, unsigned seed, AccountServer* b1, AccountServer* b2,
                 AccountServer* b3, Model& m) {
  world.RunApp(3, [&world, seed, b1, b2, b3, &m](Application& app) {
    std::mt19937 rng(seed);
    AccountServer* banks[3] = {b1, b2, b3};

    auto transact = [&](const std::function<Status(const server::Tx&, Ledger&)>& body,
                        bool doom) {
      Ledger staged;
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
        Fold(m.committed, staged);
      }
    };

    auto deposit = [&](int bank, std::uint32_t account, std::int64_t amount,
                       const server::Tx& tx, Ledger& staged) {
      Status s = banks[bank - 1]->Deposit(tx, account, amount);
      if (s == Status::kOk) {
        staged[{bank, account}] += amount;
      }
      return s;
    };
    auto withdraw = [&](int bank, std::uint32_t account, std::int64_t amount,
                        const server::Tx& tx, Ledger& staged) {
      Status s = banks[bank - 1]->Withdraw(tx, account, amount);
      if (s == Status::kOk) {
        staged[{bank, account}] -= amount;
      }
      return s;
    };

    // Seed all three banks in one distributed transaction.
    transact(
        [&](const server::Tx& tx, Ledger& staged) {
          Status s = deposit(1, 0, kBank1Seed, tx, staged);
          if (s != Status::kOk) {
            return s;
          }
          s = deposit(2, 0, kBank2Seed, tx, staged);
          if (s != Status::kOk) {
            return s;
          }
          return deposit(3, 0, kBank3Seed, tx, staged);
        },
        /*doom=*/false);

    for (int i = 0; i < 10; ++i) {
      auto amount = static_cast<std::int64_t>(1 + rng() % 20);
      std::uint32_t account = rng() % kAccounts;
      switch (rng() % 5) {
        case 0:
        case 1:  // debit bank 1, credit bank 2 (distributed write commit)
          transact(
              [&](const server::Tx& tx, Ledger& staged) {
                Status s = withdraw(1, 0, amount, tx, staged);
                if (s != Status::kOk) {
                  return s;
                }
                return deposit(2, account, amount, tx, staged);
              },
              false);
          break;
        case 2:  // reverse direction
          transact(
              [&](const server::Tx& tx, Ledger& staged) {
                Status s = withdraw(2, 0, amount, tx, staged);
                if (s != Status::kOk) {
                  return s;
                }
                return deposit(1, account, amount, tx, staged);
              },
              false);
          break;
        case 3:  // doomed: updates on both banks, then explicit abort
          transact(
              [&](const server::Tx& tx, Ledger& staged) {
                deposit(1, account, amount, tx, staged);
                deposit(2, account, amount, tx, staged);
                return Status::kOk;
              },
              /*doom=*/true);
          break;
        default:  // transfer within bank 1 (single remote participant)
          transact(
              [&](const server::Tx& tx, Ledger& staged) {
                Status s = withdraw(1, 0, amount, tx, staged);
                if (s != Status::kOk) {
                  return s;
                }
                return deposit(1, account, amount, tx, staged);
              },
              false);
          break;
      }
      // Read-only audit across both banks: every participant votes
      // ReadOnly, so the commit fast path (2pc.readonly-skip /
      // paxos.readonly-skip — no phase 2, no commit force, no accept
      // round) joins the explored surface. The i == 8 instance is doomed
      // so the read-only abort path is covered too.
      if (i == 2 || i == 8) {
        transact(
            [&](const server::Tx& tx, Ledger&) {
              auto v1 = b1->ReadBalance(tx, 0);
              if (!v1.ok()) {
                return v1.status();
              }
              return b2->ReadBalance(tx, 0).status();
            },
            /*doom=*/i == 8);
      }
      // Coordinator-local transfer within bank 3: the participant set is
      // just node 3, so both modes commit through the single-participant
      // local path (2PC's local commit; `paxos.local-commit` skips the
      // acceptor round entirely), putting that fast path's crash windows on
      // the explored surface.
      if (i == 4 || i == 9) {
        transact(
            [&](const server::Tx& tx, Ledger& staged) {
              Status s = withdraw(3, 0, amount, tx, staged);
              if (s != Status::kOk) {
                return s;
              }
              return deposit(3, account, amount, tx, staged);
            },
            /*doom=*/false);
      }
      // Maintenance mixed through the workload so the checkpoint,
      // reclamation, and write-back windows are reached. Skipped for a node
      // that a fault already crashed: a dead node's Recovery Manager must
      // not be driven from a live task.
      if (i == 3 && world.NodeAlive(1)) {
        world.Checkpoint(1);
      }
      if (i == 5 && world.NodeAlive(1)) {
        world.ReclaimLog(1);
      }
      if (i == 6 && world.NodeAlive(2)) {
        world.ReclaimLog(2);
      }
      if (i == 7) {
        world.Checkpoint(3);  // the driver's own node is alive by definition
      }
    }
  });
}

// Recovers every dead node and resolves all in-doubt transactions.
void Recover(World& world) {
  NodeId runner = world.NodeAlive(1) ? 1 : 2;  // at most one node is dead
  world.RunApp(runner, [&world](Application&) {
    for (int n = 1; n <= world.node_count(); ++n) {
      if (!world.NodeAlive(n)) {
        world.RecoverNode(n);
      }
    }
    // Two passes: a resolution can require the coordinator's own recovered
    // outcome table, re-populated by the first pass.
    for (int pass = 0; pass < 2; ++pass) {
      for (int n = 1; n <= world.node_count(); ++n) {
        for (const TransactionId& tid : world.tm(n).InDoubt()) {
          world.tm(n).ResolveInDoubt(tid);
        }
      }
    }
  });
}

Ledger ReadBalances(World& world) {
  auto* b1 = world.Server<AccountServer>(1, "bank1");
  auto* b2 = world.Server<AccountServer>(2, "bank2");
  auto* b3 = world.Server<AccountServer>(3, "bank3");
  Ledger out;
  world.RunApp(3, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      for (std::uint32_t a = 0; a < kAccounts; ++a) {
        auto v1 = b1->ReadBalance(tx, a);
        auto v2 = b2->ReadBalance(tx, a);
        auto v3 = b3->ReadBalance(tx, a);
        EXPECT_TRUE(v1.ok() && v2.ok() && v3.ok())
            << "balance read failed for account " << a;
        out[{1, a}] = v1.ok() ? v1.value() : -1;
        out[{2, a}] = v2.ok() ? v2.value() : -1;
        out[{3, a}] = v3.ok() ? v3.value() : -1;
      }
      return Status::kOk;
    });
  });
  return out;
}

std::int64_t Total(const Ledger& l) {
  std::int64_t t = 0;
  for (const auto& [key, v] : l) {
    t += v;
  }
  return t;
}

std::string Describe(const Ledger& l) {
  std::string s;
  for (const auto& [key, v] : l) {
    s += "bank" + std::to_string(key.first) + ":" + std::to_string(key.second) + "=" +
         std::to_string(v) + " ";
  }
  return s.empty() ? "(empty)" : s;
}

// The committed prefix survives: the recovered balances equal the committed
// model, or — when the crash interrupted an EndTransaction — the model plus
// that transaction's deltas. Either way money is conserved.
void CheckInvariants(World& world, const Model& m, unsigned seed, const std::string& where) {
  for (int n = 1; n <= world.node_count(); ++n) {
    EXPECT_TRUE(world.tm(n).InDoubt().empty())
        << "unresolved in-doubt transactions on node " << n << " after crash at " << where
        << " (seed " << seed << ")";
  }
  Ledger got = ReadBalances(world);
  Ledger want_committed = m.committed;
  for (std::uint32_t a = 0; a < kAccounts; ++a) {
    want_committed.try_emplace({1, a}, 0);
    want_committed.try_emplace({2, a}, 0);
    want_committed.try_emplace({3, a}, 0);
  }
  Ledger want_with_inflight = want_committed;
  Fold(want_with_inflight, m.inflight);

  bool matches = got == want_committed ||
                 (m.end_in_progress && got == want_with_inflight);
  EXPECT_TRUE(matches) << "committed prefix violated after crash at " << where << " (seed "
                       << seed << ")\n  got:               " << Describe(got)
                       << "\n  committed model:   " << Describe(want_committed)
                       << "\n  model + in-flight: " << Describe(want_with_inflight)
                       << "\n  end_in_progress:   " << m.end_in_progress;
  std::int64_t total = Total(got);
  EXPECT_TRUE(total == Total(want_committed) ||
              (m.end_in_progress && total == Total(want_with_inflight)))
      << "balance total not conserved after crash at " << where << ": " << total;
}

void WriteRepro(unsigned seed, const std::string& point, int hit) {
  const char* path = std::getenv("TABS_FAULT_REPRO_FILE");
  std::string file = path != nullptr ? path : "fault_repro.txt";
  std::FILE* f = std::fopen(file.c_str(), "a");
  if (f != nullptr) {
    std::fprintf(f, "seed=%u point=%s hit=%d\n", seed, point.c_str(), hit);
    std::fclose(f);
  }
  std::fprintf(stderr, "[fault-repro] seed=%u point=%s hit=%d\n", seed, point.c_str(), hit);
}

std::tuple<AccountServer*, AccountServer*, AccountServer*> AddBanks(World& world) {
  auto* b1 = world.AddServerOf<AccountServer>(1, "bank1", kAccounts);
  auto* b2 = world.AddServerOf<AccountServer>(2, "bank2", kAccounts);
  auto* b3 = world.AddServerOf<AccountServer>(3, "bank3", kAccounts);
  return {b1, b2, b3};
}

class CrashPointExplorationTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(CrashPointExplorationTest, EveryReachedFaultPointRecoversConsistently) {
  const unsigned seed = GetParam();

  // Pass 1: record every fault point the workload reaches, fault-free.
  std::vector<sim::FaultInjector::PointHit> hits;
  {
    World world(3, ExplorationOptions());
    auto [b1, b2, b3] = AddBanks(world);
    world.faults().StartRecording();
    Model m;
    RunWorkload(world, seed, b1, b2, b3, m);
    EXPECT_FALSE(world.faults().crash_fired());
    hits = world.faults().recorded_hits();
    ASSERT_GE(world.faults().distinct_points().size(), 20u)
        << "workload no longer exercises the fault surface";
    // This suite follows TABS_COMMIT_MODE (the CI matrix runs it under both
    // protocols), so the fast-path point it must reach depends on the mode.
    const char* skip_point =
        ExplorationOptions().commit_mode == txn::CommitMode::kPaxosCommit
            ? "paxos.readonly-skip"
            : "2pc.readonly-skip";
    ASSERT_GT(world.faults().HitCount(skip_point), 0)
        << "read-only audit no longer takes the commit fast path";
    CheckInvariants(world, m, seed, "no-fault");
    ASSERT_FALSE(::testing::Test::HasFailure()) << "fault-free run is already inconsistent";
  }

  // Crash plan: the first hit of every distinct point, plus a mid-workload
  // hit for points reached many times (the first hit is often setup).
  std::map<std::string, int> counts;
  for (const auto& h : hits) {
    counts[h.point] = std::max(counts[h.point], h.hit);
  }
  std::vector<std::pair<std::string, int>> plan;
  for (const auto& [point, count] : counts) {
    plan.emplace_back(point, 1);
    if (count > 2) {
      plan.emplace_back(point, count / 2 + 1);
    }
  }

  // Pass 2: one fresh deterministic universe per planned crash.
  for (const auto& [point, hit] : plan) {
    World world(3, ExplorationOptions());
    auto [b1, b2, b3] = AddBanks(world);
    world.faults().ArmCrash(point, hit);
    Model m;
    RunWorkload(world, seed, b1, b2, b3, m);
    EXPECT_TRUE(world.faults().crash_fired())
        << point << " hit " << hit << " never fired (seed " << seed
        << "): determinism broken between passes";
    world.faults().Disarm();
    Recover(world);
    CheckInvariants(world, m, seed, point + "#" + std::to_string(hit));
    if (::testing::Test::HasFailure()) {
      WriteRepro(seed, point, hit);
      break;  // one repro is enough; later runs would drown it
    }
  }
}

// Coverage summary used for EXPERIMENTS.md: prints hit counts per subsystem.
TEST(CrashPointCoverage, PrintsCoverageSummary) {
  World world(3, ExplorationOptions());
  auto [b1, b2, b3] = AddBanks(world);
  world.faults().StartRecording();
  Model m;
  RunWorkload(world, /*seed=*/1, b1, b2, b3, m);
  std::map<std::string, int> per_subsystem;
  for (const std::string& point : world.faults().distinct_points()) {
    per_subsystem[point.substr(0, point.find('.'))]++;
  }
  int distinct = 0;
  for (const auto& [subsystem, points] : per_subsystem) {
    int subsystem_hits = 0;
    for (const std::string& point : world.faults().distinct_points()) {
      if (point.rfind(subsystem + ".", 0) == 0) {
        subsystem_hits += world.faults().HitCount(point);
      }
    }
    std::printf("%-12s %2d points %4d hits\n", subsystem.c_str(), points, subsystem_hits);
    distinct += points;
  }
  std::printf("total        %2d points\n", distinct);
  EXPECT_GE(distinct, 20);
}

// Every fault point the fault-free workload reaches at seeds 1-4, with its
// hits per node, against tests/golden/fault_points[.paxos].txt.
TEST(FaultPointCensus, ExplorationWorkload) {
  std::string census;
  for (unsigned seed = 1; seed <= 4; ++seed) {
    World world(3, ExplorationOptions());
    auto [b1, b2, b3] = AddBanks(world);
    world.faults().StartRecording();
    Model m;
    RunWorkload(world, seed, b1, b2, b3, m);
    census += RenderCensus(seed, world.faults().recorded_hits());
  }
  ExpectCensusMatchesGolden(census, "fault_points");
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashPointExplorationTest,
                         ::testing::Values(1u, 2u, 3u, 4u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// The non-blocking claim, asserted with the dead node still dead: every
// surviving node drains its in-doubt list through the acceptor quorum. Under
// 2PC this is impossible when the coordinator died holding the verdict; under
// Paxos Commit one crash never removes the quorum (F = 1, 3 acceptors).
void ResolveOnSurvivors(World& world, unsigned seed, const std::string& where) {
  NodeId runner = world.NodeAlive(1) ? 1 : 2;  // at most one node is dead
  world.RunApp(runner, [&world](Application&) {
    // Two passes: the first can return "still in doubt" if it races a
    // concurrent standby-leader sweep that has the per-transaction lead.
    for (int pass = 0; pass < 2; ++pass) {
      for (int n = 1; n <= world.node_count(); ++n) {
        if (!world.NodeAlive(n)) {
          continue;
        }
        for (const TransactionId& tid : world.tm(n).InDoubt()) {
          world.tm(n).ResolveInDoubt(tid);
        }
      }
    }
  });
  for (int n = 1; n <= world.node_count(); ++n) {
    if (!world.NodeAlive(n)) {
      continue;
    }
    EXPECT_TRUE(world.tm(n).InDoubt().empty())
        << "survivor node " << n << " still blocked after crash at " << where
        << " with the dead node not yet recovered (seed " << seed
        << "): commit is not non-blocking";
  }
}

class PaxosCrashPointExplorationTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(PaxosCrashPointExplorationTest, SurvivorsResolveEveryPaxosFaultPoint) {
  const unsigned seed = GetParam();

  // Pass 1: record which points the workload reaches under kPaxosCommit.
  std::vector<sim::FaultInjector::PointHit> hits;
  {
    World world(3, PaxosExplorationOptions());
    auto [b1, b2, b3] = AddBanks(world);
    world.faults().StartRecording();
    Model m;
    RunWorkload(world, seed, b1, b2, b3, m);
    EXPECT_FALSE(world.faults().crash_fired());
    hits = world.faults().recorded_hits();
    CheckInvariants(world, m, seed, "paxos-no-fault");
    ASSERT_FALSE(::testing::Test::HasFailure()) << "fault-free run is already inconsistent";
  }

  // Crash plan: the paxos-specific windows (including the read-only skip),
  // the accept-bundle datagram window, and the shared prepare-record
  // windows. The generic surface (log, checkpoint, write-back, ...) is
  // already explored by the 2PC suite above; re-crashing it here would only
  // double the runtime.
  std::map<std::string, int> counts;
  for (const auto& h : hits) {
    counts[h.point] = std::max(counts[h.point], h.hit);
  }
  std::vector<std::pair<std::string, int>> plan;
  int paxos_points = 0;
  for (const auto& [point, count] : counts) {
    bool paxos = point.rfind("paxos.", 0) == 0;
    paxos_points += paxos ? 1 : 0;
    if (!paxos && point != "comm.accept-bundle" &&
        point.rfind("2pc.vote.", 0) != 0) {
      continue;
    }
    plan.emplace_back(point, 1);
    if (count > 2) {
      plan.emplace_back(point, count / 2 + 1);
    }
  }
  ASSERT_GE(paxos_points, 4) << "paxos workload no longer reaches its fault surface";
  ASSERT_GT(counts.count("paxos.readonly-skip"), 0u)
      << "read-only audit no longer takes the Paxos fast path";
  ASSERT_GT(counts.count("paxos.local-commit"), 0u)
      << "bank-3 transfer no longer takes the coordinator-local fast path";
  ASSERT_GT(counts.count("comm.accept-bundle"), 0u)
      << "accept rounds no longer leave through the bundled-datagram path";

  // Pass 2: crash at each window, then demand resolution WITHOUT recovery.
  for (const auto& [point, hit] : plan) {
    World world(3, PaxosExplorationOptions());
    auto [b1, b2, b3] = AddBanks(world);
    world.faults().ArmCrash(point, hit);
    Model m;
    RunWorkload(world, seed, b1, b2, b3, m);
    EXPECT_TRUE(world.faults().crash_fired())
        << point << " hit " << hit << " never fired (seed " << seed
        << "): determinism broken between passes";
    world.faults().Disarm();
    ResolveOnSurvivors(world, seed, point + "#" + std::to_string(hit));
    Recover(world);
    CheckInvariants(world, m, seed, point + "#" + std::to_string(hit));
    if (::testing::Test::HasFailure()) {
      WriteRepro(seed, point, hit);
      break;  // one repro is enough; later runs would drown it
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaxosCrashPointExplorationTest,
                         ::testing::Values(1u, 2u, 3u, 4u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// Five nodes and three acceptors per transaction, so the driver on node 3 is
// outside its own acceptor window for 2 of every 5 transactions: its own
// force, not a co-located acceptance, then makes its prepare record stable.
// No 3-node world reaches that case, since there the window is the whole
// membership. Nodes 4 and 5 hold no bank and only accept. What such a
// coordinator could get wrong lies as much on the generic commit path after
// the decision as in the paxos.* windows, so this run crashes at every hit of
// every point.
class PaxosFiveNodeExplorationTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(PaxosFiveNodeExplorationTest, CoordinatorOutsideItsWindowSurvivesEveryHit) {
  const unsigned seed = GetParam();
  constexpr int kNodes = 5;

  std::vector<sim::FaultInjector::PointHit> hits;
  {
    World world(kNodes, PaxosExplorationOptions());
    auto [b1, b2, b3] = AddBanks(world);
    world.faults().StartRecording();
    Model m;
    RunWorkload(world, seed, b1, b2, b3, m);
    EXPECT_FALSE(world.faults().crash_fired());
    hits = world.faults().recorded_hits();
    EXPECT_GT(world.tm(4).acceptor_state_count(), 0u) << "node 4 never accepted";
    EXPECT_GT(world.tm(5).acceptor_state_count(), 0u) << "node 5 never accepted";
    CheckInvariants(world, m, seed, "paxos-5-node-no-fault");
    ASSERT_FALSE(::testing::Test::HasFailure()) << "fault-free run is already inconsistent";
  }

  for (const auto& h : hits) {
    World world(kNodes, PaxosExplorationOptions());
    auto [b1, b2, b3] = AddBanks(world);
    world.faults().ArmCrash(h.point, h.hit);
    Model m;
    RunWorkload(world, seed, b1, b2, b3, m);
    const std::string where = h.point + "#" + std::to_string(h.hit);
    EXPECT_TRUE(world.faults().crash_fired())
        << where << " never fired (seed " << seed << "): determinism broken between passes";
    world.faults().Disarm();
    ResolveOnSurvivors(world, seed, where);
    Recover(world);
    CheckInvariants(world, m, seed, where);
    if (::testing::Test::HasFailure()) {
      WriteRepro(seed, h.point, h.hit);
      break;  // one repro is enough; later runs would drown it
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaxosFiveNodeExplorationTest,
                         ::testing::Values(1u, 2u, 3u, 4u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// The takeover window itself: the coordinator dies with the verdicts undelivered,
// and the first standby leader is killed at the paxos.takeover fault point. Two
// of three acceptors are now down, so the last survivor must NOT invent an
// outcome — it stays safely in doubt — and one recovered acceptor (never the
// coordinator) restores the quorum and releases the decision.
TEST(PaxosTakeoverWindow, CrashMidTakeoverBlocksSafelyUntilQuorumReturns) {
  World world(3, PaxosExplorationOptions());
  auto [b1, b2, b3] = AddBanks(world);

  // Commit the seed transfer with every verdict datagram lost: the decision
  // is durable at the acceptors, but participants 1 and 2 stay in doubt.
  world.network().SetDatagramLoss(
      [](NodeId from, NodeId, const std::string& what) {
        return from == 3 && (what == "2pc-commit" || what == "paxos-learn");
      });
  Status outcome = Status::kInternal;
  world.RunApp(3, [&](Application& app) {
    outcome = app.Transaction([&](const server::Tx& tx) {
      Status s = b1->Deposit(tx, 0, kBank1Seed);
      if (s != Status::kOk) {
        return s;
      }
      return b2->Deposit(tx, 0, kBank2Seed);
    });
  });
  ASSERT_EQ(outcome, Status::kOk);
  world.network().SetDatagramLoss({});
  ASSERT_EQ(world.tm(1).InDoubt().size(), 1u);
  ASSERT_EQ(world.tm(2).InDoubt().size(), 1u);

  // Node 1's staggered standby sweep reaches paxos.takeover first and dies
  // there; node 2's sweep then finds only one live acceptor (itself).
  world.faults().ArmCrash("paxos.takeover", 1);
  world.RunApp(2, [&world](Application&) { world.CrashNode(3); });
  EXPECT_TRUE(world.faults().crash_fired());
  world.faults().Disarm();
  EXPECT_FALSE(world.NodeAlive(1));
  EXPECT_EQ(world.tm(2).InDoubt().size(), 1u);  // blocked — but never wrong

  // Recovering acceptor 1 restores the quorum; the survivor's takeover then
  // learns the durable commit. The coordinator never comes back.
  world.RunApp(2, [&world](Application&) {
    world.RecoverNode(1);
    for (const TransactionId& tid : world.tm(2).InDoubt()) {
      EXPECT_EQ(world.tm(2).ResolveInDoubt(tid), Status::kOk);
    }
    for (const TransactionId& tid : world.tm(1).InDoubt()) {
      world.tm(1).ResolveInDoubt(tid);
    }
  });
  EXPECT_TRUE(world.tm(1).InDoubt().empty());
  EXPECT_TRUE(world.tm(2).InDoubt().empty());

  auto* r1 = world.Server<AccountServer>(1, "bank1");
  auto* r2 = world.Server<AccountServer>(2, "bank2");
  world.RunApp(2, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      auto v1 = r1->ReadBalance(tx, 0);
      auto v2 = r2->ReadBalance(tx, 0);
      EXPECT_TRUE(v1.ok() && v2.ok());
      if (v1.ok()) {
        EXPECT_EQ(v1.value(), kBank1Seed);
      }
      if (v2.ok()) {
        EXPECT_EQ(v2.value(), kBank2Seed);
      }
      return Status::kOk;
    });
  });
}

}  // namespace
}  // namespace tabs
