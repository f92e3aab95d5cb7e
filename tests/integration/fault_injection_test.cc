// Storage- and network-fault injection: torn log writes, corrupt sectors,
// lost page write-backs, corrupt data pages, datagram duplication/jitter,
// session loss, and the RunTransactional retry loop under injected failure.
//
// Everything here is deterministic: the same World options and seeds replay
// the same schedule, so every assertion is exact, not statistical.

#include <gtest/gtest.h>

#include <vector>

#include "src/servers/account_server.h"
#include "src/servers/array_server.h"
#include "src/tabs/world.h"

namespace tabs {
namespace {

using servers::AccountServer;
using servers::ArrayServer;

// --- torn and corrupt log tails ----------------------------------------------

class LogDamageTest : public ::testing::Test {
 protected:
  // Node 1 hosts the array server; node 2 survives crashes and drives
  // recovery.
  World world_{2};
  ArrayServer* srv_ = world_.AddServerOf<ArrayServer>(1, "array", 256);

  void CommitCells(std::uint32_t first, std::uint32_t last, std::int32_t value) {
    world_.RunApp(1, [&](Application& app) {
      Status s = app.Transaction([&](const server::Tx& tx) {
        for (std::uint32_t c = first; c <= last; ++c) {
          Status w = srv_->SetCell(tx, c, value);
          if (w != Status::kOk) {
            return w;
          }
        }
        return Status::kOk;
      });
      EXPECT_EQ(s, Status::kOk);
    });
  }

  void RecoverNode1() {
    world_.RunApp(2, [&](Application&) { world_.RecoverNode(1); });
    srv_ = world_.Server<ArrayServer>(1, "array");
    ASSERT_NE(srv_, nullptr);
  }

  void ExpectCells(std::uint32_t first, std::uint32_t last, std::int32_t value) {
    world_.RunApp(1, [&](Application& app) {
      app.Transaction([&](const server::Tx& tx) {
        for (std::uint32_t c = first; c <= last; ++c) {
          auto got = srv_->GetCell(tx, c);
          EXPECT_TRUE(got.ok()) << "cell " << c;
          EXPECT_EQ(got.ok() ? got.value() : -1, value) << "cell " << c;
        }
        return Status::kOk;
      });
    });
  }
};

TEST_F(LogDamageTest, TornLogForceIsTruncatedAtRecovery) {
  CommitCells(0, 4, 7);  // durable baseline

  // The next force tears after one durable sector: the transaction's value
  // records and commit record straddle the tear, and the node dies with the
  // write (power loss). The workload observes the crash as a killed task.
  world_.faults().ArmTornLogForce(1);
  world_.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      for (std::uint32_t c = 0; c < 10; ++c) {
        Status w = srv_->SetCell(tx, c, 9);
        if (w != Status::kOk) {
          return w;
        }
      }
      return Status::kOk;
    });
    ADD_FAILURE() << "transaction survived a torn commit force";
  });
  EXPECT_TRUE(world_.faults().crash_fired());
  EXPECT_FALSE(world_.NodeAlive(1));
  EXPECT_EQ(world_.metrics().faults_injected(sim::FaultKind::kTornLogWrite), 1);

  RecoverNode1();

  // The torn tail was detected (checksums + framing) and cut; the interrupted
  // transaction rolled back, the committed prefix survived.
  EXPECT_GE(world_.metrics().log_tail_truncations(), 1);
  EXPECT_GT(world_.metrics().log_tail_bytes_truncated(), 0u);
  ExpectCells(0, 4, 7);
  ExpectCells(5, 9, 0);
}

TEST_F(LogDamageTest, CorruptLogSectorIsDetectedAndTruncated) {
  CommitCells(0, 4, 7);
  // A second, larger transaction pushes the first one's records safely below
  // the final sector, then the final sector (holding the second commit
  // record) is damaged in place — a failing medium, not a torn write.
  CommitCells(5, 20, 9);
  log::StableLogDevice& dev = world_.node(1).stable_log();
  ASSERT_GE(dev.SectorCount(), 2u);
  dev.CorruptSector(dev.SectorCount() - 1);
  EXPECT_LT(dev.FirstInvalidByte(), dev.size());

  world_.RunApp(2, [&](Application&) { world_.CrashNode(1); });
  RecoverNode1();

  EXPECT_GE(world_.metrics().log_tail_truncations(), 1);
  EXPECT_EQ(world_.metrics().faults_injected(sim::FaultKind::kCorruptSector), 1);
  // Recovery never applied a record past the damage: the second transaction
  // lost its commit record and rolled back; the first is intact.
  ExpectCells(0, 4, 7);
  ExpectCells(5, 20, 0);
}

TEST_F(LogDamageTest, LostPageWritesAreRepairedByRedo) {
  // Three pages' worth of committed cells (128 four-byte cells per page).
  world_.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(srv_->SetCell(tx, 0, 7), Status::kOk);
      EXPECT_EQ(srv_->SetCell(tx, 130, 7), Status::kOk);
      EXPECT_EQ(srv_->SetCell(tx, 200, 7), Status::kOk);
      return Status::kOk;
    });
  });
  // The write-back elevator loses its first two writes (torn batch): the
  // disk reports success but keeps the old pages and sequence numbers.
  world_.node(1).disk().InjectLostWrites(2);
  world_.RunApp(1, [&](Application&) { srv_->segment().FlushAll(); });
  EXPECT_EQ(world_.metrics().faults_injected(sim::FaultKind::kLostPageWrite), 2);

  world_.RunApp(2, [&](Application&) { world_.CrashNode(1); });
  RecoverNode1();

  // The log was never reclaimed past the lost pages, so recovery rewrites
  // the committed images the disk dropped.
  world_.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(srv_->GetCell(tx, 0).value(), 7);
      EXPECT_EQ(srv_->GetCell(tx, 130).value(), 7);
      EXPECT_EQ(srv_->GetCell(tx, 200).value(), 7);
      return Status::kOk;
    });
  });
}

TEST_F(LogDamageTest, CorruptDataPageIsRewrittenByValueRecovery) {
  CommitCells(0, 100, 7);
  world_.RunApp(1, [&](Application&) { srv_->segment().FlushAll(); });
  // Scramble the first data page on the platter (stale checksum model: its
  // header sequence number is destroyed too).
  world_.node(1).disk().CorruptPage({srv_->segment().id(), 0});
  EXPECT_EQ(world_.metrics().faults_injected(sim::FaultKind::kCorruptSector), 1);

  world_.RunApp(2, [&](Application&) { world_.CrashNode(1); });
  RecoverNode1();

  // Value recovery rewrites every committed image from the retained log.
  ExpectCells(0, 100, 7);
}

// --- network faults ----------------------------------------------------------

std::int64_t TotalBalance(World& world, AccountServer* b1, AccountServer* b2,
                          std::uint32_t accounts) {
  std::int64_t total = 0;
  world.RunApp(3, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      for (std::uint32_t a = 0; a < accounts; ++a) {
        auto v1 = b1->ReadBalance(tx, a);
        auto v2 = b2->ReadBalance(tx, a);
        EXPECT_TRUE(v1.ok() && v2.ok());
        total += v1.value() + v2.value();
      }
      return Status::kOk;
    });
  });
  return total;
}

TEST(NetworkFaultTest, DuplicationAndJitterPreserveAtomicity) {
  World world(3);
  auto* b1 = world.AddServerOf<AccountServer>(1, "bank1", 4);
  auto* b2 = world.AddServerOf<AccountServer>(2, "bank2", 4);
  world.RunApp(3, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(b1->Deposit(tx, 0, 1000), Status::kOk);
      return Status::kOk;
    });
  });

  // Every 2PC datagram now rolls for duplication and for bounded reordering
  // jitter. The protocol's handlers are idempotent and the coordinator
  // tolerates stale redeliveries, so atomicity must hold regardless.
  world.network().SetDatagramFaults({/*seed=*/42, /*duplicate_probability=*/0.5,
                                     /*jitter_probability=*/0.5, /*max_jitter_us=*/2000});
  world.RunApp(3, [&](Application& app) {
    for (int i = 0; i < 12; ++i) {
      app.Transaction([&](const server::Tx& tx) {
        Status s = b1->Withdraw(tx, 0, 10);
        if (s != Status::kOk) {
          return s;
        }
        return b2->Deposit(tx, static_cast<std::uint32_t>(i % 4), 10);
      });
    }
  });

  EXPECT_GT(world.metrics().faults_injected(sim::FaultKind::kDatagramDuplicate), 0);
  EXPECT_GT(world.metrics().faults_injected(sim::FaultKind::kDatagramJitter), 0);
  EXPECT_EQ(TotalBalance(world, b1, b2, 4), 1000);
  for (NodeId n = 1; n <= 3; ++n) {
    EXPECT_TRUE(world.tm(n).InDoubt().empty());
  }
}

TEST(NetworkFaultTest, SeededPointDelaysPreserveAtomicity) {
  World world(3);
  auto* b1 = world.AddServerOf<AccountServer>(1, "bank1", 4);
  auto* b2 = world.AddServerOf<AccountServer>(2, "bank2", 4);
  world.RunApp(3, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(b1->Deposit(tx, 0, 1000), Status::kOk);
      return Status::kOk;
    });
  });

  // The nemesis stretches random protocol windows (commit-record force to
  // ack wait, prepare to vote, ...) without killing anyone: pure schedule
  // perturbation, still deterministic per seed.
  world.faults().SeedDelays(/*seed=*/7, /*probability=*/0.3, /*max_delay_us=*/500);
  world.RunApp(3, [&](Application& app) {
    for (int i = 0; i < 8; ++i) {
      app.Transaction([&](const server::Tx& tx) {
        Status s = b1->Withdraw(tx, 0, 5);
        if (s != Status::kOk) {
          return s;
        }
        return b2->Deposit(tx, 0, 5);
      });
    }
  });

  EXPECT_GT(world.metrics().faults_injected(sim::FaultKind::kDelay), 0);
  EXPECT_EQ(TotalBalance(world, b1, b2, 4), 1000);
}

TEST(NetworkFaultTest, SessionLossSurfacesAsNodeDown) {
  World world(2);
  auto* bank = world.AddServerOf<AccountServer>(2, "bank", 2);
  world.network().SetSessionLoss(
      [](NodeId from, NodeId to) { return from == 1 && to == 2; });
  world.RunApp(1, [&](Application& app) {
    Status s = app.Transaction(
        [&](const server::Tx& tx) { return bank->Deposit(tx, 0, 5); });
    EXPECT_EQ(s, Status::kNodeDown);
  });
  EXPECT_GT(world.metrics().faults_injected(sim::FaultKind::kSessionDrop), 0);

  world.network().SetSessionLoss({});
  world.RunApp(1, [&](Application& app) {
    Status s = app.Transaction(
        [&](const server::Tx& tx) { return bank->Deposit(tx, 0, 5); });
    EXPECT_EQ(s, Status::kOk);
  });
}

// --- RunTransactional under injected failure ---------------------------------

// Drops every datagram from the participant back to the coordinator, so each
// commit attempt loses its vote and times out. Returns each attempt's start
// time in virtual microseconds.
std::vector<SimTime> RunRetriesUnderVoteLoss(unsigned accounts_seed) {
  WorldOptions opt;
  opt.vote_timeout_us = 50'000;  // tight: each lost vote costs 50 virtual ms
  opt.commit_mode = txn::CommitMode::kTwoPhase;  // retry cadence is 2PC's
  World world(2, opt);
  auto* bank = world.AddServerOf<AccountServer>(2, "bank", accounts_seed + 1);
  world.network().SetDatagramLoss(
      [](NodeId from, NodeId to, const std::string&) { return from == 2 && to == 1; });

  std::vector<SimTime> attempt_starts;
  world.RunApp(1, [&](Application& app) {
    auto result = app.RunTransactional([&](const server::Tx& tx) {
      attempt_starts.push_back(world.scheduler().Now());
      return bank->Deposit(tx, 0, 5);
    });
    // Every attempt loses its vote: the coordinator presumes abort and the
    // policy retries with exponential virtual-time backoff until exhausted.
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status, Status::kVoteNo);
    EXPECT_EQ(result.attempts, Application::RetryPolicy{}.max_attempts);
  });
  EXPECT_GT(world.metrics().faults_injected(sim::FaultKind::kDatagramDrop), 0);
  return attempt_starts;
}

TEST(RunTransactionalFaultTest, RetryExhaustionIsDeterministic) {
  std::vector<SimTime> first = RunRetriesUnderVoteLoss(1);
  ASSERT_EQ(static_cast<int>(first.size()), Application::RetryPolicy{}.max_attempts);
  // Backoff runs in virtual time: strictly increasing attempt starts, and the
  // gap between attempts grows (exponential policy) until the cap.
  for (size_t i = 1; i < first.size(); ++i) {
    EXPECT_LT(first[i - 1], first[i]);
  }
  // The exponential backoff dominates by the last attempt (10 ms doubling
  // toward the cap dwarfs per-attempt protocol-time noise).
  size_t n = first.size();
  EXPECT_GT(first[n - 1] - first[n - 2], first[1] - first[0]);

  // A fresh universe replays the identical schedule.
  std::vector<SimTime> second = RunRetriesUnderVoteLoss(1);
  EXPECT_EQ(first, second);
}

// Same scenario as RunRetriesUnderVoteLoss, with the caller's retry policy.
std::vector<SimTime> RunRetriesWithPolicy(const Application::RetryPolicy& policy) {
  WorldOptions opt;
  opt.vote_timeout_us = 50'000;
  opt.commit_mode = txn::CommitMode::kTwoPhase;  // retry cadence is 2PC's
  World world(2, opt);
  auto* bank = world.AddServerOf<AccountServer>(2, "bank", 7);
  world.network().SetDatagramLoss(
      [](NodeId from, NodeId to, const std::string&) { return from == 2 && to == 1; });
  std::vector<SimTime> attempt_starts;
  world.RunApp(1, [&](Application& app) {
    auto result = app.RunTransactional(
        [&](const server::Tx& tx) {
          attempt_starts.push_back(world.scheduler().Now());
          return bank->Deposit(tx, 0, 5);
        },
        policy);
    EXPECT_EQ(result.status, Status::kVoteNo);
  });
  return attempt_starts;
}

TEST(RunTransactionalFaultTest, BackoffJitterIsSeededAndDeterministic) {
  // The jittered schedule is a pure function of the world seed and the
  // policy's jitter_seed: identical universes replay identical waits.
  Application::RetryPolicy jittered;  // default policy: jitter enabled
  std::vector<SimTime> first = RunRetriesWithPolicy(jittered);
  std::vector<SimTime> second = RunRetriesWithPolicy(jittered);
  ASSERT_EQ(static_cast<int>(first.size()), jittered.max_attempts);
  EXPECT_EQ(first, second);

  // A different jitter stream de-synchronizes the waits — this is the whole
  // point: two applications that aborted each other must not retry in
  // lockstep and re-collide on the same locks.
  Application::RetryPolicy reseeded = jittered;
  reseeded.jitter_seed = 0xfeedULL;
  std::vector<SimTime> reseeded_starts = RunRetriesWithPolicy(reseeded);
  ASSERT_EQ(first.size(), reseeded_starts.size());
  EXPECT_NE(first, reseeded_starts);

  // Jitter only shaves time off each wait: every jittered gap is bounded by
  // the un-jittered exponential gap, so retry latency never regresses.
  Application::RetryPolicy plain = jittered;
  plain.jitter = 0.0;
  std::vector<SimTime> exact = RunRetriesWithPolicy(plain);
  ASSERT_EQ(first.size(), exact.size());
  for (size_t i = 1; i < first.size(); ++i) {
    EXPECT_LE(first[i] - first[i - 1], exact[i] - exact[i - 1]);
    EXPECT_LT(first[i - 1], first[i]);  // still strictly forward in time
  }
}

TEST(RunTransactionalFaultTest, NodeDownShortCircuitsRetry) {
  World world(2);
  auto* bank = world.AddServerOf<AccountServer>(2, "bank", 2);
  world.RunApp(1, [&](Application& app) {
    world.CrashNode(2);
    auto result = app.RunTransactional(
        [&](const server::Tx& tx) { return bank->Deposit(tx, 0, 5); });
    // kNodeDown is not transient: no retry storm against a dead node.
    EXPECT_EQ(result.status, Status::kNodeDown);
    EXPECT_EQ(result.attempts, 1);
  });
}

}  // namespace
}  // namespace tabs
