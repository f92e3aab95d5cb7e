// Integration tests: full-stack transactions through World/Application on
// the integer array server — local, distributed, aborting, subtransactions,
// name lookup, and serializability-shaped interleavings.

#include <gtest/gtest.h>

#include "src/name/resolver.h"
#include "src/servers/array_server.h"
#include "src/tabs/world.h"

namespace tabs {
namespace {

using servers::ArrayServer;

class TransactionTest : public ::testing::Test {
 protected:
  explicit TransactionTest(const WorldOptions& opt = WorldOptions()) : world_(3, opt) {
    a1_ = world_.AddServerOf<ArrayServer>(1, "array1", 128u);
    a2_ = world_.AddServerOf<ArrayServer>(2, "array2", 128u);
    a3_ = world_.AddServerOf<ArrayServer>(3, "array3", 128u);
  }

  static WorldOptions TwoPhase() {
    WorldOptions opt;
    opt.commit_mode = txn::CommitMode::kTwoPhase;
    return opt;
  }

  World world_;
  ArrayServer* a1_;
  ArrayServer* a2_;
  ArrayServer* a3_;
};

// The wire-shape goldens below count 2PC commit datagrams exactly; the
// protocol is pinned so the commit-mode CI matrix cannot shift them.
class TwoPhaseWireTest : public TransactionTest {
 protected:
  TwoPhaseWireTest() : TransactionTest(TwoPhase()) {}
};

TEST_F(TransactionTest, LocalReadWriteCommit) {
  int result = world_.RunApp(1, [&](Application& app) {
    Status s = app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(a1_->SetCell(tx, 5, 42), Status::kOk);
      auto v = a1_->GetCell(tx, 5);
      EXPECT_TRUE(v.ok());
      EXPECT_EQ(v.value(), 42);
      return Status::kOk;
    });
    EXPECT_EQ(s, Status::kOk);
    // A later transaction sees the committed value.
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(a1_->GetCell(tx, 5).value(), 42);
      return Status::kOk;
    });
  });
  EXPECT_EQ(result, 0);
}

TEST_F(TransactionTest, AbortRestoresOldValue) {
  world_.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      a1_->SetCell(tx, 7, 100);
      return Status::kOk;
    });
    TxnScope t(app);
    a1_->SetCell(t.tx(), 7, 999);
    t.Abort();
    EXPECT_FALSE(t.live());
    EXPECT_TRUE(app.TransactionIsAborted(t.id()));
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(a1_->GetCell(tx, 7).value(), 100);
      return Status::kOk;
    });
  });
}

TEST_F(TransactionTest, OutOfRangeReturnsError) {
  world_.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(a1_->GetCell(tx, 9999).status(), Status::kOutOfRange);
      EXPECT_EQ(a1_->SetCell(tx, 9999, 1), Status::kOutOfRange);
      return Status::kOk;
    });
  });
}

TEST_F(TransactionTest, DistributedCommitTwoNodes) {
  world_.RunApp(1, [&](Application& app) {
    Status s = app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(a1_->SetCell(tx, 1, 11), Status::kOk);
      EXPECT_EQ(a2_->SetCell(tx, 2, 22), Status::kOk);  // remote write
      return Status::kOk;
    });
    EXPECT_EQ(s, Status::kOk);
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(a1_->GetCell(tx, 1).value(), 11);
      EXPECT_EQ(a2_->GetCell(tx, 2).value(), 22);
      return Status::kOk;
    });
  });
}

TEST_F(TransactionTest, DistributedCommitThreeNodes) {
  world_.RunApp(1, [&](Application& app) {
    Status s = app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(a1_->SetCell(tx, 0, 1), Status::kOk);
      EXPECT_EQ(a2_->SetCell(tx, 0, 2), Status::kOk);
      EXPECT_EQ(a3_->SetCell(tx, 0, 3), Status::kOk);
      return Status::kOk;
    });
    EXPECT_EQ(s, Status::kOk);
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(a1_->GetCell(tx, 0).value(), 1);
      EXPECT_EQ(a2_->GetCell(tx, 0).value(), 2);
      EXPECT_EQ(a3_->GetCell(tx, 0).value(), 3);
      return Status::kOk;
    });
  });
}

TEST_F(TransactionTest, DistributedAbortUndoesRemoteWrites) {
  world_.RunApp(1, [&](Application& app) {
    TxnScope t(app);
    server::Tx tx = t.tx();
    a1_->SetCell(tx, 3, 33);
    a2_->SetCell(tx, 3, 44);
    t.Abort();
    app.Transaction([&](const server::Tx& tx2) {
      EXPECT_EQ(a1_->GetCell(tx2, 3).value(), 0);
      EXPECT_EQ(a2_->GetCell(tx2, 3).value(), 0);
      return Status::kOk;
    });
  });
}

TEST_F(TwoPhaseWireTest, RemoteReadOnlyUsesReadOnlyVote) {
  world_.RunApp(1, [&](Application& app) {
    world_.metrics().Reset();
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(a1_->GetCell(tx, 0).status(), Status::kOk);
      EXPECT_EQ(a2_->GetCell(tx, 0).status(), Status::kOk);
      return Status::kOk;
    });
    // Read-only distributed commit: prepare + vote only (2 datagrams).
    EXPECT_EQ(world_.metrics().Bucket(sim::Phase::kCommit).Of(sim::Primitive::kDatagram), 2.0);
  });
}

TEST_F(TwoPhaseWireTest, DistributedWriteUsesFullTwoPhase) {
  world_.RunApp(1, [&](Application& app) {
    world_.metrics().Reset();
    app.Transaction([&](const server::Tx& tx) {
      a1_->SetCell(tx, 0, 1);
      a2_->SetCell(tx, 0, 2);
      return Status::kOk;
    });
    // prepare, vote, commit, ack.
    EXPECT_EQ(world_.metrics().Bucket(sim::Phase::kCommit).Of(sim::Primitive::kDatagram), 4.0);
  });
}

TEST_F(TransactionTest, SerializabilityUnderConflict) {
  // Two transfer-style transactions over the same two cells, interleaved:
  // locking must serialize them and conserve the total.
  world_.RunApp(1, [&](Application& app0) {
    app0.Transaction([&](const server::Tx& tx) {
      a1_->SetCell(tx, 0, 100);
      a1_->SetCell(tx, 1, 100);
      return Status::kOk;
    });
  });
  auto transfer = [&](Application& app, std::int32_t amount) {
    app.Transaction([&](const server::Tx& tx) {
      auto from = a1_->GetCell(tx, 0);
      if (!from.ok()) {
        return from.status();
      }
      Status s = a1_->SetCell(tx, 0, from.value() - amount);
      if (s != Status::kOk) {
        return s;
      }
      auto to = a1_->GetCell(tx, 1);
      if (!to.ok()) {
        return to.status();
      }
      return a1_->SetCell(tx, 1, to.value() + amount);
    });
  };
  world_.SpawnApp(1, "t1", [&](Application& app) { transfer(app, 10); }, 0);
  world_.SpawnApp(1, "t2", [&](Application& app) { transfer(app, 25); }, 1000);
  EXPECT_EQ(world_.Drain(), 0);
  world_.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      std::int32_t total = a1_->GetCell(tx, 0).value() + a1_->GetCell(tx, 1).value();
      EXPECT_EQ(total, 200);
      return Status::kOk;
    });
  });
}

TEST_F(TransactionTest, ConflictingWritersTimeOutAndAbort) {
  Status second = Status::kOk;
  world_.SpawnApp(1, "holder", [&](Application& app) {
    TxnScope t(app);
    a1_->SetCell(t.tx(), 0, 1);
    // Hold the lock "forever" (longer than the contender's timeout).
    world_.scheduler().Charge(20'000'000);
    world_.scheduler().Yield();
    t.Commit();
  });
  world_.SpawnApp(1, "contender", [&](Application& app) {
    second = app.Transaction([&](const server::Tx& tx) {
      return a1_->SetCell(tx, 0, 2);
    });
  }, 1000);
  EXPECT_EQ(world_.Drain(), 0);
  EXPECT_EQ(second, Status::kTimeout);
}

TEST_F(TransactionTest, SubtransactionCommitsWithParent) {
  world_.RunApp(1, [&](Application& app) {
    TxnScope parent(app);
    a1_->SetCell(parent.tx(), 0, 1);
    TxnScope child(app, parent.id());
    a1_->SetCell(child.tx(), 1, 2);
    EXPECT_EQ(child.Commit(), Status::kOk);   // merges into parent
    EXPECT_EQ(parent.Commit(), Status::kOk);  // real commit
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(a1_->GetCell(tx, 0).value(), 1);
      EXPECT_EQ(a1_->GetCell(tx, 1).value(), 2);
      return Status::kOk;
    });
  });
}

TEST_F(TransactionTest, SubtransactionAbortsAlone) {
  world_.RunApp(1, [&](Application& app) {
    TxnScope parent(app);
    a1_->SetCell(parent.tx(), 0, 1);
    {
      TxnScope child(app, parent.id());
      a1_->SetCell(child.tx(), 1, 2);
    }  // auto-abort: parent tolerates the failure
    EXPECT_EQ(parent.Commit(), Status::kOk);
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(a1_->GetCell(tx, 0).value(), 1);
      EXPECT_EQ(a1_->GetCell(tx, 1).value(), 0);  // child's write undone
      return Status::kOk;
    });
  });
}

TEST_F(TransactionTest, ParentAbortKillsCommittedSubtransaction) {
  world_.RunApp(1, [&](Application& app) {
    TxnScope parent(app);
    TxnScope child(app, parent.id());
    a1_->SetCell(child.tx(), 1, 2);
    EXPECT_EQ(child.Commit(), Status::kOk);
    parent.Abort();
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(a1_->GetCell(tx, 1).value(), 0);
      return Status::kOk;
    });
  });
}

TEST_F(TransactionTest, SubtransactionRemoteWriteFollowsParentOutcome) {
  world_.RunApp(1, [&](Application& app) {
    TxnScope parent(app);
    TxnScope child(app, parent.id());
    a2_->SetCell(child.tx(), 4, 44);  // remote write inside subtxn
    EXPECT_EQ(child.Commit(), Status::kOk);
    EXPECT_EQ(parent.Commit(), Status::kOk);
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(a2_->GetCell(tx, 4).value(), 44);
      return Status::kOk;
    });
  });
}

TEST_F(TransactionTest, RemoteSubtransactionAbortReleasesItsLocks) {
  world_.RunApp(1, [&](Application& app) {
    TxnScope parent(app);
    EXPECT_EQ(a2_->SetCell(parent.tx(), 0, 10), Status::kOk);
    {
      TxnScope child(app, parent.id());
      EXPECT_EQ(a2_->SetCell(child.tx(), 1, 11), Status::kOk);
      child.Abort();
    }
    // The child's lock on node 2 went with its abort.
    EXPECT_EQ(a2_->SetCell(parent.tx(), 1, 12), Status::kOk);
    EXPECT_EQ(parent.Commit(), Status::kOk);
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(a2_->GetCell(tx, 0).value(), 10);
      EXPECT_EQ(a2_->GetCell(tx, 1).value(), 12);
      return Status::kOk;
    });
  });
}

TEST_F(TransactionTest, ParentAbortUndoesCommittedRemoteSubtransaction) {
  world_.RunApp(1, [&](Application& app) {
    TxnScope parent(app);
    EXPECT_EQ(a2_->SetCell(parent.tx(), 0, 10), Status::kOk);
    TxnScope child(app, parent.id());
    EXPECT_EQ(a2_->SetCell(child.tx(), 1, 11), Status::kOk);
    EXPECT_EQ(child.Commit(), Status::kOk);
    parent.Abort();
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(a2_->GetCell(tx, 0).value(), 0);
      EXPECT_EQ(a2_->GetCell(tx, 1).value(), 0);
      return Status::kOk;
    });
  });
  EXPECT_EQ(a2_->locks().LockedObjectCount(), 0u);
}

TEST_F(TransactionTest, NameServerFindsLocalAndRemoteBindings) {
  world_.RunApp(1, [&](Application& app) {
    name::Resolver resolver(/*max_wait=*/200'000);
    auto local = resolver.ResolveService(world_.names(1), "array1").bindings;
    ASSERT_EQ(local.size(), 1u);
    EXPECT_EQ(local[0].node, 1u);
    // Remote name resolved by broadcast (and cached: the repeat is a hit,
    // not a second broadcast).
    auto remote = resolver.ResolveService(world_.names(1), "array3").bindings;
    ASSERT_EQ(remote.size(), 1u);
    EXPECT_EQ(remote[0].node, 3u);
    resolver.ResolveService(world_.names(1), "array3");
    EXPECT_EQ(resolver.stats().lookups, 2u);
    EXPECT_EQ(resolver.stats().cache_hits, 1u);
    // Unknown names come back empty after the broadcast wait.
    EXPECT_TRUE(resolver.ResolveService(world_.names(1), "no-such-server").bindings.empty());
  });
}

TEST_F(TransactionTest, DescribeNodeListsComponents) {
  std::string desc = world_.DescribeNode(1);
  EXPECT_NE(desc.find("Transaction Manager"), std::string::npos);
  EXPECT_NE(desc.find("array1"), std::string::npos);
  EXPECT_NE(desc.find("stable log bytes in use"), std::string::npos);
  EXPECT_NE(desc.find("device holds"), std::string::npos);
}

// The per-transaction map sizes DescribeNode prints are the accessors' on
// every node; only Paxos Commit has acceptor states to print.
TEST_F(TransactionTest, DescribeNodeCountsPerTransactionMaps) {
  int blocked = world_.RunApp(1, [&](Application& app) {
    for (int i = 0; i < 4; ++i) {
      Status s = app.Transaction([&](const server::Tx& tx) {
        EXPECT_EQ(a1_->SetCell(tx, i, i), Status::kOk);
        EXPECT_EQ(a2_->SetCell(tx, i, i), Status::kOk);
        return Status::kOk;
      });
      EXPECT_EQ(s, Status::kOk);
    }
  });
  EXPECT_EQ(blocked, 0);
  bool paxos = txn::DefaultCommitMode() == txn::CommitMode::kPaxosCommit;
  size_t outcomes = 0;
  size_t acceptor_states = 0;
  for (NodeId n = 1; n <= 3; ++n) {
    const txn::TransactionManager& tm = world_.tm(n);
    std::string maps = "per-transaction maps: " + std::to_string(tm.logged_outcome_count()) +
                       " logged outcomes";
    if (paxos) {
      maps += ", " + std::to_string(tm.acceptor_state_count()) + " acceptor states";
    }
    EXPECT_NE(world_.DescribeNode(n).find(maps + "\n"), std::string::npos) << "node " << n;
    outcomes += tm.logged_outcome_count();
    acceptor_states += tm.acceptor_state_count();
  }
  EXPECT_GE(outcomes, 4u);
  if (paxos) {
    EXPECT_GE(acceptor_states, 4u);
  } else {
    EXPECT_EQ(acceptor_states, 0u);
  }
}

// --- the RAII / retry API ----------------------------------------------------

TEST_F(TransactionTest, TxnScopeAutoAbortsOnEarlyReturn) {
  world_.RunApp(1, [&](Application& app) {
    TransactionId leaked = kNullTransaction;
    [&] {
      TxnScope t(app);
      leaked = t.id();
      a1_->SetCell(t.tx(), 9, 123);
      return;  // early exit without Commit
    }();
    EXPECT_TRUE(app.TransactionIsAborted(leaked));
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(a1_->GetCell(tx, 9).value(), 0);  // write rolled back
      return Status::kOk;
    });
  });
}

TEST_F(TransactionTest, TxnScopeCommitSticks) {
  world_.RunApp(1, [&](Application& app) {
    {
      TxnScope t(app);
      a1_->SetCell(t.tx(), 10, 7);
      EXPECT_EQ(t.Commit(), Status::kOk);
    }  // dtor must NOT abort a committed scope
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(a1_->GetCell(tx, 10).value(), 7);
      return Status::kOk;
    });
  });
}

TEST_F(TransactionTest, TxnScopeMoveTransfersOwnership) {
  world_.RunApp(1, [&](Application& app) {
    TxnScope outer = [&] {
      TxnScope inner(app);
      a1_->SetCell(inner.tx(), 11, 5);
      return inner;  // moved out; inner's dtor must not abort
    }();
    EXPECT_TRUE(outer.live());
    EXPECT_EQ(outer.Commit(), Status::kOk);
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(a1_->GetCell(tx, 11).value(), 5);
      return Status::kOk;
    });
  });
}

TEST_F(TransactionTest, RunTransactionalSucceedsFirstAttempt) {
  world_.RunApp(1, [&](Application& app) {
    auto r = app.RunTransactional([&](const server::Tx& tx) {
      return a1_->SetCell(tx, 12, 1);
    });
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.attempts, 1);
  });
}

TEST_F(TransactionTest, RunTransactionalDoesNotRetryNonRetryable) {
  world_.RunApp(1, [&](Application& app) {
    auto r = app.RunTransactional([&](const server::Tx& tx) {
      return a1_->SetCell(tx, 9999, 1) == Status::kOutOfRange
                 ? Status::kNotFound  // surface a non-retryable failure
                 : Status::kOk;
    });
    EXPECT_EQ(r.status, Status::kNotFound);
    EXPECT_EQ(r.attempts, 1);
  });
}

TEST_F(TransactionTest, RunTransactionalRetriesThroughLockTimeout) {
  // A holder pins the lock long enough to time out the contender's first
  // attempt, then commits; the contender's retry (after backoff) succeeds.
  Application::RunResult result;
  world_.SpawnApp(1, "holder", [&](Application& app) {
    TxnScope t(app);
    a1_->SetCell(t.tx(), 0, 1);
    world_.scheduler().Charge(6'000'000);  // > the 5 s lock-wait timeout
    world_.scheduler().Yield();
    t.Commit();
  });
  world_.SpawnApp(1, "contender", [&](Application& app) {
    Application::RetryPolicy policy;
    policy.initial_backoff_us = 2'000'000;  // retry lands after the holder commits
    result = app.RunTransactional(
        [&](const server::Tx& tx) { return a1_->SetCell(tx, 0, 2); }, policy);
  }, 1000);
  EXPECT_EQ(world_.Drain(), 0);
  EXPECT_EQ(result.status, Status::kOk);
  EXPECT_GT(result.attempts, 1);
  world_.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(a1_->GetCell(tx, 0).value(), 2);  // contender won in the end
      return Status::kOk;
    });
  });
}

TEST_F(TransactionTest, RunTransactionalGivesUpAfterMaxAttempts) {
  Application::RunResult result;
  world_.RunApp(1, [&](Application& app) {
    int bodies = 0;
    Application::RetryPolicy policy;
    policy.max_attempts = 3;
    policy.initial_backoff_us = 1'000;
    result = app.RunTransactional(
        [&](const server::Tx&) {
          ++bodies;
          return Status::kVoteNo;  // always transiently failing
        },
        policy);
    EXPECT_EQ(bodies, 3);
  });
  EXPECT_EQ(result.status, Status::kVoteNo);
  EXPECT_EQ(result.attempts, 3);
}

}  // namespace
}  // namespace tabs
