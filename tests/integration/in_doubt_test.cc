// In-doubt transactions across recovery: a prepared participant holds its
// locks until it learns the verdict where its prepare says it lives (Section
// 3.2.3), whether it prepared in this incarnation or was re-locked by crash
// recovery (Section 3.2.2). Presumed abort holds only at a node that has
// forgotten the transaction: a node that is itself undecided must answer
// "not decided here", never "not committed". Recovered in-doubt records pin
// the log like live ones, a relay node that wrote nothing pins and recovers
// its prepare record and passes the verdict it learns down to its children,
// a recovered undo list leaves out what an aborted subtransaction already
// rolled back, and a lock re-acquired by single-server recovery is released
// by the verdict. The tree those rules walk is recorded once per node, at
// first contact: a call back into the root commits, and a node reached by two
// callers prepares once, for its parent. A repeated commit or ack counts
// once, and a prepare task that outwaits its transaction's entry leaves the
// next transaction on that entry's node alone.

#include <gtest/gtest.h>

#include <vector>

#include "src/servers/account_server.h"
#include "src/servers/array_server.h"
#include "src/tabs/world.h"

namespace tabs {
namespace {

using servers::ArrayServer;

WorldOptions TwoPhaseOptions() {
  WorldOptions opt;
  opt.commit_mode = txn::CommitMode::kTwoPhase;
  return opt;
}

// Writes a cell of another node's array server from this node, so this node
// becomes that node's parent in the transaction's spanning tree.
class RelayServer : public server::DataServer {
 public:
  explicit RelayServer(const server::ServerContext& ctx) : DataServer(ctx, Options()) {}

  Status Forward(const server::Tx& tx, ArrayServer* target, std::uint32_t cell,
                 std::int32_t value) {
    auto r = Call<bool>(tx, "Forward", [this, tx, target, cell, value]() -> Result<bool> {
      server::Tx hop{tx.tid, tx.top, node_id(), &cm()};
      Status s = target->SetCell(hop, cell, value);
      if (s != Status::kOk) {
        return s;
      }
      return true;
    });
    return r.ok() ? Status::kOk : r.status();
  }
};

class InDoubtTest : public ::testing::Test {
 protected:
  explicit InDoubtTest(const WorldOptions& opt = TwoPhaseOptions()) : world_(3, opt) {
    world_.AddServerOf<ArrayServer>(1, "a1", 8u);
    world_.AddServerOf<ArrayServer>(2, "a2", 8u);
    world_.AddServerOf<ArrayServer>(3, "a3", 8u);
  }

  // Servers are looked up on every use: recovery rebuilds a node's servers.
  ArrayServer* array(NodeId n) {
    static const char* const kNames[] = {"", "a1", "a2", "a3"};
    return world_.Server<ArrayServer>(n, kNames[n]);
  }

  // Writes n into cell 0 of node n's array for n = 1..3, from node 1.
  Status WriteAll(Application& app) {
    return app.Transaction([&](const server::Tx& tx) {
      for (NodeId n = 1; n <= 3; ++n) {
        Status s = array(n)->SetCell(tx, 0, static_cast<std::int32_t>(n));
        if (s != Status::kOk) {
          return s;
        }
      }
      return Status::kOk;
    });
  }

  // Cell 0 of every node's array, read in a fresh transaction.
  std::vector<std::int32_t> ReadAll(NodeId from) {
    std::vector<std::int32_t> out;
    world_.RunApp(from, [&](Application& app) {
      app.Transaction([&](const server::Tx& tx) {
        for (NodeId n = 1; n <= 3; ++n) {
          auto v = array(n)->GetCell(tx, 0);
          EXPECT_TRUE(v.ok()) << "node " << n;
          out.push_back(v.ok() ? v.value() : -1);
        }
        return Status::kOk;
      });
    });
    return out;
  }

  World world_;
};

TEST_F(InDoubtTest, UndecidedParentAnswersNotDecided) {
  // Tree 1 -> 2 -> 3: node 2 writes its own cell and relays node 3's write.
  auto* relay = world_.AddServerOf<RelayServer>(2, "relay");
  world_.network().SetDatagramLoss([](NodeId from, NodeId to, const std::string& what) {
    return from == 1 && to == 2 && what == "2pc-commit";
  });
  Status outcome = Status::kInternal;
  world_.RunApp(1, [&](Application& app) {
    outcome = app.Transaction([&](const server::Tx& tx) {
      Status s = array(1)->SetCell(tx, 0, 1);
      if (s == Status::kOk) {
        s = array(2)->SetCell(tx, 0, 2);
      }
      return s == Status::kOk ? relay->Forward(tx, array(3), 0, 3) : s;
    });
  });
  ASSERT_EQ(outcome, Status::kOk);
  world_.network().SetDatagramLoss({});
  ASSERT_EQ(world_.tm(2).InDoubt().size(), 1u);
  ASSERT_EQ(world_.tm(3).InDoubt().size(), 1u);
  const TransactionId tid = world_.tm(3).InDoubt()[0];

  world_.RunApp(1, [&](Application&) {
    // Node 3's parent is node 2, which is in doubt itself: no verdict yet.
    EXPECT_EQ(world_.tm(3).ResolveInDoubt(tid), Status::kNodeDown);
    // Node 2 learns the commit from the root and passes it down.
    EXPECT_EQ(world_.tm(2).ResolveInDoubt(tid), Status::kOk);
  });
  EXPECT_TRUE(world_.tm(3).InDoubt().empty());
  EXPECT_EQ(ReadAll(1), (std::vector<std::int32_t>{1, 2, 3}));
}

TEST_F(InDoubtTest, RelayOnlyPrepareSurvivesReclamationAndCrash) {
  // Tree 1 -> 2 -> 3, but node 2 writes nothing: its prepare record is the
  // only record it holds for the transaction.
  auto* relay = world_.AddServerOf<RelayServer>(2, "relay");
  world_.network().SetDatagramLoss([](NodeId from, NodeId to, const std::string& what) {
    return from == 1 && to == 2 && what == "2pc-commit";
  });
  Status outcome = Status::kInternal;
  world_.RunApp(1, [&](Application& app) {
    outcome = app.Transaction([&](const server::Tx& tx) {
      Status s = array(1)->SetCell(tx, 0, 1);
      return s == Status::kOk ? relay->Forward(tx, array(3), 0, 3) : s;
    });
  });
  ASSERT_EQ(outcome, Status::kOk);
  world_.network().SetDatagramLoss({});
  ASSERT_EQ(world_.tm(2).InDoubt().size(), 1u);
  const TransactionId tid = world_.tm(2).InDoubt()[0];
  ASSERT_TRUE(world_.rm(2).UndoListOf(tid).empty());

  // Reclamation keeps the prepare record, and recovery re-creates the entry.
  world_.RunApp(2, [&](Application&) { world_.ReclaimLog(2); });
  world_.RunApp(3, [&](Application&) {
    world_.CrashNode(2);
    world_.RecoverNode(2, /*resolve_in_doubt=*/false);
  });
  ASSERT_EQ(world_.tm(2).InDoubt(), std::vector<TransactionId>{tid});

  world_.RunApp(3, [&](Application&) {
    // Undecided at node 2, not forgotten: node 3 may not presume abort.
    EXPECT_EQ(world_.tm(3).ResolveInDoubt(tid), Status::kNodeDown);
    EXPECT_EQ(world_.tm(2).ResolveInDoubt(tid), Status::kOk);
    // Node 2 passed the commit down: node 3 has nothing left to resolve.
    EXPECT_EQ(world_.tm(3).ResolveInDoubt(tid), Status::kNotFound);
  });
  EXPECT_TRUE(world_.tm(2).InDoubt().empty());
  EXPECT_TRUE(world_.tm(3).InDoubt().empty());
  EXPECT_EQ(ReadAll(1), (std::vector<std::int32_t>{1, 0, 3}));
}

TEST_F(InDoubtTest, RecoveredRelayPassesPresumedAbortDown) {
  // Tree 1 -> 2 -> 3 with a relay-only node 2, and the root writes nothing
  // either. The root dies before its commit record, so it forgets the
  // transaction and presumes abort.
  auto* relay = world_.AddServerOf<RelayServer>(2, "relay");
  world_.faults().ArmCrash("2pc.commit.before_record");
  world_.RunApp(1, [&](Application& app) {
    app.Transaction(
        [&](const server::Tx& tx) { return relay->Forward(tx, array(3), 0, 3); });
  });
  ASSERT_TRUE(world_.faults().crash_fired());
  world_.faults().Disarm();
  ASSERT_EQ(world_.tm(2).InDoubt().size(), 1u);
  const TransactionId tid = world_.tm(2).InDoubt()[0];
  ASSERT_EQ(world_.tm(3).InDoubt(), std::vector<TransactionId>{tid});

  world_.RunApp(2, [&](Application&) { world_.ReclaimLog(2); });
  world_.RunApp(3, [&](Application&) {
    world_.CrashNode(2);
    world_.RecoverNode(2, /*resolve_in_doubt=*/false);
    world_.RecoverNode(1);
  });
  ASSERT_EQ(world_.tm(2).InDoubt(), std::vector<TransactionId>{tid});
  ASSERT_EQ(array(3)->locks().LockedObjectCount(), 1u);

  world_.RunApp(2, [&](Application&) {
    EXPECT_EQ(world_.tm(2).ResolveInDoubt(tid), Status::kAborted);
  });
  // Node 2 passed the abort down: node 3 never asked anyone.
  EXPECT_TRUE(world_.tm(3).InDoubt().empty());
  EXPECT_EQ(array(3)->locks().LockedObjectCount(), 0u);
  EXPECT_EQ(ReadAll(2), (std::vector<std::int32_t>{0, 0, 0}));
}

TEST_F(InDoubtTest, UndecidedRootAnswersNotDecided) {
  // Node 3's vote is late; meanwhile node 2, already prepared, crashes and
  // recovers, and asks the root, which is still collecting votes.
  world_.faults().ArmDelay("2pc.vote.before_record", 5'000'000, 2);
  Status end = Status::kInternal;
  Status resolved = Status::kInternal;
  world_.SpawnApp(1, "root", [&](Application& app) { end = WriteAll(app); });
  world_.SpawnApp(
      3, "crasher",
      [&](Application&) {
        world_.CrashNode(2);
        world_.RecoverNode(2, /*resolve_in_doubt=*/false);
        auto in_doubt = world_.tm(2).InDoubt();
        ASSERT_EQ(in_doubt.size(), 1u);
        resolved = world_.tm(2).ResolveInDoubt(in_doubt[0]);
      },
      /*start_time=*/2'000'000);
  EXPECT_EQ(world_.Drain(), 0);
  world_.faults().Disarm();
  EXPECT_EQ(resolved, Status::kNodeDown);
  EXPECT_EQ(end, Status::kOk);
  EXPECT_TRUE(world_.tm(2).InDoubt().empty());
  EXPECT_EQ(ReadAll(1), (std::vector<std::int32_t>{1, 2, 3}));
}

TEST_F(InDoubtTest, RecoveredInDoubtRecordsSurviveReclamation) {
  // The root dies before its commit record: nodes 2 and 3 stay prepared.
  world_.faults().ArmCrash("2pc.commit.before_record");
  world_.RunApp(1, [&](Application& app) { WriteAll(app); });
  ASSERT_TRUE(world_.faults().crash_fired());
  world_.faults().Disarm();

  TransactionId tid;
  std::vector<Lsn> undo;
  world_.RunApp(3, [&](Application&) {
    world_.CrashNode(2);
    world_.RecoverNode(2);  // the root is down and node 3 is in doubt too
    ASSERT_EQ(world_.tm(2).InDoubt().size(), 1u);
    tid = world_.tm(2).InDoubt()[0];
    undo = world_.rm(2).UndoListOf(tid);
  });
  ASSERT_FALSE(undo.empty());

  world_.RunApp(2, [&](Application& app) {
    for (std::uint32_t cell = 1; cell <= 5; ++cell) {
      EXPECT_EQ(app.Transaction([&](const server::Tx& tx) {
        return array(2)->SetCell(tx, cell, static_cast<std::int32_t>(cell));
      }),
                Status::kOk);
    }
    world_.ReclaimLog(2);
  });
  for (Lsn lsn : undo) {
    EXPECT_TRUE(world_.rm(2).log().ReadRecord(lsn).has_value()) << "lsn " << lsn;
  }

  world_.RunApp(3, [&](Application&) {
    world_.CrashNode(2);
    world_.RecoverNode(2, /*resolve_in_doubt=*/false);
  });
  EXPECT_EQ(world_.tm(2).InDoubt(), std::vector<TransactionId>{tid});

  world_.RunApp(3, [&](Application&) {
    world_.RecoverNode(1);
    for (NodeId n = 2; n <= 3; ++n) {
      for (const TransactionId& t : world_.tm(n).InDoubt()) {
        EXPECT_EQ(world_.tm(n).ResolveInDoubt(t), Status::kAborted);
      }
    }
  });
  EXPECT_EQ(ReadAll(3), (std::vector<std::int32_t>{0, 0, 0}));
}

TEST_F(InDoubtTest, RecoveredUndoListSkipsAbortedSubtransaction) {
  // P writes a1; its subtransaction writes a2 cell 1 and aborts, which
  // compensates that write at node 2. T2 then commits cell 1 = 77, P writes
  // a2 cell 0, and the root dies before its commit record.
  TransactionId p;
  world_.RunApp(1, [&](Application& app) {
    p = app.Begin();
    ASSERT_EQ(array(1)->SetCell(app.MakeTx(p), 0, 1), Status::kOk);
    TransactionId child = app.Begin(p);
    ASSERT_EQ(array(2)->SetCell(app.MakeTx(child), 1, 11), Status::kOk);
    app.Abort(child);
    ASSERT_EQ(app.Transaction([&](const server::Tx& tx) { return array(2)->SetCell(tx, 1, 77); }),
              Status::kOk);
    ASSERT_EQ(array(2)->SetCell(app.MakeTx(p), 0, 2), Status::kOk);
    world_.faults().ArmCrash("2pc.commit.before_record");
    app.End(p);
  });
  ASSERT_TRUE(world_.faults().crash_fired());
  world_.faults().Disarm();
  const std::vector<Lsn> live = world_.rm(2).UndoListOf(p);
  ASSERT_EQ(live.size(), 1u);

  auto read_cell1 = [&] {
    std::int32_t value = -1;
    world_.RunApp(2, [&](Application& app) {
      EXPECT_EQ(app.Transaction([&](const server::Tx& tx) {
        auto v = array(2)->GetCell(tx, 1);
        value = v.ok() ? v.value() : -1;
        return v.status();
      }),
                Status::kOk);
    });
    return value;
  };
  world_.RunApp(3, [&](Application&) {
    world_.CrashNode(2);
    world_.RecoverNode(2, /*resolve_in_doubt=*/false);
  });
  ASSERT_EQ(world_.tm(2).InDoubt(), std::vector<TransactionId>{p});
  // Recovery rebuilds the list the live node held: the subtransaction's
  // write was rolled back before the prepare, so it neither relocks cell 1
  // nor is undone a second time by the verdict.
  EXPECT_EQ(world_.rm(2).UndoListOf(p), live);
  EXPECT_EQ(read_cell1(), 77);

  world_.RunApp(2, [&](Application&) {
    world_.RecoverNode(1);
    EXPECT_EQ(world_.tm(2).ResolveInDoubt(p), Status::kAborted);
  });
  EXPECT_EQ(read_cell1(), 77);
  EXPECT_EQ(ReadAll(2), (std::vector<std::int32_t>{0, 0, 0}));
}

TEST_F(InDoubtTest, RecoveredOperationUndoListConservesMoney) {
  // The operation-logged shape of the case above: undoing the aborted
  // subtransaction's deposit a second time would destroy money.
  world_.AddServerOf<servers::AccountServer>(2, "bank", 4u);
  auto bank = [&] { return world_.Server<servers::AccountServer>(2, "bank"); };
  TransactionId p;
  world_.RunApp(1, [&](Application& app) {
    ASSERT_EQ(app.Transaction([&](const server::Tx& tx) {
      Status s = bank()->Deposit(tx, 0, 100);
      return s == Status::kOk ? bank()->Deposit(tx, 1, 100) : s;
    }),
              Status::kOk);
    p = app.Begin();
    ASSERT_EQ(array(1)->SetCell(app.MakeTx(p), 0, 1), Status::kOk);
    TransactionId child = app.Begin(p);
    ASSERT_EQ(bank()->Deposit(app.MakeTx(child), 1, 10), Status::kOk);
    app.Abort(child);
    ASSERT_EQ(app.Transaction([&](const server::Tx& tx) { return bank()->Deposit(tx, 1, 7); }),
              Status::kOk);
    ASSERT_EQ(bank()->Withdraw(app.MakeTx(p), 0, 5), Status::kOk);
    world_.faults().ArmCrash("2pc.commit.before_record");
    app.End(p);
  });
  ASSERT_TRUE(world_.faults().crash_fired());
  world_.faults().Disarm();
  const std::vector<Lsn> live = world_.rm(2).UndoListOf(p);
  ASSERT_EQ(live.size(), 1u);

  world_.RunApp(3, [&](Application&) {
    world_.CrashNode(2);
    world_.RecoverNode(2, /*resolve_in_doubt=*/false);
  });
  EXPECT_EQ(world_.rm(2).UndoListOf(p), live);
  world_.RunApp(2, [&](Application& app) {
    world_.RecoverNode(1);
    EXPECT_EQ(world_.tm(2).ResolveInDoubt(p), Status::kAborted);
    std::int64_t total = 0;
    EXPECT_EQ(app.Transaction([&](const server::Tx& tx) {
      for (std::uint32_t account = 0; account < 4; ++account) {
        auto b = bank()->ReadBalance(tx, account);
        if (!b.ok()) {
          return b.status();
        }
        total += b.value();
      }
      return Status::kOk;
    }),
              Status::kOk);
    // Only the two committed transactions' deposits remain.
    EXPECT_EQ(total, 207);
  });
}

// Each node keeps one record of the spanning tree, written at first contact:
// a call back into the root, or a second caller of a node, adds no parent,
// and only a node's tree parent prepares it. Follows the commit mode of the
// run.
class TreeShapeTest : public InDoubtTest {
 protected:
  TreeShapeTest() : InDoubtTest(WorldOptions()) {}

  // The records of `type` node `n`'s log holds for `tid`, unforced ones
  // included: the log is forced first.
  std::vector<log::LogRecord> RecordsAt(NodeId n, const TransactionId& tid,
                                        log::RecordType type) {
    std::vector<log::LogRecord> out;
    log::LogManager& log = world_.rm(n).log();
    world_.RunApp(n, [&](Application&) { log.ForceAll(); });
    for (Lsn lsn = log.first_lsn(); lsn != kNullLsn; lsn = log.NextLsn(lsn)) {
      auto rec = log.ReadRecord(lsn);
      if (rec.has_value() && rec->type == type && rec->top == tid) {
        out.push_back(*rec);
      }
    }
    return out;
  }

  // From now on every datagram arrives twice.
  void DuplicateEveryDatagram() {
    comm::Network::DatagramFaults faults;
    faults.seed = 1;
    faults.duplicate_probability = 1;
    world_.network().SetDatagramFaults(faults);
  }
};

TEST_F(TreeShapeTest, CallbackToRootCommits) {
  // Node 1 writes at node 2, whose relay then writes node 1's own array: a
  // call back into the root, which stays the root.
  auto* relay = world_.AddServerOf<RelayServer>(2, "relay");
  Status end = Status::kInternal;
  world_.RunApp(1, [&](Application& app) {
    TransactionId t = app.Begin();
    server::Tx tx = app.MakeTx(t);
    ASSERT_EQ(array(2)->SetCell(tx, 0, 2), Status::kOk);
    ASSERT_EQ(relay->Forward(tx, array(1), 0, 1), Status::kOk);
    end = app.End(t);
  });
  EXPECT_EQ(end, Status::kOk);
  for (NodeId n = 1; n <= 3; ++n) {
    EXPECT_TRUE(world_.tm(n).InDoubt().empty()) << "node " << n;
  }
  EXPECT_EQ(ReadAll(2), (std::vector<std::int32_t>{1, 2, 0}));
}

TEST_F(TreeShapeTest, NodeReachedTwicePreparesOnceForItsParent) {
  // Node 1 writes at node 3, then node 2's relay writes there too: node 3's
  // parent is node 1, though node 2 lists node 3 as its child as well.
  auto* relay = world_.AddServerOf<RelayServer>(2, "relay");
  TransactionId t;
  Status end = Status::kInternal;
  world_.RunApp(1, [&](Application& app) {
    t = app.Begin();
    server::Tx tx = app.MakeTx(t);
    ASSERT_EQ(array(3)->SetCell(tx, 1, 5), Status::kOk);
    ASSERT_EQ(relay->Forward(tx, array(3), 0, 3), Status::kOk);
    end = app.End(t);
  });
  EXPECT_EQ(end, Status::kOk);
  const std::vector<log::LogRecord> prepares = RecordsAt(3, t, log::RecordType::kTxnPrepare);
  ASSERT_EQ(prepares.size(), 1u);
  EXPECT_EQ(prepares[0].parent_node, 1u);
  if (WorldOptions().commit_mode == txn::CommitMode::kPaxosCommit) {
    // The leader's acceptor set, which a prepare from node 2 would not carry.
    EXPECT_EQ(prepares[0].acceptors, (std::vector<NodeId>{1, 2, 3}));
  } else {
    EXPECT_TRUE(prepares[0].acceptors.empty());
  }
  EXPECT_TRUE(world_.tm(3).InDoubt().empty());
  EXPECT_EQ(ReadAll(1), (std::vector<std::int32_t>{0, 0, 3}));
}

TEST_F(TreeShapeTest, RepeatedCommitRunsARelaysPhaseTwoOnce) {
  // Tree 1 -> 2 -> 3: node 2 writes its own cell and relays node 3's write.
  // The repeated commit reaches node 2 while it waits for node 3's ack.
  auto* relay = world_.AddServerOf<RelayServer>(2, "relay");
  TransactionId t;
  Status end = Status::kInternal;
  world_.RunApp(1, [&](Application& app) {
    t = app.Begin();
    server::Tx tx = app.MakeTx(t);
    ASSERT_EQ(array(1)->SetCell(tx, 0, 1), Status::kOk);
    ASSERT_EQ(array(2)->SetCell(tx, 0, 2), Status::kOk);
    ASSERT_EQ(relay->Forward(tx, array(3), 0, 3), Status::kOk);
    DuplicateEveryDatagram();
    end = app.End(t);
  });
  world_.network().SetDatagramFaults({});
  EXPECT_EQ(end, Status::kOk);
  for (NodeId n : {2, 3}) {
    EXPECT_EQ(RecordsAt(n, t, log::RecordType::kTxnCommit).size(), 1u) << "node " << n;
    EXPECT_TRUE(world_.tm(n).InDoubt().empty()) << "node " << n;
  }
  EXPECT_EQ(ReadAll(1), (std::vector<std::int32_t>{1, 2, 3}));
}

TEST_F(TreeShapeTest, RepeatedAckCannotStandInForALostOne) {
  // Node 3's ack is lost and node 2's arrives twice: the root must not count
  // node 2 twice and write an end record node 3 never acknowledged.
  world_.network().SetDatagramLoss([](NodeId from, NodeId, const std::string& what) {
    return from == 3 && what == "2pc-ack";
  });
  TransactionId t;
  Status end = Status::kInternal;
  world_.RunApp(1, [&](Application& app) {
    t = app.Begin();
    server::Tx tx = app.MakeTx(t);
    ASSERT_EQ(array(2)->SetCell(tx, 0, 2), Status::kOk);
    ASSERT_EQ(array(3)->SetCell(tx, 0, 3), Status::kOk);
    DuplicateEveryDatagram();
    end = app.End(t);
  });
  world_.network().SetDatagramFaults({});
  world_.network().SetDatagramLoss({});
  EXPECT_EQ(end, Status::kOk);
  EXPECT_TRUE(RecordsAt(1, t, log::RecordType::kTxnEnd).empty());
  EXPECT_EQ(RecordsAt(3, t, log::RecordType::kTxnCommit).size(), 1u);
  EXPECT_EQ(ReadAll(1), (std::vector<std::int32_t>{0, 2, 3}));
}

TEST_F(TreeShapeTest, StalePrepareTaskLeavesTheNextEntryOnItsNodeAlone) {
  // Tree 1 -> 2 -> 3 with node 3's vote lost. The root gives up first and
  // aborts T1, and node 2 forgets T1 while its prepare task still waits for
  // that vote. T2 then reaches node 2, whose entry takes T1's node, and is
  // still running when the stale task wakes.
  constexpr SimTime kRootTimeout = 1'000'000;
  constexpr SimTime kRelayTimeout = 5'000'000;
  auto* relay = world_.AddServerOf<RelayServer>(2, "relay");
  world_.tm(1).SetVoteTimeout(kRootTimeout);
  world_.tm(2).SetVoteTimeout(kRelayTimeout);
  world_.network().SetDatagramLoss([](NodeId from, NodeId, const std::string& what) {
    return from == 3 && what == "2pc-vote";
  });
  TransactionId t2;
  Status end1 = Status::kInternal;
  Status end2 = Status::kInternal;
  int blocked = world_.RunApp(1, [&](Application& app) {
    TransactionId t1 = app.Begin();
    server::Tx tx1 = app.MakeTx(t1);
    ASSERT_EQ(array(2)->SetCell(tx1, 0, 2), Status::kOk);
    ASSERT_EQ(relay->Forward(tx1, array(3), 0, 3), Status::kOk);
    end1 = app.End(t1);
    world_.network().SetDatagramLoss({});

    t2 = app.Begin();
    server::Tx tx2 = app.MakeTx(t2);
    ASSERT_EQ(array(2)->SetCell(tx2, 1, 5), Status::kOk);
    ASSERT_EQ(relay->Forward(tx2, array(3), 1, 6), Status::kOk);
    world_.scheduler().Charge(kRelayTimeout);
    world_.scheduler().Yield();  // the stale task wakes
    end2 = app.End(t2);
  });
  EXPECT_EQ(blocked, 0);
  EXPECT_NE(end1, Status::kOk);
  EXPECT_EQ(end2, Status::kOk);
  EXPECT_TRUE(RecordsAt(2, t2, log::RecordType::kTxnAbort).empty());
  for (NodeId n = 1; n <= 3; ++n) {
    EXPECT_TRUE(world_.tm(n).InDoubt().empty()) << "node " << n;
  }
  world_.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      for (NodeId n : {2, 3}) {
        Result<std::int32_t> cell0 = array(n)->GetCell(tx, 0);
        Result<std::int32_t> cell1 = array(n)->GetCell(tx, 1);
        EXPECT_TRUE(cell0.ok() && cell1.ok()) << "node " << n;
        if (cell0.ok() && cell1.ok()) {
          EXPECT_EQ(cell0.value(), 0) << "node " << n << ": T1 aborted";
          EXPECT_EQ(cell1.value(), n == 2 ? 5 : 6) << "node " << n << ": T2 committed";
        }
      }
      return Status::kOk;
    });
  });
}

// Follows the commit mode of the run: the verdict is learned from the root
// under 2PC and from the acceptors under Paxos Commit.
class SingleServerInDoubtTest : public InDoubtTest {
 protected:
  SingleServerInDoubtTest() : InDoubtTest(WorldOptions()) {}
};

TEST_F(SingleServerInDoubtTest, VerdictReleasesLockRetakenByServerRecovery) {
  world_.network().SetDatagramLoss([](NodeId, NodeId to, const std::string& what) {
    return to == 2 && (what == "2pc-commit" || what == "paxos-verdict");
  });
  Status outcome = Status::kInternal;
  world_.RunApp(1, [&](Application& app) { outcome = WriteAll(app); });
  ASSERT_EQ(outcome, Status::kOk);
  world_.network().SetDatagramLoss({});
  ASSERT_EQ(world_.tm(2).InDoubt().size(), 1u);
  const TransactionId tid = world_.tm(2).InDoubt()[0];

  world_.RunApp(2, [&](Application&) {
    world_.CrashServer(2, "a2");
    world_.RecoverServer(2, "a2");
    EXPECT_EQ(world_.tm(2).ResolveInDoubt(tid), Status::kOk);
  });
  EXPECT_EQ(array(2)->locks().LockedObjectCount(), 0u);
  EXPECT_EQ(ReadAll(1), (std::vector<std::int32_t>{1, 2, 3}));
}

}  // namespace
}  // namespace tabs
