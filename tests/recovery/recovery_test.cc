// Crash-recovery tests: value logging (single backward pass), operation
// logging (three passes, page-sequence-number guard, and the span each pass
// reads), abort processing with compensation, checkpoints and reclamation.

#include "src/recovery/recovery_manager.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "src/kernel/node.h"

namespace tabs::recovery {
namespace {

using log::LogRecord;
using log::RecordType;

constexpr SegmentId kSeg = 1;
constexpr char kServer[] = "srv";

// A stand-in for the Transaction Manager's recovery side.
class TestOutcomes : public TxnOutcomeSource {
 public:
  void ObserveTxnRecord(const LogRecord& rec) override {
    switch (rec.type) {
      case RecordType::kTxnCommit:
        state_[rec.top] = TxnOutcome::kCommitted;
        break;
      case RecordType::kTxnAbort:
        state_[rec.top] = TxnOutcome::kAborted;
        break;
      case RecordType::kTxnPrepare:
        if (!state_.contains(rec.top)) {
          state_[rec.top] = TxnOutcome::kPrepared;
        }
        break;
      default:
        break;
    }
  }
  TxnOutcome OutcomeOf(const TransactionId& top) override {
    auto it = state_.find(top);
    return it == state_.end() ? TxnOutcome::kActive : it->second;
  }

 private:
  std::map<TransactionId, TxnOutcome> state_;
};

// One volatile "epoch" of a node: everything a crash destroys.
struct Epoch {
  Epoch(kernel::Node& node, PageNumber pages = 16, size_t frames = 8)
      : rm(node), seg(node.substrate(), node.disk(), kSeg, pages, frames) {
    rm.RegisterSegment(kServer, &seg);
  }
  RecoveryManager rm;
  kernel::RecoverableSegment seg;
};

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest()
      : substrate_(sched_, sim::CostModel::Baseline(), sim::ArchitectureModel::Prototype()),
        node_(1, substrate_) {}

  void RunInTask(std::function<void()> fn) {
    sched_.Spawn("test", 1, 0, std::move(fn));
    ASSERT_EQ(sched_.Run(), 0);
  }

  // Server-library-shaped write: pin, log old/new (which applies), unpin.
  static void WriteValue(Epoch& e, const TransactionId& tid, const ObjectId& oid,
                         Bytes new_value) {
    e.seg.Pin(oid);
    Bytes old_value = e.seg.Read(oid);
    e.rm.LogValue(tid, tid, kServer, oid, std::move(old_value), std::move(new_value));
    e.seg.Unpin(oid);
  }

  static void Commit(Epoch& e, const TransactionId& tid) {
    LogRecord rec;
    rec.type = RecordType::kTxnCommit;
    rec.owner = tid;
    rec.top = tid;
    e.rm.log().Append(std::move(rec));
    e.rm.log().ForceAll();
    e.rm.ForgetTransaction(tid);
  }

  // Records from `from` to the end of the stable log.
  static int RecordsFrom(Epoch& e, Lsn from) {
    int n = 0;
    for (Lsn lsn = from; lsn != kNullLsn; lsn = e.rm.log().NextLsn(lsn)) {
      ++n;
    }
    return n;
  }

  // The sequential reads a scan from `from` to the end of the stable log
  // is charged: one per 512-byte page.
  double PagesFrom(Lsn from) {
    return static_cast<double>((node_.stable_log().size() - (from - 1) + kPageSize - 1) /
                               kPageSize);
  }

  double SequentialReads() {
    return substrate_.metrics().Total().Of(sim::Primitive::kSequentialRead);
  }

  sim::Scheduler sched_;
  sim::Substrate substrate_;
  kernel::Node node_;
};

TEST_F(RecoveryTest, CommittedValueSurvivesCrash) {
  ObjectId oid{kSeg, 0, 4};
  TransactionId t{1, 1};
  RunInTask([&] {
    Epoch before(node_);
    WriteValue(before, t, oid, {1, 2, 3, 4});
    Commit(before, t);
    // Crash: volatile frames never reached disk.
    Epoch after(node_);
    TestOutcomes outcomes;
    RecoveryStats stats = after.rm.Recover(outcomes);
    EXPECT_EQ(stats.passes, 1);  // value-only log: single pass
    EXPECT_EQ(after.seg.Read(oid), (Bytes{1, 2, 3, 4}));
    EXPECT_TRUE(stats.losers.empty());
  });
}

TEST_F(RecoveryTest, UncommittedValueRolledBack) {
  ObjectId oid{kSeg, 0, 4};
  TransactionId t{1, 1};
  RunInTask([&] {
    Epoch before(node_);
    WriteValue(before, t, oid, {7, 7, 7, 7});
    before.rm.log().ForceAll();  // records durable, but no commit record
    before.seg.FlushAll();       // dirty page even reached the disk
    Epoch after(node_);
    TestOutcomes outcomes;
    RecoveryStats stats = after.rm.Recover(outcomes);
    EXPECT_EQ(after.seg.Read(oid), (Bytes{0, 0, 0, 0}));
    ASSERT_EQ(stats.losers.size(), 1u);
    EXPECT_EQ(stats.losers[0], t);
  });
}

TEST_F(RecoveryTest, UnforcedCommittedUpdatesAreSimplyGone) {
  // No force, no flush: WAL means the disk was never touched, so recovery
  // has nothing to do and the transaction never happened.
  ObjectId oid{kSeg, 0, 4};
  TransactionId t{1, 1};
  RunInTask([&] {
    {
      Epoch before(node_);
      WriteValue(before, t, oid, {9, 9, 9, 9});
      // commit record appended but NOT forced:
      LogRecord rec;
      rec.type = RecordType::kTxnCommit;
      rec.owner = t;
      rec.top = t;
      before.rm.log().Append(std::move(rec));
    }
    Epoch after(node_);
    TestOutcomes outcomes;
    after.rm.Recover(outcomes);
    EXPECT_EQ(after.seg.Read(oid), (Bytes{0, 0, 0, 0}));
  });
}

TEST_F(RecoveryTest, InterleavedWinnersAndLosers) {
  ObjectId a{kSeg, 0, 4}, b{kSeg, 4, 4}, c{kSeg, 8, 4};
  TransactionId t1{1, 1}, t2{1, 2}, t3{1, 3};
  RunInTask([&] {
    Epoch before(node_);
    WriteValue(before, t1, a, {1, 1, 1, 1});
    WriteValue(before, t2, b, {2, 2, 2, 2});
    WriteValue(before, t1, c, {3, 3, 3, 3});
    Commit(before, t1);
    WriteValue(before, t3, a, {4, 4, 4, 4});  // t3 overwrites committed t1 data
    before.rm.log().ForceAll();
    before.seg.FlushAll();
    Epoch after(node_);
    TestOutcomes outcomes;
    after.rm.Recover(outcomes);
    EXPECT_EQ(after.seg.Read(a), (Bytes{1, 1, 1, 1}));  // t3 undone back to t1's commit
    EXPECT_EQ(after.seg.Read(b), (Bytes{0, 0, 0, 0}));  // t2 never committed
    EXPECT_EQ(after.seg.Read(c), (Bytes{3, 3, 3, 3}));  // t1 committed
  });
}

TEST_F(RecoveryTest, MultiRecordLoserUnwindsToOldest) {
  ObjectId oid{kSeg, 0, 4};
  TransactionId t{1, 1};
  RunInTask([&] {
    Epoch before(node_);
    WriteValue(before, t, oid, {1, 0, 0, 0});
    WriteValue(before, t, oid, {2, 0, 0, 0});
    WriteValue(before, t, oid, {3, 0, 0, 0});
    before.rm.log().ForceAll();
    before.seg.FlushAll();
    Epoch after(node_);
    TestOutcomes outcomes;
    after.rm.Recover(outcomes);
    EXPECT_EQ(after.seg.Read(oid), (Bytes{0, 0, 0, 0}));
  });
}

TEST_F(RecoveryTest, NormalAbortRestoresAndCompensates) {
  ObjectId oid{kSeg, 0, 4};
  TransactionId t{1, 1};
  RunInTask([&] {
    Epoch e(node_);
    WriteValue(e, t, oid, {5, 5, 5, 5});
    WriteValue(e, t, oid, {6, 6, 6, 6});
    e.rm.UndoTransaction(t);
    EXPECT_EQ(e.seg.Read(oid), (Bytes{0, 0, 0, 0}));
  });
}

TEST_F(RecoveryTest, CrashAfterDurableAbortStaysRolledBack) {
  ObjectId oid{kSeg, 0, 4};
  TransactionId t{1, 1};
  RunInTask([&] {
    Epoch before(node_);
    WriteValue(before, t, oid, {5, 5, 5, 5});
    before.rm.UndoTransaction(t);
    LogRecord rec;
    rec.type = RecordType::kTxnAbort;
    rec.owner = t;
    rec.top = t;
    before.rm.log().Append(std::move(rec));
    before.rm.log().ForceAll();
    before.seg.FlushAll();
    Epoch after(node_);
    TestOutcomes outcomes;
    after.rm.Recover(outcomes);
    EXPECT_EQ(after.seg.Read(oid), (Bytes{0, 0, 0, 0}));
  });
}

TEST_F(RecoveryTest, AbortedSubtransactionInsideCommittedParent) {
  ObjectId a{kSeg, 0, 4}, b{kSeg, 4, 4};
  TransactionId parent{1, 1}, child{1, 2};
  RunInTask([&] {
    Epoch e(node_);
    // Parent writes a; child writes b then aborts independently; parent
    // commits. b must stay rolled back, a must survive.
    e.seg.Pin(a);
    e.rm.LogValue(parent, parent, kServer, a, e.seg.Read(a), {1, 1, 1, 1});
    e.seg.Unpin(a);
    e.seg.Pin(b);
    e.rm.LogValue(child, parent, kServer, b, e.seg.Read(b), {2, 2, 2, 2});
    e.seg.Unpin(b);
    e.rm.UndoTransaction(child);  // subtransaction aborts alone
    Commit(e, parent);
    e.rm.log().ForceAll();
    Epoch after(node_);
    TestOutcomes outcomes;
    after.rm.Recover(outcomes);
    EXPECT_EQ(after.seg.Read(a), (Bytes{1, 1, 1, 1}));
    EXPECT_EQ(after.seg.Read(b), (Bytes{0, 0, 0, 0}));
  });
}

TEST_F(RecoveryTest, CommittedSubtransactionRollsBackWithAbortedParent) {
  ObjectId b{kSeg, 4, 4};
  TransactionId parent{1, 1}, child{1, 2};
  RunInTask([&] {
    Epoch e(node_);
    e.seg.Pin(b);
    e.rm.LogValue(child, parent, kServer, b, e.seg.Read(b), {2, 2, 2, 2});
    e.seg.Unpin(b);
    e.rm.MergeChild(child, parent);  // subtransaction committed into parent
    e.rm.UndoTransaction(parent);  // ...then the parent aborts
    EXPECT_EQ(e.seg.Read(b), (Bytes{0, 0, 0, 0}));
  });
}

TEST_F(RecoveryTest, UpdatesThreadPrevLsnThroughTheirUndoLists) {
  // Three owners interleave. Each update's prev_lsn is the previous entry of
  // its owner's undo list; once the child commits into the parent, the
  // parent's next update points at the merged tail.
  ObjectId a{kSeg, 0, 4}, b{kSeg, 4, 4}, c{kSeg, 8, 4};
  TransactionId parent{1, 1}, other{1, 2}, child{1, 3};
  RunInTask([&] {
    Epoch e(node_);
    auto write = [&](const TransactionId& owner, const TransactionId& top, const ObjectId& oid,
                     std::uint8_t v) {
      e.seg.Pin(oid);
      Lsn lsn = e.rm.LogValue(owner, top, kServer, oid, e.seg.Read(oid), {v, v, v, v});
      e.seg.Unpin(oid);
      return lsn;
    };
    auto prev_of = [&](Lsn lsn) {
      auto rec = e.rm.log().ReadRecord(lsn);
      EXPECT_TRUE(rec.has_value());
      return rec.has_value() ? rec->prev_lsn : kNullLsn;
    };
    const Lsn p1 = write(parent, parent, a, 1);
    const Lsn o1 = write(other, other, b, 2);
    const Lsn c1 = write(child, parent, c, 3);
    const Lsn p2 = write(parent, parent, a, 4);
    const Lsn o2 = write(other, other, b, 5);
    const Lsn c2 = write(child, parent, c, 6);
    EXPECT_EQ(prev_of(p1), kNullLsn);
    EXPECT_EQ(prev_of(o1), kNullLsn);
    EXPECT_EQ(prev_of(c1), kNullLsn);
    EXPECT_EQ(prev_of(p2), p1);
    EXPECT_EQ(prev_of(o2), o1);
    EXPECT_EQ(prev_of(c2), c1);
    e.rm.MergeChild(child, parent);
    ASSERT_EQ(e.rm.UndoListOf(parent), (std::vector<Lsn>{p1, c1, p2, c2}));
    const Lsn p3 = write(parent, parent, a, 7);
    EXPECT_EQ(prev_of(p3), c2);
    // The parent's abort unwinds its merged list and leaves the other owner's.
    e.rm.UndoTransaction(parent);
    EXPECT_EQ(e.seg.Read(a), (Bytes{0, 0, 0, 0}));
    EXPECT_EQ(e.seg.Read(b), (Bytes{5, 5, 5, 5}));
    EXPECT_EQ(e.seg.Read(c), (Bytes{0, 0, 0, 0}));
  });
}

TEST_F(RecoveryTest, PreparedTransactionIsInDoubtAndKeepsValues) {
  ObjectId oid{kSeg, 0, 4};
  TransactionId t{1, 1};
  RunInTask([&] {
    Epoch before(node_);
    WriteValue(before, t, oid, {8, 8, 8, 8});
    LogRecord prep;
    prep.type = RecordType::kTxnPrepare;
    prep.owner = t;
    prep.top = t;
    before.rm.log().Append(std::move(prep));
    before.rm.log().ForceAll();
    Epoch after(node_);
    TestOutcomes outcomes;
    RecoveryStats stats = after.rm.Recover(outcomes);
    ASSERT_EQ(stats.in_doubt.size(), 1u);
    EXPECT_EQ(stats.in_doubt[0], t);
    EXPECT_EQ(after.seg.Read(oid), (Bytes{8, 8, 8, 8}));
    // Coordinator later says abort: the rebuilt undo list unwinds it.
    after.rm.UndoTransaction(t);
    EXPECT_EQ(after.seg.Read(oid), (Bytes{0, 0, 0, 0}));
  });
}

// ---------- operation logging ----------

// A tiny op-logged server: one u64 counter at offset 0, ops "add"/"sub".
struct CounterServer {
  explicit CounterServer(Epoch& e) : epoch(e) {
    OperationHooks hooks;
    hooks.apply = [this](const std::string& op, std::span<const std::uint8_t> args, Lsn lsn) {
      Apply(op, args, lsn);
    };
    epoch.rm.RegisterOperationHooks(kServer, hooks);
  }

  std::uint64_t Get() {
    Bytes v = epoch.seg.Read(Oid());
    std::uint64_t x;
    memcpy(&x, v.data(), 8);
    return x;
  }

  void Apply(const std::string& op, std::span<const std::uint8_t> args, Lsn lsn) {
    std::int64_t delta;
    memcpy(&delta, args.data(), 8);
    if (op == "sub") {
      delta = -delta;
    }
    std::uint64_t cur = Get();
    cur += static_cast<std::uint64_t>(delta);
    Bytes nv(8);
    memcpy(nv.data(), &cur, 8);
    epoch.seg.Pin(Oid());
    epoch.seg.Write(Oid(), nv, lsn);
    epoch.seg.Unpin(Oid());
  }

  Lsn Add(const TransactionId& tid, std::int64_t delta) { return Add(tid, tid, delta); }
  Lsn Add(const TransactionId& owner, const TransactionId& top, std::int64_t delta) {
    Bytes args(8);
    memcpy(args.data(), &delta, 8);
    return epoch.rm.LogOperation(owner, top, kServer, "add", args, "sub", args,
                                 std::vector<PageId>{{kSeg, 0}});
  }

  static ObjectId Oid() { return {kSeg, 0, 8}; }
  Epoch& epoch;
};

TEST_F(RecoveryTest, OperationLoggingForwardAndAbort) {
  TransactionId t{1, 1};
  RunInTask([&] {
    Epoch e(node_);
    CounterServer ctr(e);
    ctr.Add(t, 10);
    ctr.Add(t, 5);
    EXPECT_EQ(ctr.Get(), 15u);
    e.rm.UndoTransaction(t);
    EXPECT_EQ(ctr.Get(), 0u);
  });
}

TEST_F(RecoveryTest, RecycledUndoListStartsEmpty) {
  // t1's ended undo list is the one t2's first update reuses: t2's abort
  // must compensate its own update and nothing of t1's.
  TransactionId t1{1, 1};
  TransactionId t2{1, 2};
  RunInTask([&] {
    Epoch e(node_);
    CounterServer ctr(e);
    ctr.Add(t1, 1);
    ctr.Add(t1, 2);
    ctr.Add(t1, 4);
    Commit(e, t1);
    Lsn update = ctr.Add(t2, 8);
    EXPECT_EQ(e.rm.UndoListOf(t2), std::vector<Lsn>{update});
    e.rm.UndoTransaction(t2);
    e.rm.log().ForceAll();
    int compensations = 0;
    for (Lsn lsn = e.rm.log().first_lsn(); lsn != kNullLsn; lsn = e.rm.log().NextLsn(lsn)) {
      compensations += e.rm.log().ReadRecord(lsn)->type == RecordType::kOpCompensation;
    }
    EXPECT_EQ(compensations, 1);
    EXPECT_EQ(ctr.Get(), 7u);
  });
}

TEST_F(RecoveryTest, OperationRedoAfterCrashUsesThreePasses) {
  TransactionId t{1, 1};
  RunInTask([&] {
    Epoch before(node_);
    CounterServer ctr(before);
    ctr.Add(t, 10);
    ctr.Add(t, 7);
    Commit(before, t);
    // Crash without flushing: the counter page on disk is stale.
    Epoch after(node_);
    CounterServer ctr2(after);
    TestOutcomes outcomes;
    RecoveryStats stats = after.rm.Recover(outcomes);
    EXPECT_EQ(stats.passes, 3);
    EXPECT_EQ(stats.operations_redone, 2);
    EXPECT_EQ(ctr2.Get(), 17u);
  });
}

TEST_F(RecoveryTest, OperationLogWithoutLosersIsReadOnce) {
  RunInTask([&] {
    Epoch before(node_);
    CounterServer ctr(before);
    for (std::uint64_t i = 1; i <= 40; ++i) {
      TransactionId t{1, i};
      ctr.Add(t, 1);
      Commit(before, t);
    }
    Epoch after(node_);
    CounterServer ctr2(after);
    const int records = RecordsFrom(after, after.rm.log().first_lsn());
    const std::uint64_t retained = after.rm.StableLogBytesInUse();
    ASSERT_GT(retained, 2 * kPageSize);
    const double reads = SequentialReads();
    TestOutcomes outcomes;
    RecoveryStats stats = after.rm.Recover(outcomes);
    EXPECT_EQ(stats.passes, 3);
    EXPECT_TRUE(stats.losers.empty());
    // Redo rides the analysis read; with no losers and no value records
    // nothing reads the log again.
    EXPECT_EQ(stats.records_scanned, records);
    EXPECT_EQ(SequentialReads() - reads,
              static_cast<double>((retained + kPageSize - 1) / kPageSize));
    EXPECT_EQ(stats.operations_redone, 40);
    EXPECT_EQ(ctr2.Get(), 40u);
  });
}

TEST_F(RecoveryTest, UndoReadsBackOnlyToTheEarliestLoser) {
  TransactionId loser{1, 100};
  RunInTask([&] {
    Epoch before(node_);
    CounterServer ctr(before);
    auto commit_adds = [&](std::uint64_t from, std::uint64_t to) {
      for (std::uint64_t i = from; i <= to; ++i) {
        TransactionId t{1, i};
        ctr.Add(t, 1);
        Commit(before, t);
      }
    };
    commit_adds(1, 30);
    const Lsn loser_first = ctr.Add(loser, 1000);
    commit_adds(31, 40);
    ctr.Add(loser, 1000);
    before.rm.log().ForceAll();
    before.seg.FlushAll();  // the loser's adds reach the disk
    Epoch after(node_);
    CounterServer ctr2(after);
    const Lsn first = after.rm.log().first_lsn();
    const int records = RecordsFrom(after, first);
    const int undo_span = RecordsFrom(after, loser_first);
    ASSERT_LT(undo_span, records / 2);
    const double pages = PagesFrom(first) + PagesFrom(loser_first);
    const double reads = SequentialReads();
    TestOutcomes outcomes;
    RecoveryStats stats = after.rm.Recover(outcomes);
    EXPECT_EQ(stats.losers, std::vector<TransactionId>{loser});
    EXPECT_EQ(stats.operations_undone, 2);
    EXPECT_EQ(ctr2.Get(), 40u);
    // The undo scan stops at the loser's first record, and is charged from
    // there to the end of the log.
    EXPECT_EQ(stats.records_scanned, records + undo_span);
    EXPECT_EQ(SequentialReads() - reads, pages);
  });
}

TEST_F(RecoveryTest, MixedLogRollsBackAValueLoserAndAnOperationLoser) {
  // On page 2: the counter lives on page 0, and a fault on page 1 after it
  // would be a sequential read of its own.
  ObjectId cell{kSeg, 2 * kPageSize, 4};
  TransactionId winner{1, 1}, value_loser{1, 2}, op_loser{1, 3};
  RunInTask([&] {
    Epoch before(node_);
    CounterServer ctr(before);
    WriteValue(before, winner, cell, {1, 1, 1, 1});
    ctr.Add(winner, 5);
    Commit(before, winner);
    WriteValue(before, value_loser, cell, {2, 2, 2, 2});
    const Lsn losers_first = before.rm.log().last_lsn();
    ctr.Add(op_loser, 11);
    before.rm.log().ForceAll();
    before.seg.FlushAll();  // both losers' effects reach the disk
    Epoch after(node_);
    CounterServer ctr2(after);
    // Forward pass and value pass over the whole log, undo from the
    // earliest loser's first update.
    const double pages = 2 * PagesFrom(after.rm.log().first_lsn()) + PagesFrom(losers_first);
    const double reads = SequentialReads();
    TestOutcomes outcomes;
    RecoveryStats stats = after.rm.Recover(outcomes);
    EXPECT_EQ(stats.passes, 3);
    EXPECT_EQ(stats.losers, (std::vector<TransactionId>{value_loser, op_loser}));
    EXPECT_EQ(stats.operations_undone, 1);
    EXPECT_EQ(after.seg.Read(cell), (Bytes{1, 1, 1, 1}));
    EXPECT_EQ(ctr2.Get(), 5u);
    EXPECT_EQ(SequentialReads() - reads, pages);
  });
}

TEST_F(RecoveryTest, SequenceNumberGuardSuppressesDoubleRedo) {
  TransactionId t{1, 1};
  RunInTask([&] {
    Epoch before(node_);
    CounterServer ctr(before);
    ctr.Add(t, 10);
    Commit(before, t);
    before.seg.FlushAll();  // the page reaches disk stamped with its LSN
    Epoch after(node_);
    CounterServer ctr2(after);
    TestOutcomes outcomes;
    RecoveryStats stats = after.rm.Recover(outcomes);
    EXPECT_EQ(stats.operations_redone, 0);  // guard: page seqno >= record LSN
    EXPECT_EQ(ctr2.Get(), 10u);             // and the value is already there
  });
}

TEST_F(RecoveryTest, OperationLoserUndoneAtRecovery) {
  TransactionId winner{1, 1}, loser{1, 2};
  RunInTask([&] {
    Epoch before(node_);
    CounterServer ctr(before);
    ctr.Add(winner, 100);
    Commit(before, winner);
    ctr.Add(loser, 11);
    before.rm.log().ForceAll();
    before.seg.FlushAll();
    Epoch after(node_);
    CounterServer ctr2(after);
    TestOutcomes outcomes;
    RecoveryStats stats = after.rm.Recover(outcomes);
    EXPECT_EQ(stats.operations_undone, 1);
    EXPECT_EQ(ctr2.Get(), 100u);
  });
}

TEST_F(RecoveryTest, CrashDuringAbortDoesNotDoubleUndo) {
  TransactionId t{1, 1};
  RunInTask([&] {
    Epoch before(node_);
    CounterServer ctr(before);
    ctr.Add(t, 10);
    ctr.Add(t, 5);
    before.rm.log().ForceAll();
    // Abort proceeds: both compensations logged and applied...
    before.rm.UndoTransaction(t);
    before.rm.log().ForceAll();
    before.seg.FlushAll();
    // ...but the abort record never made it. Recovery sees a loser whose
    // compensations are durable; undo_next pointers prevent re-undoing.
    Epoch after(node_);
    CounterServer ctr2(after);
    TestOutcomes outcomes;
    RecoveryStats stats = after.rm.Recover(outcomes);
    EXPECT_EQ(stats.operations_undone, 0);
    EXPECT_EQ(ctr2.Get(), 0u);
  });
}

TEST_F(RecoveryTest, PartialAbortBeforeCrashFinishesAtRecovery) {
  TransactionId t{1, 1};
  RunInTask([&] {
    Epoch before(node_);
    CounterServer ctr(before);
    ctr.Add(t, 10);
    ctr.Add(t, 5);
    ctr.Add(t, 3);
    before.rm.log().ForceAll();
    before.seg.FlushAll();  // the crash-point disk image: counter = 18
    // Snapshot the disk as of this moment (a real crash cannot leave the
    // disk ahead of the stable log — the WAL gate forbids it).
    kernel::Node scratch(1, substrate_);
    scratch.disk().EnsureSegment(kSeg, 16);
    for (PageNumber p = 0; p < 16; ++p) {
      const auto& page = node_.disk().PeekPage({kSeg, p});
      scratch.disk().WritePage({kSeg, p}, page.data.data(), page.sequence_number);
    }
    // Run the abort; only its FIRST compensation record becomes durable
    // before the "crash" (we rebuild a byte-prefix of the log).
    Lsn pre_abort_end = before.rm.log().last_lsn();
    before.rm.UndoTransaction(t);
    before.rm.log().ForceAll();
    Lsn first_comp = before.rm.log().NextLsn(pre_abort_end);
    ASSERT_NE(first_comp, kNullLsn);
    Lsn second_comp = before.rm.log().NextLsn(first_comp);
    ASSERT_NE(second_comp, kNullLsn);
    auto& dev = node_.stable_log();
    Bytes prefix(dev.Read(0, second_comp - 1).begin(), dev.Read(0, second_comp - 1).end());
    scratch.stable_log().Append(prefix);
    RecoveryManager rm2(scratch);
    kernel::RecoverableSegment seg2(substrate_, scratch.disk(), kSeg, 16, 8);
    rm2.RegisterSegment(kServer, &seg2);
    struct MiniCounter {
      kernel::RecoverableSegment& seg;
      std::uint64_t Get() {
        Bytes v = seg.Read({kSeg, 0, 8});
        std::uint64_t x;
        memcpy(&x, v.data(), 8);
        return x;
      }
    } mini{seg2};
    OperationHooks hooks;
    hooks.apply = [&](const std::string& op, std::span<const std::uint8_t> args, Lsn lsn) {
      std::int64_t delta;
      memcpy(&delta, args.data(), 8);
      if (op == "sub") {
        delta = -delta;
      }
      std::uint64_t cur = mini.Get();
      cur += static_cast<std::uint64_t>(delta);
      Bytes nv(8);
      memcpy(nv.data(), &cur, 8);
      seg2.Pin({kSeg, 0, 8});
      seg2.Write({kSeg, 0, 8}, nv, lsn);
      seg2.Unpin({kSeg, 0, 8});
    };
    rm2.RegisterOperationHooks(kServer, hooks);
    TestOutcomes outcomes;
    RecoveryStats stats = rm2.Recover(outcomes);
    // The add of 3 was compensated before the crash (its compensation is
    // redone); only the adds of 5 and 10 need fresh undo.
    EXPECT_EQ(stats.operations_redone, 1);
    EXPECT_EQ(stats.operations_undone, 2);
    EXPECT_EQ(mini.Get(), 0u);
  });
}

TEST_F(RecoveryTest, ParentAbortCompensatesSubtransactionUpdateOnce) {
  // A committed subtransaction's add joins its parent's undo list. The
  // parent's abort compensates both adds durably, and the crash comes
  // before the abort record: nothing is left to undo.
  TransactionId parent{1, 1}, child{1, 2};
  RunInTask([&] {
    Epoch before(node_);
    CounterServer ctr(before);
    ctr.Add(parent, 5);
    ctr.Add(child, parent, 10);
    before.rm.MergeChild(child, parent);
    before.rm.UndoTransaction(parent);
    before.rm.log().ForceAll();
    before.seg.FlushAll();
    Epoch after(node_);
    CounterServer ctr2(after);
    TestOutcomes outcomes;
    RecoveryStats stats = after.rm.Recover(outcomes);
    EXPECT_EQ(stats.losers, std::vector<TransactionId>{parent});
    EXPECT_EQ(stats.operations_undone, 0);
    EXPECT_EQ(ctr2.Get(), 0u);
  });
}

TEST_F(RecoveryTest, InDoubtUndoListLeavesOutANestedAbortedSubtransaction) {
  // P's subtransaction C1 aborts after its own subtransaction C2 committed
  // into it; then P adds and prepares. The rebuilt list holds P's add only.
  TransactionId p{1, 1}, c1{1, 2}, c2{1, 3};
  RunInTask([&] {
    Epoch before(node_);
    CounterServer ctr(before);
    ctr.Add(c2, p, 10);
    before.rm.MergeChild(c2, c1);
    ctr.Add(c1, p, 20);
    before.rm.UndoTransaction(c1);
    const Lsn own = ctr.Add(p, 5);
    LogRecord prep;
    prep.type = RecordType::kTxnPrepare;
    prep.owner = p;
    prep.top = p;
    before.rm.log().Append(std::move(prep));
    before.rm.log().ForceAll();
    ASSERT_EQ(before.rm.UndoListOf(p), std::vector<Lsn>{own});
    Epoch after(node_);
    CounterServer ctr2(after);
    TestOutcomes outcomes;
    RecoveryStats stats = after.rm.Recover(outcomes);
    EXPECT_EQ(stats.in_doubt, std::vector<TransactionId>{p});
    EXPECT_EQ(after.rm.UndoListOf(p), std::vector<Lsn>{own});
    EXPECT_EQ(ctr2.Get(), 5u);
    // The coordinator's abort verdict unwinds P's own add only.
    after.rm.UndoTransaction(p);
    EXPECT_EQ(ctr2.Get(), 0u);
  });
}

TEST_F(RecoveryTest, CheckpointAndReclaimShrinkLogButPreserveCorrectness) {
  ObjectId oid{kSeg, 0, 4};
  TransactionId t1{1, 1}, t2{1, 2};
  RunInTask([&] {
    Epoch before(node_);
    for (int i = 0; i < 50; ++i) {
      WriteValue(before, t1, oid, {std::uint8_t(i), 0, 0, 0});
    }
    Commit(before, t1);
    std::uint64_t in_use = before.rm.StableLogBytesInUse();
    before.rm.Reclaim({});  // no active transactions: nearly everything goes
    EXPECT_LT(before.rm.StableLogBytesInUse(), in_use / 4);
    // Post-reclaim updates still recover.
    WriteValue(before, t2, oid, {99, 0, 0, 0});
    Commit(before, t2);
    Epoch after(node_);
    TestOutcomes outcomes;
    after.rm.Recover(outcomes);
    EXPECT_EQ(after.seg.Read(oid), (Bytes{99, 0, 0, 0}));
  });
}

TEST_F(RecoveryTest, ReclaimRespectsActiveTransactions) {
  ObjectId a{kSeg, 0, 4}, b{kSeg, 4, 4};
  TransactionId active{1, 1}, done{1, 2};
  RunInTask([&] {
    Epoch e(node_);
    e.seg.Pin(a);
    Lsn first = e.rm.LogValue(active, active, kServer, a, e.seg.Read(a), {1, 1, 1, 1});
    e.seg.Unpin(a);
    WriteValue(e, done, b, {2, 2, 2, 2});
    Commit(e, done);
    RecoveryManager::ActiveTxn at;
    at.owner = active;
    at.top = active;
    at.first_lsn = first;
    e.rm.Reclaim({at});
    // The active transaction's first record must still be readable (it may
    // need to be undone).
    EXPECT_TRUE(e.rm.log().ReadRecord(first).has_value());
    e.rm.UndoTransaction(active);
    EXPECT_EQ(e.seg.Read(a), (Bytes{0, 0, 0, 0}));
  });
}

TEST_F(RecoveryTest, ReclaimDuringAnAbortKeepsTheRecordsStillToUndo) {
  // The abort's compensations fault pages into a two-frame pool, and each
  // eviction forces the log, which lets another task run. That task's
  // updates, to a second segment, trigger an automatic reclamation with no
  // active transaction listed. It must keep the records still to undo.
  constexpr SegmentId kOtherSeg = 2;
  constexpr PageNumber kPages = 8;
  RecoveryManager rm(node_);
  kernel::RecoverableSegment seg(substrate_, node_.disk(), kSeg, 16, 2);
  kernel::RecoverableSegment other_seg(substrate_, node_.disk(), kOtherSeg, 16, 8);
  rm.RegisterSegment(kServer, &seg);
  rm.RegisterSegment("other", &other_seg);
  rm.SetLogSpaceBudget(2048, [] { return std::vector<RecoveryManager::ActiveTxn>{}; });
  auto cell = [](SegmentId segment, PageNumber page) {
    return ObjectId{segment, page * kPageSize, 4};
  };
  auto write = [&](kernel::RecoverableSegment& s, const std::string& server,
                   const TransactionId& tid, const ObjectId& oid, std::uint8_t v) {
    s.Pin(oid);
    rm.LogValue(tid, tid, server, oid, s.Read(oid), {v, v, v, v});
    s.Unpin(oid);
  };
  TransactionId aborting{1, 1}, writer{1, 2};
  sim::WaitQueue undo_started;
  bool undoing = false;
  int reclaims_during_undo = 0;
  sched_.Spawn("abort", 1, 0, [&] {
    for (PageNumber p = 0; p < kPages; ++p) {
      write(seg, kServer, aborting, cell(kSeg, p), 1);
    }
    undoing = true;
    sched_.NotifyAll(undo_started);
    rm.UndoTransaction(aborting);
    undoing = false;
    reclaims_during_undo = rm.auto_reclaim_count();
  });
  sched_.Spawn("writer", 1, 0, [&] {
    while (!undoing) {
      sched_.Wait(undo_started);
    }
    for (int i = 0; i < 200 && undoing; ++i) {
      write(other_seg, "other", writer, cell(kOtherSeg, i % 8), static_cast<std::uint8_t>(i));
    }
  });
  ASSERT_EQ(sched_.Run(), 0);
  ASSERT_GT(reclaims_during_undo, 0);
  RunInTask([&] {
    for (PageNumber p = 0; p < kPages; ++p) {
      EXPECT_EQ(seg.Read(cell(kSeg, p)), (Bytes{0, 0, 0, 0})) << "page " << p;
    }
  });
}

TEST_F(RecoveryTest, ConcurrentEvictionsKeepEveryWrite) {
  // Two tasks write through a two-frame pool. Evicting a dirty frame forces
  // the log, which lets the other task run: it must neither evict the frame
  // being written back nor fault in a page the first task is bringing in.
  std::optional<Epoch> e;
  RunInTask([&] { e.emplace(node_, 16, 2); });
  auto write_pages = [&](TransactionId tid, PageNumber first) {
    for (PageNumber p = first; p < first + 8; p += 2) {
      auto v = static_cast<std::uint8_t>(p + 10);
      WriteValue(*e, tid, ObjectId{kSeg, p * kPageSize, 4}, {v, v, v, v});
    }
  };
  sched_.Spawn("low", 1, 0, [&] { write_pages(TransactionId{1, 1}, 0); });
  sched_.Spawn("high", 1, 0, [&] { write_pages(TransactionId{1, 2}, 8); });
  ASSERT_EQ(sched_.Run(), 0);
  RunInTask([&] {
    for (PageNumber p = 0; p < 16; p += 2) {
      auto v = static_cast<std::uint8_t>(p + 10);
      EXPECT_EQ(e->seg.Read(ObjectId{kSeg, p * kPageSize, 4}), (Bytes{v, v, v, v}))
          << "page " << p;
    }
  });
}

TEST_F(RecoveryTest, EvictionWaitsWhileEveryFrameIsBeingWrittenBack) {
  // Three tasks on two frames: the third evictor can find both frames
  // mid-write-back, and must wait for one instead of failing its fault.
  std::optional<Epoch> e;
  RunInTask([&] { e.emplace(node_, 16, 2); });
  for (PageNumber first = 0; first < 3; ++first) {
    sched_.Spawn("writer", 1, 0, [&, first] {
      for (PageNumber p = first; p < 12; p += 3) {
        auto v = static_cast<std::uint8_t>(p + 10);
        WriteValue(*e, TransactionId{1, first + 1}, ObjectId{kSeg, p * kPageSize, 4},
                   {v, v, v, v});
      }
    });
  }
  ASSERT_EQ(sched_.Run(), 0);
  RunInTask([&] {
    for (PageNumber p = 0; p < 12; ++p) {
      auto v = static_cast<std::uint8_t>(p + 10);
      EXPECT_EQ(e->seg.Read(ObjectId{kSeg, p * kPageSize, 4}), (Bytes{v, v, v, v}))
          << "page " << p;
    }
  });
}

}  // namespace
}  // namespace tabs::recovery
