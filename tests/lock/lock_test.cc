#include "src/lock/lock_manager.h"

#include <gtest/gtest.h>

#include "src/lock/deadlock_detector.h"

namespace tabs::lock {
namespace {

constexpr ObjectId kObjA{1, 0, 4};
constexpr ObjectId kObjB{1, 4, 4};
constexpr TransactionId kT1{1, 1};
constexpr TransactionId kT2{1, 2};
constexpr TransactionId kT3{1, 3};

class LockTest : public ::testing::Test {
 protected:
  LockTest() : lm_(sched_, CompatibilityMatrix::SharedExclusive(), /*default_timeout=*/5000) {}

  void Spawn(std::function<void()> fn, SimTime at = 0) {
    sched_.Spawn("t", 1, at, std::move(fn));
  }

  sim::Scheduler sched_;
  LockManager lm_;
};

TEST_F(LockTest, SharedLocksAreCompatible) {
  Spawn([&] {
    EXPECT_EQ(lm_.Lock(kT1, kObjA, kShared), Status::kOk);
    EXPECT_EQ(lm_.Lock(kT2, kObjA, kShared), Status::kOk);
    EXPECT_TRUE(lm_.IsLocked(kObjA));
  });
  EXPECT_EQ(sched_.Run(), 0);
}

TEST_F(LockTest, ExclusiveConflictsTimeOut) {
  Spawn([&] {
    EXPECT_EQ(lm_.Lock(kT1, kObjA, kExclusive), Status::kOk);
    EXPECT_EQ(lm_.Lock(kT2, kObjA, kExclusive, 100), Status::kTimeout);
  });
  EXPECT_EQ(sched_.Run(), 0);
}

TEST_F(LockTest, RecycledGrantStartsWithNoModes) {
  // kT1's released grant is the one kT2's grant on another object reuses.
  ASSERT_EQ(lm_.Lock(kT1, kObjA, kExclusive), Status::kOk);
  lm_.ReleaseAll(kT1);
  ASSERT_EQ(lm_.Lock(kT2, kObjB, kShared), Status::kOk);
  EXPECT_FALSE(lm_.Holds(kT2, kObjB, kExclusive));
  EXPECT_TRUE(lm_.ConditionalLock(kT3, kObjB, kShared));
  EXPECT_FALSE(lm_.IsLocked(kObjA));
}

TEST_F(LockTest, ReleaseWakesWaiter) {
  Status got = Status::kInternal;
  Spawn([&] {
    ASSERT_EQ(lm_.Lock(kT1, kObjA, kExclusive), Status::kOk);
    sched_.Charge(50);
    sched_.Yield();  // let the waiter queue up
    lm_.ReleaseAll(kT1);
  });
  Spawn(
      [&] {
        got = lm_.Lock(kT2, kObjA, kExclusive, 10000);
        EXPECT_TRUE(lm_.Holds(kT2, kObjA, kExclusive));
      },
      10);
  EXPECT_EQ(sched_.Run(), 0);
  EXPECT_EQ(got, Status::kOk);
}

TEST_F(LockTest, ReacquireByHolderIsGranted) {
  Spawn([&] {
    EXPECT_EQ(lm_.Lock(kT1, kObjA, kShared), Status::kOk);
    EXPECT_EQ(lm_.Lock(kT1, kObjA, kExclusive), Status::kOk);  // upgrade, no other holders
    EXPECT_TRUE(lm_.Holds(kT1, kObjA, kExclusive));
  });
  EXPECT_EQ(sched_.Run(), 0);
}

TEST_F(LockTest, UpgradeBlocksWhenOtherReaderPresent) {
  Spawn([&] {
    EXPECT_EQ(lm_.Lock(kT1, kObjA, kShared), Status::kOk);
    EXPECT_EQ(lm_.Lock(kT2, kObjA, kShared), Status::kOk);
    EXPECT_EQ(lm_.Lock(kT1, kObjA, kExclusive, 100), Status::kTimeout);
  });
  EXPECT_EQ(sched_.Run(), 0);
}

TEST_F(LockTest, ConditionalLockNeverBlocks) {
  Spawn([&] {
    EXPECT_TRUE(lm_.ConditionalLock(kT1, kObjA, kExclusive));
    SimTime before = sched_.Now();
    EXPECT_FALSE(lm_.ConditionalLock(kT2, kObjA, kShared));
    EXPECT_EQ(sched_.Now(), before);  // no virtual time passed: no wait
    EXPECT_TRUE(lm_.ConditionalLock(kT2, kObjB, kExclusive));
  });
  EXPECT_EQ(sched_.Run(), 0);
}

TEST_F(LockTest, IsLockedObservesState) {
  Spawn([&] {
    EXPECT_FALSE(lm_.IsLocked(kObjA));
    lm_.Lock(kT1, kObjA, kShared);
    EXPECT_TRUE(lm_.IsLocked(kObjA));
    lm_.ReleaseAll(kT1);
    EXPECT_FALSE(lm_.IsLocked(kObjA));
  });
  EXPECT_EQ(sched_.Run(), 0);
}

TEST_F(LockTest, ReleaseAllDropsEveryLock) {
  Spawn([&] {
    lm_.Lock(kT1, kObjA, kExclusive);
    lm_.Lock(kT1, kObjB, kShared);
    EXPECT_EQ(lm_.LocksHeldBy(kT1).size(), 2u);
    lm_.ReleaseAll(kT1);
    EXPECT_TRUE(lm_.LocksHeldBy(kT1).empty());
    EXPECT_EQ(lm_.LockedObjectCount(), 0u);
  });
  EXPECT_EQ(sched_.Run(), 0);
}

TEST_F(LockTest, FifoGrantOrderPreventsWriterStarvation) {
  std::vector<int> grant_order;
  Spawn([&] {
    ASSERT_EQ(lm_.Lock(kT1, kObjA, kShared), Status::kOk);
    sched_.Charge(100);
    sched_.Yield();  // writer then reader queue up behind us
    lm_.ReleaseAll(kT1);
  });
  Spawn(
      [&] {
        EXPECT_EQ(lm_.Lock(kT2, kObjA, kExclusive, 100000), Status::kOk);
        grant_order.push_back(2);
        lm_.ReleaseAll(kT2);
      },
      10);
  Spawn(
      [&] {
        EXPECT_EQ(lm_.Lock(kT3, kObjA, kExclusive, 100000), Status::kOk);
        grant_order.push_back(3);
        lm_.ReleaseAll(kT3);
      },
      20);
  EXPECT_EQ(sched_.Run(), 0);
  EXPECT_EQ(grant_order, (std::vector<int>{2, 3}));
}

TEST_F(LockTest, SubtransactionLockInheritance) {
  Spawn([&] {
    TransactionId parent{1, 10}, child{1, 11};
    lm_.Lock(child, kObjA, kExclusive);
    lm_.InheritToParent(child, parent);
    EXPECT_TRUE(lm_.Holds(parent, kObjA, kExclusive));
    EXPECT_FALSE(lm_.Holds(child, kObjA, kExclusive));
    // Parent and its other children don't deadlock against inherited locks.
    EXPECT_EQ(lm_.Lock(parent, kObjA, kShared), Status::kOk);
  });
  EXPECT_EQ(sched_.Run(), 0);
}

TEST_F(LockTest, InheritanceMergesIntoAModeTheParentHolds) {
  // The parent already holds the object the child commits: the child's modes
  // join the parent's grant rather than replacing it.
  constexpr LockMode kInc = 2, kDec = 3;
  CompatibilityMatrix m(4);
  m.SetCompatible(kInc, kDec);
  LockManager typed(sched_, m, 5000);
  Spawn([&] {
    TransactionId parent{1, 10}, child{1, 11};
    ASSERT_EQ(typed.Lock(parent, kObjA, kInc), Status::kOk);
    ASSERT_EQ(typed.Lock(child, kObjA, kDec), Status::kOk);
    typed.InheritToParent(child, parent);
    EXPECT_TRUE(typed.Holds(parent, kObjA, kInc));
    EXPECT_TRUE(typed.Holds(parent, kObjA, kDec));
    EXPECT_FALSE(typed.Holds(child, kObjA, kInc));
    EXPECT_FALSE(typed.Holds(child, kObjA, kDec));
    EXPECT_EQ(typed.LocksHeldBy(parent), std::vector<ObjectId>{kObjA});
    EXPECT_EQ(typed.LockedObjectCount(), 1u);
    typed.ReleaseAll(parent);
    EXPECT_EQ(typed.LockedObjectCount(), 0u);
  });
  EXPECT_EQ(sched_.Run(), 0);
}

TEST_F(LockTest, IntraTransactionDeadlockBetweenSubtransactions) {
  // The paper: subtransactions "may cause intra-transaction deadlock if two
  // subtransactions update the same data" (Section 2.1.3).
  Status sub2_status = Status::kOk;
  Spawn([&] {
    TransactionId sub1{1, 21};
    ASSERT_EQ(lm_.Lock(sub1, kObjA, kExclusive), Status::kOk);
  });
  Spawn(
      [&] {
        TransactionId sub2{1, 22};
        sub2_status = lm_.Lock(sub2, kObjA, kExclusive, 500);
      },
      10);
  EXPECT_EQ(sched_.Run(), 0);
  EXPECT_EQ(sub2_status, Status::kTimeout);
}

TEST_F(LockTest, TypeSpecificMatrixAllowsCommutingModes) {
  // A queue-ish matrix: enqueue locks commute with dequeue locks (operating
  // on different ends) but not with themselves.
  constexpr LockMode kEnq = 2, kDeq = 3;
  CompatibilityMatrix m(4);
  m.SetCompatible(kShared, kShared);
  m.SetCompatible(kEnq, kDeq);
  LockManager typed(sched_, m, 5000);
  Spawn([&] {
    EXPECT_EQ(typed.Lock(kT1, kObjA, kEnq), Status::kOk);
    EXPECT_EQ(typed.Lock(kT2, kObjA, kDeq), Status::kOk);       // commutes
    EXPECT_EQ(typed.Lock(kT3, kObjA, kEnq, 100), Status::kTimeout);  // enq-enq conflicts
  });
  EXPECT_EQ(sched_.Run(), 0);
}

TEST_F(LockTest, WaitsForEdgesReflectConflicts) {
  Spawn([&] {
    lm_.Lock(kT1, kObjA, kExclusive);
    sched_.Charge(1);
  });
  Spawn(
      [&] { lm_.Lock(kT2, kObjA, kExclusive, 10000); },
      5);
  Spawn(
      [&] {
        auto edges = lm_.WaitsFor();
        ASSERT_EQ(edges.size(), 1u);
        EXPECT_EQ(edges[0].waiter, kT2);
        EXPECT_EQ(edges[0].holder, kT1);
        lm_.ReleaseAll(kT1);  // let T2 through so the run drains
      },
      50);
  EXPECT_EQ(sched_.Run(), 0);
}

TEST_F(LockTest, DeadlockDetectorFindsAndBreaksCycle) {
  DeadlockDetector det;
  det.AddLockManager(&lm_);
  Status t1_second = Status::kOk, t2_second = Status::kOk;
  Spawn([&] {
    ASSERT_EQ(lm_.Lock(kT1, kObjA, kExclusive), Status::kOk);
    sched_.Charge(10);
    sched_.Yield();
    t1_second = lm_.Lock(kT1, kObjB, kExclusive, 100000);
    lm_.ReleaseAll(kT1);
  });
  Spawn(
      [&] {
        ASSERT_EQ(lm_.Lock(kT2, kObjB, kExclusive), Status::kOk);
        sched_.Charge(10);
        sched_.Yield();
        t2_second = lm_.Lock(kT2, kObjA, kExclusive, 100000);
        lm_.ReleaseAll(kT2);
      },
      1);
  Spawn(
      [&] {
        auto victim = det.BreakOneCycle();
        ASSERT_TRUE(victim.has_value());
        EXPECT_EQ(*victim, kT2);  // youngest in the cycle
      },
      1000);
  EXPECT_EQ(sched_.Run(), 0);
  EXPECT_EQ(t1_second, Status::kOk);
  EXPECT_EQ(t2_second, Status::kAborted);
}

TEST_F(LockTest, CancelledWaiterIsNotGrantedByALaterRelease) {
  // A deadlock victim's wait fails even when the lock frees up before the
  // victim's task resumes: the release must not hand it the lock.
  Status got = Status::kInternal;
  Spawn([&] { ASSERT_EQ(lm_.Lock(kT1, kObjA, kExclusive), Status::kOk); });
  Spawn([&] { got = lm_.Lock(kT2, kObjA, kExclusive, 10000); }, 10);
  Spawn(
      [&] {
        lm_.CancelWaits(kT2);
        lm_.ReleaseAll(kT1);
      },
      20);
  EXPECT_EQ(sched_.Run(), 0);
  EXPECT_EQ(got, Status::kAborted);
  EXPECT_FALSE(lm_.Holds(kT2, kObjA, kExclusive));
  EXPECT_EQ(lm_.LockedObjectCount(), 0u);
}

TEST_F(LockTest, TimedOutWaiterLeavesNoEntry) {
  Status got = Status::kInternal;
  Spawn([&] {
    ASSERT_EQ(lm_.Lock(kT1, kObjA, kExclusive), Status::kOk);
    sched_.Charge(500);
    sched_.Yield();  // T2 queues up and times out meanwhile
    EXPECT_EQ(got, Status::kTimeout);
    EXPECT_EQ(lm_.LockedObjectCount(), 1u);
    lm_.ReleaseAll(kT1);
    EXPECT_EQ(lm_.LockedObjectCount(), 0u);
  });
  Spawn([&] { got = lm_.Lock(kT2, kObjA, kExclusive, 100); }, 10);
  EXPECT_EQ(sched_.Run(), 0);
  EXPECT_EQ(got, Status::kTimeout);
}

TEST_F(LockTest, DetectorReportsNoCycleWhenNoneExists) {
  DeadlockDetector det;
  det.AddLockManager(&lm_);
  Spawn([&] {
    lm_.Lock(kT1, kObjA, kExclusive);
    EXPECT_TRUE(det.FindCycle().empty());
    EXPECT_FALSE(det.BreakOneCycle().has_value());
    lm_.ReleaseAll(kT1);
  });
  EXPECT_EQ(sched_.Run(), 0);
}

}  // namespace
}  // namespace tabs::lock
