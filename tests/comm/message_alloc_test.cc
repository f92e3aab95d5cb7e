// The hot paths allocate nothing once warm. The message path: a task body
// lives inline in the Task that runs it (sim::TaskFn), so spawning a task,
// sending a datagram and delivering it take no heap memory. A session call's
// reply future, a commit round's replies and a lock waiter live in blocks of
// the scheduler's pool (sim::MakeShared). An operation-logged account update,
// a lock grant and a lock wait reuse the nodes and buffers their
// predecessors left. This binary replaces the global operator new with a
// counter, which is why it is a test executable of its own. Each count is
// taken after a warm-up that filled the scheduler's task and block pools,
// grew its vectors and left nodes to recycle.

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "src/comm/network.h"
#include "src/lock/lock_manager.h"
#include "src/servers/account_server.h"
#include "src/tabs/world.h"
#include "src/txn/paxos_commit.h"

namespace {
std::size_t g_allocs = 0;

void* CountedAlloc(std::size_t n) {
  ++g_allocs;
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tabs::comm {
namespace {

class MessageAllocTest : public ::testing::Test {
 protected:
  MessageAllocTest()
      : substrate_(sched_, sim::CostModel::Baseline(), sim::ArchitectureModel::Prototype()),
        net_(substrate_) {
    net_.AddNode(1);
    net_.AddNode(2);
  }

  // Allocations made by `round` (spawning and running tasks) the second
  // time it runs.
  template <typename F>
  std::size_t AllocsOfSecondRound(F round) {
    round();
    EXPECT_EQ(sched_.Run(), 0);
    std::size_t before = g_allocs;
    round();
    EXPECT_EQ(sched_.Run(), 0);
    return g_allocs - before;
  }

  sim::Scheduler sched_;
  sim::Substrate substrate_;
  Network net_;
};

TEST_F(MessageAllocTest, DatagramAndItsDeliveryAllocateNothing) {
  auto delivered = std::make_shared<int>(0);
  // Captures well past std::function's 16-byte small-object buffer.
  std::array<std::uint64_t, 8> payload{1, 2, 3, 4, 5, 6, 7, 8};
  std::size_t allocs = AllocsOfSecondRound([&] {
    sched_.Spawn("sender", 1, 0, [this, delivered, payload] {
      net_.SendDatagram(1, 2, "dgram", [delivered, payload] { *delivered += payload[7]; });
    });
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(*delivered, 16);
}

TEST_F(MessageAllocTest, WarmSessionCallAllocatesNothing) {
  int replies = 0;
  std::size_t allocs = AllocsOfSecondRound([&] {
    sched_.Spawn("caller", 1, 0, [this, &replies] {
      Result<int> r = net_.SessionCall<int>(1, 2, "call", [] { return 7; });
      replies += r.ok() && r.value() == 7 ? 1 : 0;
    });
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(replies, 2);
}

TEST_F(MessageAllocTest, LateReplyFulfilsALiveBlockThatTheNextCallReuses) {
  // The caller gives up before the reply lands. The delivery task still holds
  // the future, fulfils it and releases it to the pool, where the next call
  // of the same type finds it.
  const void* first = nullptr;
  bool gave_up = false;
  bool replied_late = false;
  sched_.Spawn("caller", 1, 0, [&] {
    sim::FuturePtr<Result<int>> f = net_.AsyncSessionCall<int>(1, 2, "slow", [&] {
      sched_.Charge(1000);
      sched_.Yield();  // the caller's timeout, due first, fires
      replied_late = gave_up;
      return 7;
    });
    first = f.get();
    gave_up = !f->Await(10);
  });
  ASSERT_EQ(sched_.Run(), 0);
  EXPECT_TRUE(gave_up);
  EXPECT_TRUE(replied_late);
  EXPECT_EQ(sched_.blocks().outstanding(), 0u);

  const void* second = nullptr;
  bool answered = false;
  std::size_t before = g_allocs;
  sched_.Spawn("caller", 1, 0, [&] {
    sim::FuturePtr<Result<int>> f = net_.AsyncSessionCall<int>(1, 2, "fast", [] { return 7; });
    second = f.get();
    answered = f->Await() && f->value().ok() && f->value().value() == 7;
  });
  ASSERT_EQ(sched_.Run(), 0);
  EXPECT_EQ(g_allocs - before, 0u);
  EXPECT_TRUE(answered);
  EXPECT_EQ(second, first);
}

TEST_F(MessageAllocTest, SpawningAClosureOfSharedPointersAllocatesNothing) {
  auto a = std::make_shared<int>(0);
  auto b = std::make_shared<int>(0);
  auto c = std::make_shared<int>(0);
  std::size_t allocs = AllocsOfSecondRound([&] {
    sched_.Spawn("task", 1, 0, [a, b, c] {
      *a += 1;
      *b += 2;
      *c += 3;
    });
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(*a + *b + *c, 12);
}

TEST_F(MessageAllocTest, ReplyRoundOfThreeAllocatesNothing) {
  int votes = 0;
  std::size_t allocs = AllocsOfSecondRound([&] {
    sched_.Spawn("collector", 1, 0, [this, &votes] {
      auto replies = sim::MakeShared<sim::Replies<txn::VoteMsg>>(sched_, sched_);
      for (NodeId from = 2; from <= 4; ++from) {
        replies->Push({from, txn::Vote::kPrepared});
      }
      for (int i = 0; i < 3; ++i) {
        std::optional<txn::VoteMsg> vote = replies->Next(sched_.Now());
        votes += vote.has_value() && replies->First(vote->from) ? 1 : 0;
      }
    });
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(votes, 6);
}

TEST_F(MessageAllocTest, EachDuplicateDeliveryRunsItsOwnCopy) {
  net_.SetDatagramFaults({/*seed=*/1, /*duplicate_probability=*/1.0,
                          /*jitter_probability=*/0.0, /*max_jitter_us=*/0});
  std::vector<int> seen;
  sched_.Spawn("sender", 1, 0, [&] {
    net_.SendDatagram(1, 2, "dgram", [&seen, count = 0]() mutable { seen.push_back(++count); });
  });
  ASSERT_EQ(sched_.Run(), 0);
  EXPECT_EQ(seen, (std::vector<int>{1, 1}));
}

TEST_F(MessageAllocTest, TaskKilledBeforeItRunsDestroysItsClosure) {
  auto captured = std::make_shared<int>(0);
  sched_.Spawn("victim", 2, 100, [captured] { *captured = 1; });
  EXPECT_EQ(captured.use_count(), 2);
  sched_.Spawn("killer", 1, 0,
               [this] { sched_.KillWhere([](const sim::Task& t) { return t.node == 2; }); });
  ASSERT_EQ(sched_.Run(), 0);
  EXPECT_EQ(*captured, 0);
  EXPECT_EQ(captured.use_count(), 1);
}

TEST_F(MessageAllocTest, FinishedTaskReleasesItsCaptures) {
  auto captured = std::make_shared<int>(0);
  long uses_after_finish = 0;
  sched_.Spawn("first", 1, 0, [captured] { *captured = 1; });
  // Runs once `first` has finished: its Task may wait in the pool for reuse,
  // but its closure is gone.
  sched_.Spawn("second", 1, 10, [&] { uses_after_finish = captured.use_count(); });
  ASSERT_EQ(sched_.Run(), 0);
  EXPECT_EQ(*captured, 1);
  EXPECT_EQ(uses_after_finish, 1);
}

}  // namespace
}  // namespace tabs::comm

namespace tabs {
namespace {

TEST(WarmUpdateAllocTest, SecondDepositOfAWarmTransactionAllocatesNothing) {
  World world(1);
  auto* accounts = world.AddServerOf<servers::AccountServer>(1, "accounts", 16u);
  std::size_t allocs = 0;
  world.RunApp(1, [&](Application& app) {
    // Transactions of the measured shape leave an undo list, an update mark
    // and a grant to recycle, and grow the escrow list, the operation record
    // and the log buffer. A deposit forces nothing, so the stable log's
    // chunks do not enter the count.
    for (int i = 0; i < 3; ++i) {
      app.Transaction([&](const server::Tx& tx) {
        accounts->Deposit(tx, 0, 1);
        return accounts->Deposit(tx, 0, 1);
      });
    }
    TransactionId t = app.Begin();
    EXPECT_EQ(accounts->Deposit(app.MakeTx(t), 0, 1), Status::kOk);
    std::size_t before = g_allocs;
    EXPECT_EQ(accounts->Deposit(app.MakeTx(t), 0, 1), Status::kOk);
    allocs = g_allocs - before;
    EXPECT_EQ(app.End(t), Status::kOk);
  });
  EXPECT_EQ(allocs, 0u);
}

TEST(WarmCommitAllocTest, DistributedWriteCommitAllocatesOnlyWhatItKeeps) {
  // A root and two participants; each deposit is a session call. Once warm,
  // the Transaction Manager's entries, their lists, the prepare round's lists
  // and every future and reply round reuse their predecessors' memory. What
  // is left is counted here, site by site, until the commit returns (the
  // acks are in by then).
  World world(3);
  servers::AccountServer* accounts[] = {
      nullptr, nullptr, world.AddServerOf<servers::AccountServer>(2, "accounts", 16u),
      world.AddServerOf<servers::AccountServer>(3, "accounts", 16u)};
  auto commit = [&](Application& app) {
    EXPECT_EQ(app.Transaction([&](const server::Tx& tx) {
      Status s = accounts[2]->Deposit(tx, 0, 1);
      return s == Status::kOk ? accounts[3]->Deposit(tx, 0, 1) : s;
    }),
              Status::kOk);
  };
  std::size_t allocs = 0;
  int blocked = world.RunApp(1, [&](Application& app) {
    // The warm-up also grows the log buffers to their working size.
    for (int i = 0; i < 3; ++i) {
      commit(app);
    }
    std::size_t before = g_allocs;
    commit(app);
    allocs = g_allocs - before;
  });
  EXPECT_EQ(blocked, 0);

  std::size_t expected = 3;  // the logged outcomes: the root's commit, each prepare
  if (WorldOptions().commit_mode == txn::CommitMode::kPaxosCommit) {
    // At each of the three acceptors, the transaction's state; its accepted
    // values live inside it.
    expected += 3;
  }
  EXPECT_EQ(allocs, expected);
}

TEST(WarmUpdateAllocTest, LockWaitGrantedAtReleaseAllocatesNothing) {
  // A conflicting request queues and is granted when the holder releases:
  // its waiter block, its queue's node and both grants reuse what the first
  // round left.
  sim::Scheduler sched;
  lock::LockManager locks(sched, lock::CompatibilityMatrix::SharedExclusive(), 1000);
  const ObjectId oid{1, 0, 8};
  std::uint64_t counter = 0;
  int granted = 0;
  auto round = [&] {
    TransactionId holder{1, ++counter};
    TransactionId waiter{1, ++counter};
    sched.Spawn("holder", 1, 0, [&, holder] {
      EXPECT_EQ(locks.Lock(holder, oid, lock::kExclusive), Status::kOk);
      sched.Charge(10);
      sched.Yield();  // the waiter, due at 1, queues behind the grant
      locks.ReleaseAll(holder);
    });
    sched.Spawn("waiter", 1, 1, [&, waiter] {
      granted += locks.Lock(waiter, oid, lock::kExclusive) == Status::kOk ? 1 : 0;
      locks.ReleaseAll(waiter);
    });
    EXPECT_EQ(sched.Run(), 0);
  };
  round();
  std::size_t before = g_allocs;
  round();
  EXPECT_EQ(g_allocs - before, 0u);
  EXPECT_EQ(granted, 2);
  EXPECT_FALSE(locks.IsLocked(oid));
}

TEST(WarmUpdateAllocTest, LockAndReleaseOfAFreeObjectAllocateNothing) {
  sim::Scheduler sched;
  lock::LockManager locks(sched, lock::CompatibilityMatrix::SharedExclusive(), 1000);
  const ObjectId oid{1, 0, 8};
  TransactionId warm{1, 1};
  ASSERT_EQ(locks.Lock(warm, oid, lock::kExclusive), Status::kOk);
  locks.ReleaseAll(warm);
  TransactionId tid{1, 2};
  std::size_t before = g_allocs;
  EXPECT_EQ(locks.Lock(tid, oid, lock::kExclusive), Status::kOk);
  locks.ReleaseAll(tid);
  EXPECT_EQ(g_allocs - before, 0u);
  EXPECT_FALSE(locks.IsLocked(oid));
}

}  // namespace
}  // namespace tabs
