// Tests for the cooperative virtual-time scheduler — the execution model
// everything else in TABS stands on.

#include "src/sim/scheduler.h"

#include <gtest/gtest.h>
#include <sanitizer/asan_interface.h>  // defines __has_feature where GCC does not

#include <memory>
#include <optional>
#include <random>
#include <utility>
#include <vector>

namespace tabs::sim {
namespace {

TEST(SchedulerTest, RunsSingleTask) {
  Scheduler sched;
  bool ran = false;
  sched.Spawn("t", 1, 0, [&] {
    ran = true;
    EXPECT_EQ(sched.Now(), 0);
    sched.Charge(100);
    EXPECT_EQ(sched.Now(), 100);
  });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_TRUE(ran);
}

TEST(SchedulerTest, OrdersTasksByVirtualTime) {
  Scheduler sched;
  std::vector<int> order;
  sched.Spawn("late", 1, 500, [&] { order.push_back(2); });
  sched.Spawn("early", 1, 10, [&] { order.push_back(1); });
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SchedulerTest, TieBrokenBySpawnOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.Spawn("a", 1, 0, [&] { order.push_back(1); });
  sched.Spawn("b", 1, 0, [&] { order.push_back(2); });
  sched.Spawn("c", 1, 0, [&] { order.push_back(3); });
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SchedulerTest, YieldInterleavesByTime) {
  Scheduler sched;
  std::vector<std::string> trace;
  sched.Spawn("a", 1, 0, [&] {
    trace.push_back("a1");
    sched.Charge(100);
    sched.Yield();
    trace.push_back("a2");
  });
  sched.Spawn("b", 1, 50, [&] { trace.push_back("b"); });
  sched.Run();
  // a runs first (t=0), charges to 100, yields; b (t=50) precedes a's resume.
  EXPECT_EQ(trace, (std::vector<std::string>{"a1", "b", "a2"}));
}

TEST(SchedulerTest, WaitAndNotifyTransfersTime) {
  Scheduler sched;
  WaitQueue q;
  SimTime waiter_resumed_at = -1;
  sched.Spawn("waiter", 1, 0, [&] {
    sched.Wait(q);
    waiter_resumed_at = sched.Now();
  });
  sched.Spawn("notifier", 1, 0, [&] {
    sched.Charge(777);
    sched.NotifyOne(q);
  });
  EXPECT_EQ(sched.Run(), 0);
  // The waiter resumes at the notifier's clock: the wake-up is an event.
  EXPECT_EQ(waiter_resumed_at, 777);
}

TEST(SchedulerTest, WaitTimeoutFires) {
  Scheduler sched;
  WaitQueue q;
  bool notified = true;
  SimTime woke_at = -1;
  sched.Spawn("waiter", 1, 100, [&] {
    notified = sched.WaitUntil(q, sched.Now() + 250);
    woke_at = sched.Now();
  });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_FALSE(notified);
  EXPECT_EQ(woke_at, 350);  // blocked at t=100, timeout after 250
}

TEST(SchedulerTest, NotifyBeatsTimeout) {
  Scheduler sched;
  WaitQueue q;
  bool notified = false;
  sched.Spawn("waiter", 1, 0, [&] { notified = sched.WaitUntil(q, sched.Now() + 1000); });
  sched.Spawn("notifier", 1, 0, [&] {
    sched.Charge(10);
    sched.NotifyOne(q);
  });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_TRUE(notified);
}

TEST(SchedulerTest, TimersFireInDeadlineOrder) {
  Scheduler sched;
  WaitQueue q;
  std::vector<std::string> order;
  // Armed out of deadline order: the queue must fire them by deadline, not
  // by arming order.
  sched.Spawn("slow", 1, 0, [&] {
    sched.WaitUntil(q, sched.Now() + 900);
    order.push_back("slow@" + std::to_string(sched.Now()));
  });
  sched.Spawn("fast", 1, 0, [&] {
    sched.WaitUntil(q, sched.Now() + 300);
    order.push_back("fast@" + std::to_string(sched.Now()));
  });
  sched.Spawn("mid", 1, 0, [&] {
    sched.WaitUntil(q, sched.Now() + 600);
    order.push_back("mid@" + std::to_string(sched.Now()));
  });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_EQ(order, (std::vector<std::string>{"fast@300", "mid@600", "slow@900"}));
}

TEST(SchedulerTest, SameDeadlineTimersFireInArmingOrder) {
  // Both deadlines land at exactly t=500; the tie must break by arming
  // order (first armed fires first), reproducing FIFO insertion order.
  // Returns the ids in firing order.
  auto fire_order = [](SimTime start1, SimTime wait1, SimTime start2, SimTime wait2) {
    Scheduler sched;
    WaitQueue q;
    std::vector<int> order;
    sched.Spawn("id1", 1, start1, [&] {
      sched.WaitUntil(q, sched.Now() + wait1);
      order.push_back(1);
    });
    sched.Spawn("id2", 1, start2, [&] {
      sched.WaitUntil(q, sched.Now() + wait2);
      order.push_back(2);
    });
    EXPECT_EQ(sched.Run(), 0);
    return order;
  };
  EXPECT_EQ(fire_order(0, 500, 100, 400), (std::vector<int>{1, 2}));
  // The higher id arms first, so arming order and id order disagree.
  EXPECT_EQ(fire_order(100, 400, 0, 500), (std::vector<int>{2, 1}));
}

TEST(SchedulerTest, SurvivingTimeoutsFireInDeadlineThenArmingOrder) {
  // About 200 waiters arm timeouts, many on shared deadlines. A notifier
  // wakes random waiters early and kills others, so entries leave from the
  // middle of the queue while the rest are pending; every survivor must time
  // out at its own deadline, in (deadline, arming) order.
  for (unsigned seed = 1; seed <= 3; ++seed) {
    std::mt19937 rng(seed);
    Scheduler sched;
    constexpr int kWaiters = 200;
    struct Waiter {
      WaitQueue q;
      SimTime deadline = 0;
      int armed = -1;            // arming order
      SimTime woken_at = -1;     // the notifier's clock at its wake
      SimTime resumed_at = -1;
      bool notified = false;
      bool killed = false;
    };
    std::vector<Waiter> waiters(kWaiters);
    int armed = 0;
    std::vector<int> timed_out;  // waiter indices, in firing order
    for (int i = 0; i < kWaiters; ++i) {
      SimTime start = static_cast<SimTime>(rng() % 10) * 100;
      SimTime timeout = static_cast<SimTime>(1 + rng() % 40) * 100;
      sched.Spawn("waiter", static_cast<NodeId>(100 + i), start, [&, i, timeout] {
        Waiter& w = waiters[i];
        w.armed = armed++;
        w.deadline = sched.Now() + timeout;
        w.notified = sched.WaitUntil(w.q, w.deadline);
        w.resumed_at = sched.Now();
        if (!w.notified) {
          timed_out.push_back(i);
        }
      });
    }
    sched.Spawn("notifier", 1, 500, [&] {
      for (int step = 0; step < 150; ++step) {
        sched.Charge(static_cast<SimTime>(1 + rng() % 40));
        int i = static_cast<int>(rng() % kWaiters);
        if (!waiters[i].q.empty()) {
          if (rng() % 4 == 0) {
            waiters[i].killed = true;
            sched.KillWhere([i](const Task& t) { return t.node == static_cast<NodeId>(100 + i); });
          } else {
            waiters[i].woken_at = sched.Now();
            sched.NotifyOne(waiters[i].q);
          }
        }
        sched.Yield();
      }
    });
    EXPECT_EQ(sched.Run(), 0);

    int woken = 0;
    int killed = 0;
    for (const Waiter& w : waiters) {
      if (w.killed) {
        ++killed;
        EXPECT_EQ(w.resumed_at, -1) << "seed " << seed;
      } else if (w.woken_at >= 0) {
        ++woken;
        EXPECT_TRUE(w.notified) << "seed " << seed;
        EXPECT_EQ(w.resumed_at, w.woken_at) << "seed " << seed;
      } else {
        EXPECT_FALSE(w.notified) << "seed " << seed;
        EXPECT_EQ(w.resumed_at, w.deadline) << "seed " << seed;
      }
    }
    EXPECT_GT(woken, 0) << "seed " << seed;
    EXPECT_GT(killed, 0) << "seed " << seed;
    ASSERT_EQ(timed_out.size(), static_cast<size_t>(kWaiters - woken - killed)) << "seed " << seed;
    for (size_t k = 1; k < timed_out.size(); ++k) {
      const Waiter& a = waiters[timed_out[k - 1]];
      const Waiter& b = waiters[timed_out[k]];
      EXPECT_TRUE(a.deadline < b.deadline || (a.deadline == b.deadline && a.armed < b.armed))
          << "seed " << seed << ": waiter " << timed_out[k] << " fired after " << timed_out[k - 1];
    }
  }
}

TEST(SchedulerTest, SameTimeSelectionAlwaysPicksLowestId) {
  Scheduler sched;
  std::vector<std::string> trace;
  // The tie-break at equal virtual times is (time, id) — ids are assigned in
  // spawn order. A task yielding without advancing its clock is immediately
  // re-selected while it holds the lowest id, so each task drains all its
  // rounds before the next starts. Deterministic, and exactly the behaviour
  // of the original O(n) ready-scan the event queue replaced.
  for (int t = 0; t < 3; ++t) {
    sched.Spawn("t", 1, 0, [&, t] {
      for (int round = 0; round < 3; ++round) {
        trace.push_back(std::to_string(t) + ":" + std::to_string(round));
        sched.Yield();
      }
    });
  }
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_EQ(trace, (std::vector<std::string>{"0:0", "0:1", "0:2", "1:0", "1:1", "1:2",
                                             "2:0", "2:1", "2:2"}));
}

TEST(SchedulerTest, CancelledTimerDoesNotFireLater) {
  Scheduler sched;
  WaitQueue q;
  std::vector<std::string> events;
  sched.Spawn("waiter", 1, 0, [&] {
    // First wait is notified before its 10'000 deadline; the timer must be
    // purged eagerly — a later wait with a nearer deadline must be the one
    // that fires, and at its own time.
    bool notified = sched.WaitUntil(q, sched.Now() + 10'000);
    events.push_back(std::string(notified ? "notified" : "timeout") + "@" +
                     std::to_string(sched.Now()));
    notified = sched.WaitUntil(q, sched.Now() + 200);
    events.push_back(std::string(notified ? "notified" : "timeout") + "@" +
                     std::to_string(sched.Now()));
  });
  sched.Spawn("notifier", 1, 0, [&] {
    sched.Charge(50);
    sched.NotifyOne(q);
  });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_EQ(events, (std::vector<std::string>{"notified@50", "timeout@250"}));
}

TEST(SchedulerTest, StepCountIsDeterministic) {
  auto run = [] {
    Scheduler sched;
    WaitQueue q;
    for (int t = 0; t < 4; ++t) {
      sched.Spawn("t", 1, t * 10, [&] {
        sched.Charge(25);
        sched.Yield();
        sched.WaitUntil(q, sched.Now() + 100);
        sched.Charge(5);
      });
    }
    sched.Spawn("waker", 1, 60, [&] { sched.NotifyAll(q); });
    EXPECT_EQ(sched.Run(), 0);
    return sched.steps();
  };
  std::uint64_t first = run();
  EXPECT_GT(first, 0u);
  EXPECT_EQ(first, run());
}

TEST(SchedulerTest, NotifyAllWakesEveryWaiter) {
  Scheduler sched;
  WaitQueue q;
  int woken = 0;
  for (int i = 0; i < 5; ++i) {
    sched.Spawn("w", 1, 0, [&] {
      sched.Wait(q);
      ++woken;
    });
  }
  sched.Spawn("n", 1, 10, [&] { sched.NotifyAll(q); });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_EQ(woken, 5);
}

TEST(SchedulerTest, UnnotifiedWaiterReportedAsBlocked) {
  Scheduler sched;
  WaitQueue q;
  sched.Spawn("stuck", 1, 0, [&] { sched.Wait(q); });
  EXPECT_EQ(sched.Run(), 1);
}

TEST(SchedulerTest, SpawnFromInsideTask) {
  Scheduler sched;
  std::vector<int> order;
  sched.Spawn("parent", 1, 0, [&] {
    order.push_back(1);
    sched.Charge(100);
    sched.Spawn("child", 1, sched.Now() + 50, [&] { order.push_back(2); });
  });
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SchedulerTest, RepliesWaiterJoinsProducerClock) {
  Scheduler sched;
  Replies<int> replies(sched);
  std::optional<int> got;
  SimTime got_at = 0;
  sched.Spawn("consumer", 1, 0, [&] {
    got = replies.Next(1'000'000);
    got_at = sched.Now();
  });
  sched.Spawn("producer", 2, 40, [&] {
    sched.Charge(60);
    replies.Push(42);
  });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_EQ(got, 42);
  EXPECT_EQ(got_at, 100);
}

TEST(SchedulerTest, RepliesNextReturnsNulloptAtDeadline) {
  Scheduler sched;
  Replies<int> replies(sched);
  std::optional<int> got = 0;
  SimTime gave_up_at = 0;
  sched.Spawn("consumer", 1, 0, [&] {
    got = replies.Next(500);
    gave_up_at = sched.Now();
  });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(gave_up_at, 500);
}

TEST(SchedulerTest, RepliesTakesADeliveryAtTheDeadline) {
  Scheduler sched;
  Replies<int> replies(sched);
  std::optional<int> got;
  SimTime got_at = 0;
  sched.Spawn("consumer", 1, 0, [&] {
    got = replies.Next(500);
    got_at = sched.Now();
  });
  sched.Spawn("producer", 2, 500, [&] { replies.Push(7); });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_EQ(got, 7);
  EXPECT_EQ(got_at, 500);
}

TEST(SchedulerTest, RepliesReadsEveryDeliveryAndCountsEachSenderOnce) {
  // Node 1's reply is delivered twice, as a duplicated datagram would be.
  Scheduler sched;
  Replies<std::pair<NodeId, int>> replies(sched);
  std::vector<int> read;
  std::vector<bool> first;
  sched.Spawn("consumer", 1, 0, [&] {
    while (auto r = replies.Next(1'000)) {
      read.push_back(r->second);
      first.push_back(replies.First(r->first));
    }
  });
  sched.Spawn("producer", 2, 10, [&] {
    replies.Push({1, 10});
    replies.Push({2, 20});
    replies.Push({1, 11});
  });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_EQ(read, (std::vector<int>{10, 20, 11}));
  EXPECT_EQ(first, (std::vector<bool>{true, true, false}));
  EXPECT_EQ(replies.senders(), 2u);
}

TEST(SchedulerTest, RepliesOutliveAWaiterThatGaveUp) {
  // The waiter drops its reference when it gives up; the late producer's
  // push lands in a list only the producer still holds. ASan checks that
  // nothing touches freed memory.
  Scheduler sched;
  bool gave_up = false;
  bool pushed = false;
  sched.Spawn("consumer", 1, 0, [&] {
    auto replies = std::make_shared<Replies<int>>(sched);
    sched.Spawn("producer", 2, 1'000, [&pushed, replies] {
      replies->Push(1);
      pushed = true;
    });
    gave_up = !replies->Next(100).has_value();
  });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_TRUE(gave_up);
  EXPECT_TRUE(pushed);
}

TEST(SchedulerTest, KillWhereUnblocksVictim) {
  Scheduler sched;
  WaitQueue q;
  bool reached_after_wait = false;
  sched.Spawn("victim", 7, 0, [&] {
    sched.Wait(q);
    reached_after_wait = true;  // must never run: Wait throws TaskKilled
  });
  sched.Spawn("killer", 1, 10, [&] {
    sched.KillWhere([](const Task& t) { return t.node == 7; });
  });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_FALSE(reached_after_wait);
}

TEST(SchedulerTest, KillSelfThrows) {
  Scheduler sched;
  bool after = false;
  sched.Spawn("self", 9, 0, [&] {
    sched.KillWhere([](const Task& t) { return t.node == 9; });
    after = true;  // unreachable
  });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_FALSE(after);
}

TEST(SchedulerTest, AdvanceToOnlyMovesForward) {
  Scheduler sched;
  sched.Spawn("t", 1, 100, [&] {
    sched.AdvanceTo(50);
    EXPECT_EQ(sched.Now(), 100);
    sched.AdvanceTo(200);
    EXPECT_EQ(sched.Now(), 200);
  });
  sched.Run();
}

TEST(SchedulerTest, ManySequentialTasks) {
  Scheduler sched;
  int count = 0;
  for (int i = 0; i < 200; ++i) {
    sched.Spawn("t", 1, i, [&] { ++count; });
  }
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_EQ(count, 200);
}

TEST(FutureTest, FulfilBeforeAwaitReturnsWithoutWaiting) {
  Scheduler sched;
  sched.Spawn("t", 1, 0, [&] {
    Future<int> f(sched);
    EXPECT_FALSE(f.ready());
    f.Fulfil(7);
    EXPECT_TRUE(f.ready());
    SimTime t0 = sched.Now();
    EXPECT_TRUE(f.Await(100));
    EXPECT_EQ(sched.Now(), t0);  // already ready: no virtual time passes
    EXPECT_EQ(f.value(), 7);
  });
  EXPECT_EQ(sched.Run(), 0);
}

TEST(FutureTest, AwaitBlocksUntilFulfilledAndAdoptsFulfillerClock) {
  Scheduler sched;
  auto f = std::make_shared<Future<int>>(sched);
  bool resumed = false;
  sched.Spawn("waiter", 1, 0, [&] {
    EXPECT_TRUE(f->Await());
    EXPECT_EQ(f->value(), 42);
    // The waiter resumes no earlier than the fulfiller's clock.
    EXPECT_EQ(sched.Now(), 500);
    resumed = true;
  });
  sched.Spawn("producer", 2, 500, [&] { f->Fulfil(42); });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_TRUE(resumed);
}

TEST(FutureTest, AwaitTimesOutWhenNeverFulfilled) {
  Scheduler sched;
  auto f = std::make_shared<Future<int>>(sched);
  sched.Spawn("waiter", 1, 0, [&] {
    SimTime t0 = sched.Now();
    EXPECT_FALSE(f->Await(250));
    EXPECT_EQ(sched.Now(), t0 + 250);
    EXPECT_FALSE(f->ready());
  });
  EXPECT_EQ(sched.Run(), 0);
}

TEST(FutureTest, ManyWaitersAllWake) {
  Scheduler sched;
  auto f = std::make_shared<Future<int>>(sched);
  int woken = 0;
  for (int i = 0; i < 4; ++i) {
    sched.Spawn("waiter", 1, 0, [&] {
      EXPECT_TRUE(f->Await());
      ++woken;
    });
  }
  sched.Spawn("producer", 2, 10, [&] { f->Fulfil(1); });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_EQ(woken, 4);
}

TEST(SchedulerTest, DestructorUnwindsBlockedTasks) {
  auto sched = std::make_unique<Scheduler>();
  WaitQueue q;
  sched->Spawn("stuck", 1, 0, [&] { sched->Wait(q); });
  EXPECT_EQ(sched->Run(), 1);
  sched.reset();  // must not hang or leak stacks
  SUCCEED();
}

TEST(SchedulerTest, SpawnBurstMapsStacksOnlyForRunningTasks) {
  Scheduler sched;
  int finished = 0;
  // One task spawns 2,000 handlers at once, as a name-lookup broadcast does.
  // Stacks bind at first dispatch, and none of these handlers blocks, so the
  // whole burst runs on a handful of stacks; binding at Spawn would map 2,000.
  sched.Spawn("broadcast", 1, 0, [&] {
    for (int i = 0; i < 2000; ++i) {
      sched.Spawn("handler", 1, sched.Now() + i % 7, [&] {
        sched.Charge(3);
        ++finished;
      });
    }
  });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_EQ(finished, 2000);
  EXPECT_LE(sched.peak_stacks_mapped(), 4u);
  EXPECT_LE(sched.stacks_mapped(), 4u);
}

TEST(SchedulerTest, TaskKilledBeforeItsFirstDispatchTakesNoStack) {
  Scheduler sched;
  bool ran = false;
  sched.Spawn("killer", 1, 0, [&] {
    sched.KillWhere([](const Task& t) { return t.node == 9; });
  });
  sched.Spawn("never-runs", 9, 100, [&] { ran = true; });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_FALSE(ran);
  EXPECT_EQ(sched.peak_stacks_mapped(), 1u);  // the killer's
}

// Recurses `depth` frames, each holding a destructor-checked guard and a
// kilobyte of stack, then blocks on `q` at the bottom.
void BlockUnderDeepStack(Scheduler& sched, WaitQueue& q, int depth, TaskId owner,
                         int* unwound) {
  struct Guard {
    Scheduler& sched;
    TaskId owner;
    int* unwound;
    ~Guard() {
      // Destructors run as the killed task itself, on its own stack.
      EXPECT_EQ(sched.current()->id, owner);
      ++*unwound;
    }
  } guard{sched, owner, unwound};
  volatile char frame[1024];
  frame[depth % sizeof(frame)] = 1;
  if (depth == 0) {
    sched.Wait(q);
    ADD_FAILURE() << "a killed task's Wait() must throw";
    return;
  }
  BlockUnderDeepStack(sched, q, depth - 1, owner, unwound);
  frame[0] = frame[depth % sizeof(frame)];
}

TEST(SchedulerTest, KilledTaskUnwindsItsOwnStackWhichTheNextTaskReuses) {
  Scheduler sched;
  WaitQueue q;
  constexpr int kDepth = 64;
  int unwound = 0;
  std::uintptr_t victim_stack = 0;
  sched.Spawn("victim", 7, 0, [&] {
    int local = 0;
    victim_stack = reinterpret_cast<std::uintptr_t>(&local);
    BlockUnderDeepStack(sched, q, kDepth - 1, sched.current()->id, &unwound);
  });
  sched.Spawn("killer", 1, 10, [&] {
    sched.KillWhere([](const Task& t) { return t.node == 7; });
  });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_EQ(unwound, kDepth);
  const std::size_t mapped = sched.stacks_mapped();

  // The victim's stack went back to the pool; the next task to start takes
  // it rather than mapping another one.
  std::uintptr_t next_stack = 0;
  sched.Spawn("next", 1, 20, [&] {
    int local = 0;
    next_stack = reinterpret_cast<std::uintptr_t>(&local);
  });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_EQ(sched.stacks_mapped(), mapped);
  std::uintptr_t distance =
      next_stack > victim_stack ? next_stack - victim_stack : victim_stack - next_stack;
  EXPECT_LT(distance, 4096u);
}

TEST(SchedulerTest, WaitersKeepFifoOrderAfterTimeoutsAndKills) {
  Scheduler sched;
  WaitQueue q;
  std::vector<std::string> woke;
  // Waiters 0..7 queue in order. The head (0), a middle one (3) and the tail
  // (7) time out; 2 and 5 die with their node; 1, 4 and 6 remain and must be
  // woken in the order they queued.
  for (int i = 0; i < 8; ++i) {
    NodeId node = (i == 2 || i == 5) ? 9 : 1;
    SimTime timeout = (i == 0 || i == 3 || i == 7) ? 100 : -1;
    sched.Spawn("waiter", node, i, [&, i, timeout] {
      bool notified = true;
      if (timeout < 0) {
        sched.Wait(q);
      } else {
        notified = sched.WaitUntil(q, sched.Now() + timeout);
      }
      if (notified) {
        woke.push_back(std::to_string(i) + "@" + std::to_string(sched.Now()));
      }
    });
  }
  sched.Spawn("killer", 1, 200, [&] {
    sched.KillWhere([](const Task& t) { return t.node == 9; });
  });
  sched.Spawn("notifier", 1, 300, [&] {
    while (!q.empty()) {
      sched.NotifyOne(q);
      sched.Charge(10);
    }
  });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_EQ(woke, (std::vector<std::string>{"1@300", "4@310", "6@320"}));
}

TEST(BlockPoolTest, ReleasedBlockServesTheNextOfItsSize) {
  Scheduler sched;
  FuturePtr<int> first = MakeShared<Future<int>>(sched, sched);
  const Future<int>* released = first.get();
  EXPECT_EQ(sched.blocks().outstanding(), 1u);
  first.reset();
  EXPECT_EQ(sched.blocks().outstanding(), 0u);
  // A block of another size class does not take it; the next future does.
  RepliesPtr<int> round = MakeShared<Replies<int>>(sched, sched);
  FuturePtr<int> next = MakeShared<Future<int>>(sched, sched);
  EXPECT_EQ(next.get(), released);
  EXPECT_FALSE(next->ready());
  EXPECT_EQ(sched.blocks().outstanding(), 2u);
}

TEST(BlockPoolTest, StalePointerIntoAReleasedFutureReports) {
#if __has_feature(address_sanitizer) || defined(__SANITIZE_ADDRESS__)
  Scheduler sched;
  FuturePtr<int> f = MakeShared<Future<int>>(sched, sched);
  Future<int>* stale = f.get();
  f.reset();
  EXPECT_DEATH(
      {
        volatile bool ready = stale->ready();
        (void)ready;
      },
      "use-after-poison");
  FuturePtr<int> reused = MakeShared<Future<int>>(sched, sched);
  EXPECT_FALSE(stale->ready());  // handed out again, it reads as usual
#else
  GTEST_SKIP() << "released blocks are poisoned only under AddressSanitizer";
#endif
}

TEST(BlockPoolTest, SchedulerDestroyedWhileABlockIsHeldAsserts) {
#ifdef NDEBUG
  GTEST_SKIP() << "the outstanding-block check is an assertion";
#else
  EXPECT_DEATH(
      {
        auto sched = std::make_unique<Scheduler>();
        FuturePtr<int> held = MakeShared<Future<int>>(*sched, *sched);
        sched.reset();
      },
      "outlived its scheduler");
#endif
}

}  // namespace
}  // namespace tabs::sim
