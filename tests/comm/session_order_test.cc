// Session-communication semantics: ordered at-most-once delivery between a
// node pair, and scheduler behaviour under heavier task loads.

#include <gtest/gtest.h>

#include "src/comm/network.h"
#include "src/sim/scheduler.h"

namespace tabs::comm {
namespace {

TEST(SessionOrderTest, SequentialCallsExecuteInOrder) {
  sim::Scheduler sched;
  sim::Substrate substrate(sched, sim::CostModel::Baseline(),
                           sim::ArchitectureModel::Prototype());
  Network net(substrate);
  net.AddNode(1);
  net.AddNode(2);
  std::vector<int> order;
  sched.Spawn("caller", 1, 0, [&] {
    for (int i = 0; i < 5; ++i) {
      net.SessionCall<int>(1, 2, "op", [&order, i] {
        order.push_back(i);
        return i;
      });
    }
  });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SessionOrderTest, DatagramsFromOneSenderArriveInSendOrder) {
  sim::Scheduler sched;
  sim::Substrate substrate(sched, sim::CostModel::Baseline(),
                           sim::ArchitectureModel::Prototype());
  Network net(substrate);
  net.AddNode(1);
  net.AddNode(2);
  std::vector<int> arrivals;
  sched.Spawn("sender", 1, 0, [&] {
    for (int i = 0; i < 5; ++i) {
      net.SendDatagram(1, 2, "d", [&arrivals, i] { arrivals.push_back(i); });
      sched.Charge(1'000);  // strictly increasing send times
    }
  });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_EQ(arrivals, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SessionOrderTest, InterleavedCallersShareTheDestinationFairly) {
  sim::Scheduler sched;
  sim::Substrate substrate(sched, sim::CostModel::Baseline(),
                           sim::ArchitectureModel::Prototype());
  Network net(substrate);
  for (NodeId n = 1; n <= 3; ++n) {
    net.AddNode(n);
  }
  int handled = 0;
  for (NodeId caller = 1; caller <= 2; ++caller) {
    sched.Spawn("caller", caller, caller * 100, [&net, &sched, &handled, caller] {
      for (int i = 0; i < 10; ++i) {
        auto r = net.SessionCall<int>(caller, 3, "op", [&handled] { return ++handled; });
        EXPECT_TRUE(r.ok());
      }
    });
  }
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_EQ(handled, 20);
}

TEST(SchedulerStressTest, ManyNestedSpawnsDrainCompletely) {
  sim::Scheduler sched;
  int completed = 0;
  // Each task spawns two children until depth 6: 2^7 - 1 = 127 tasks.
  std::function<void(int)> spawn_tree = [&](int depth) {
    ++completed;
    if (depth == 0) {
      return;
    }
    for (int i = 0; i < 2; ++i) {
      sched.Spawn("child", 1, sched.Now() + 10, [&, depth] { spawn_tree(depth - 1); });
    }
  };
  sched.Spawn("root", 1, 0, [&] { spawn_tree(6); });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_EQ(completed, 127);
}

TEST(SchedulerStressTest, WaitersAndNotifiersAtScale) {
  sim::Scheduler sched;
  sim::WaitQueue queue;
  int woken = 0;
  for (int i = 0; i < 64; ++i) {
    sched.Spawn("waiter", 1, i, [&] {
      if (sched.WaitUntil(queue, sched.Now() + 1'000'000)) {
        ++woken;
      }
    });
  }
  sched.Spawn("notifier", 2, 500, [&] {
    for (int i = 0; i < 64; ++i) {
      sched.Charge(10);
      sched.NotifyOne(queue);
    }
  });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_EQ(woken, 64);
}

}  // namespace
}  // namespace tabs::comm
