// Model-based fuzz for the weak queue: random enqueue/dequeue/abort traffic
// checked against a multiset (weak queues promise set semantics with
// failure atomicity, not FIFO order), with crashes mixed in.

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "src/servers/weak_queue_server.h"
#include "src/tabs/world.h"

namespace tabs {
namespace {

using servers::WeakQueueServer;

// Traffic and the drain run on `client` against a queue on node 1, which
// crashes and recovers every round. With the client on node 2 every commit
// crosses nodes, so under Paxos Commit it runs the distributed commit, also
// after recovery.
void RunQueueFuzz(unsigned seed, NodeId client) {
  std::mt19937 rng(seed);
  World world(2);
  auto* q = world.AddServerOf<WeakQueueServer>(1, "q", 24u);
  std::multiset<std::int32_t> model;  // committed contents
  std::int32_t next_value = 0;

  for (int round = 0; round < 8; ++round) {
    world.RunApp(client, [&](Application& app) {
      for (int step = 0; step < 12; ++step) {
        switch (rng() % 4) {
          case 0: {  // committed enqueue (if capacity permits)
            std::int32_t v = next_value++;
            Status s = app.Transaction(
                [&](const server::Tx& tx) { return q->Enqueue(tx, v); });
            if (s == Status::kOk) {
              model.insert(v);
            }
            break;
          }
          case 1: {  // aborted enqueue: leaves only a gap
            TransactionId t = app.Begin();
            q->Enqueue(app.MakeTx(t), next_value++);
            app.Abort(t);
            break;
          }
          case 2: {  // committed dequeue
            std::int32_t got = 0;
            Status s = app.Transaction([&](const server::Tx& tx) {
              auto v = q->Dequeue(tx);
              if (!v.ok()) {
                return v.status();
              }
              got = v.value();
              return Status::kOk;
            });
            if (s == Status::kOk) {
              auto it = model.find(got);
              ASSERT_NE(it, model.end()) << "dequeued a value not in the model: " << got;
              model.erase(it);
            } else {
              EXPECT_TRUE(model.empty()) << "dequeue failed with items present";
            }
            break;
          }
          default: {  // aborted dequeue: the element must reappear
            TransactionId t = app.Begin();
            q->Dequeue(app.MakeTx(t));
            app.Abort(t);
            break;
          }
        }
      }
      if (rng() % 2 == 0) {
        world.rm(1).log().ForceAll();
      }
      world.CrashNode(1);
    });
    world.RunApp(2, [&](Application&) {
      world.RecoverNode(1);
      q = world.Server<WeakQueueServer>(1, "q");
    });
    // Drain completely and compare against the model.
    std::multiset<std::int32_t> drained;
    world.RunApp(client, [&](Application& app) {
      for (;;) {
        std::int32_t got = 0;
        Status s = app.Transaction([&](const server::Tx& tx) {
          auto v = q->Dequeue(tx);
          if (!v.ok()) {
            return v.status();
          }
          got = v.value();
          return Status::kOk;
        });
        if (s != Status::kOk) {
          break;
        }
        drained.insert(got);
      }
    });
    EXPECT_EQ(drained, model) << "round " << round << " seed " << seed << " client " << client;
    model.clear();
  }
}

class WeakQueueFuzzTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(WeakQueueFuzzTest, ContentsMatchMultisetModel) { RunQueueFuzz(GetParam(), 1); }

TEST_P(WeakQueueFuzzTest, RemoteClientContentsMatchMultisetModel) {
  RunQueueFuzz(GetParam(), 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeakQueueFuzzTest, ::testing::Values(8u, 80u, 808u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace tabs
