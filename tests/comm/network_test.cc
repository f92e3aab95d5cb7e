// Network and Communication Manager tests: session semantics, datagram
// loss, broadcast, partitions, spanning-tree construction.

#include "src/comm/comm_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "src/comm/network.h"

namespace tabs::comm {
namespace {

using sim::CostModel;
using sim::Primitive;

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest()
      : substrate_(sched_, CostModel::Baseline(), sim::ArchitectureModel::Prototype()),
        net_(substrate_) {
    net_.AddNode(1);
    net_.AddNode(2);
    net_.AddNode(3);
  }

  sim::Scheduler sched_;
  sim::Substrate substrate_;
  Network net_;
};

TEST_F(NetworkTest, SessionCallReturnsHandlerValueWithLatency) {
  int got = 0;
  SimTime elapsed = 0;
  sched_.Spawn("caller", 1, 0, [&] {
    SimTime t0 = sched_.Now();
    auto r = net_.SessionCall<int>(1, 2, "f", [] { return 42; });
    elapsed = sched_.Now() - t0;
    ASSERT_TRUE(r.ok());
    got = r.value();
  });
  EXPECT_EQ(sched_.Run(), 0);
  EXPECT_EQ(got, 42);
  EXPECT_EQ(elapsed, CostModel::Baseline().Of(Primitive::kInterNodeDataServerCall));
}

TEST_F(NetworkTest, SessionHandlerTimeAddsToCallerLatency) {
  SimTime elapsed = 0;
  sched_.Spawn("caller", 1, 0, [&] {
    SimTime t0 = sched_.Now();
    net_.SessionCall<int>(1, 2, "slow", [&] {
      sched_.Charge(500'000);  // 500 ms of remote work
      return 1;
    });
    elapsed = sched_.Now() - t0;
  });
  EXPECT_EQ(sched_.Run(), 0);
  EXPECT_EQ(elapsed, 89'000 + 500'000);
}

TEST_F(NetworkTest, SessionToDeadNodeFailsFast) {
  net_.SetAlive(2, false);
  Status status = Status::kOk;
  sched_.Spawn("caller", 1, 0, [&] {
    auto r = net_.SessionCall<int>(1, 2, "f", [] { return 1; });
    status = r.status();
  });
  EXPECT_EQ(sched_.Run(), 0);
  EXPECT_EQ(status, Status::kNodeDown);
}

TEST_F(NetworkTest, SessionDetectsCrashMidCall) {
  Status status = Status::kOk;
  sched_.Spawn("caller", 1, 0, [&] {
    auto r = net_.SessionCall<int>(1, 2, "f", [&]() -> int {
      net_.SetAlive(2, false);  // the destination dies while handling
      sched_.KillWhere([](const sim::Task& t) { return t.node == 2; });
      return 1;  // unreachable
    });
    status = r.status();
  });
  EXPECT_EQ(sched_.Run(), 0);
  EXPECT_EQ(status, Status::kNodeDown);  // session timeout detected the crash
}

TEST_F(NetworkTest, DatagramDeliveredOneWay) {
  bool delivered = false;
  SimTime sender_after = -1;
  SimTime receiver_at = -1;
  sched_.Spawn("sender", 1, 0, [&] {
    net_.SendDatagram(1, 2, "d", [&] {
      delivered = true;
      receiver_at = sched_.Now();
    });
    sender_after = sched_.Now();
  });
  EXPECT_EQ(sched_.Run(), 0);
  EXPECT_TRUE(delivered);
  EXPECT_EQ(sender_after, 0);          // fire and forget
  EXPECT_EQ(receiver_at, 25'000);      // one datagram time later
}

TEST_F(NetworkTest, InFlightDeliveriesDieWithTheirDestination) {
  // Node 2 crashes and is back up before either message arrives. Neither
  // delivery task checks liveness: the crash killed them in flight.
  bool datagram_ran = false;
  bool session_ran = false;
  Status status = Status::kOk;
  sched_.Spawn("sender", 1, 0, [&] {
    net_.SendDatagram(1, 2, "d", [&] { datagram_ran = true; });
  });
  sched_.Spawn("caller", 3, 0, [&] {
    auto r = net_.SessionCall<int>(3, 2, "f", [&] {
      session_ran = true;
      return 1;
    });
    status = r.status();
  });
  sched_.Spawn("crash", 1, 10'000, [&] {
    net_.SetAlive(2, false);
    sched_.KillWhere([](const sim::Task& t) { return t.node == 2; });
    net_.SetAlive(2, true);
  });
  EXPECT_EQ(sched_.Run(), 0);
  EXPECT_FALSE(datagram_ran);
  EXPECT_FALSE(session_ran);
  EXPECT_EQ(status, Status::kNodeDown);
}

TEST_F(NetworkTest, DatagramLossFilterDrops) {
  net_.SetDatagramLoss([](NodeId from, NodeId to, const std::string&) { return to == 2; });
  int delivered = 0;
  sched_.Spawn("sender", 1, 0, [&] {
    net_.SendDatagram(1, 2, "lost", [&] { ++delivered; });
    net_.SendDatagram(1, 3, "ok", [&] { ++delivered; });
  });
  EXPECT_EQ(sched_.Run(), 0);
  EXPECT_EQ(delivered, 1);
}

TEST_F(NetworkTest, BroadcastReachesAllLiveNodes) {
  std::set<NodeId> reached;
  net_.SetAlive(3, false);
  sched_.Spawn("sender", 1, 0, [&] {
    net_.Broadcast(1, "b", [&](NodeId n) { reached.insert(n); });
  });
  EXPECT_EQ(sched_.Run(), 0);
  EXPECT_EQ(reached, (std::set<NodeId>{2}));  // not self, not dead node 3
}

TEST_F(NetworkTest, PartitionBlocksBothDirections) {
  net_.SetPartitioned(1, 2, true);
  EXPECT_FALSE(net_.Reachable(1, 2));
  EXPECT_FALSE(net_.Reachable(2, 1));
  EXPECT_TRUE(net_.Reachable(1, 3));
  net_.SetPartitioned(1, 2, false);
  EXPECT_TRUE(net_.Reachable(1, 2));
}

// A stand-in for the Transaction Manager's record of the spanning tree: it
// logs every edge the Communication Manager reports and, like the TM, keeps a
// transaction's parent from the first contact only and each child once.
class RecordingTreeListener : public TransactionTreeListener {
 public:
  struct Edge {
    bool to_parent;
    NodeId node;
    bool operator==(const Edge&) const = default;
  };

  bool OnRemoteParentObserved(const TransactionId& tid, NodeId parent) override {
    edges[tid].push_back({true, parent});
    return parents.try_emplace(tid, parent).second;
  }
  bool OnChildObserved(const TransactionId& tid, NodeId child) override {
    edges[tid].push_back({false, child});
    return children[tid].insert(child).second;
  }

  std::map<TransactionId, std::vector<Edge>> edges;  // every report, in order
  std::map<TransactionId, NodeId> parents;
  std::map<TransactionId, std::set<NodeId>> children;
};

double SmallMessages(sim::Substrate& substrate) {
  return substrate.metrics().Total().Of(Primitive::kSmallMessage);
}

TEST_F(NetworkTest, CommManagerBuildsSpanningTreeBothEnds) {
  CommManager cm1(1, net_);
  CommManager cm2(2, net_);
  CommManager cm3(3, net_);
  RecordingTreeListener tree1;
  RecordingTreeListener tree2;
  RecordingTreeListener tree3;
  cm1.SetListener(&tree1);
  cm2.SetListener(&tree2);
  cm3.SetListener(&tree3);
  TransactionId tid{1, 7};
  double after_first = 0;
  sched_.Spawn("app", 1, 0, [&] {
    cm1.RemoteCall<int>(tid, cm2, "op", [&] {
      // Nested call: node 2 calls node 3 on behalf of the same transaction.
      cm2.RemoteCall<int>(tid, cm3, "nested", [] { return 0; });
      return 0;
    });
    after_first = SmallMessages(substrate_);
    // A repeat call reports both ends again, but neither edge is new.
    cm1.RemoteCall<int>(tid, cm2, "again", [] { return 0; });
  });
  EXPECT_EQ(sched_.Run(), 0);
  using Edge = RecordingTreeListener::Edge;
  EXPECT_EQ(tree1.edges[tid], (std::vector<Edge>{{false, 2}, {false, 2}}));
  EXPECT_EQ(tree2.edges[tid], (std::vector<Edge>{{true, 1}, {false, 3}, {true, 1}}));
  EXPECT_EQ(tree3.edges[tid], (std::vector<Edge>{{true, 2}}));
  EXPECT_FALSE(tree1.parents.contains(tid));  // rooted at node 1
  EXPECT_EQ(tree2.parents[tid], 1u);
  EXPECT_EQ(tree3.parents[tid], 2u);
  EXPECT_EQ(tree1.children[tid], (std::set<NodeId>{2}));
  EXPECT_EQ(tree2.children[tid], (std::set<NodeId>{3}));
  EXPECT_FALSE(tree3.children.contains(tid));
  // One small message per new edge at each end (1->2 and 2->3), none for
  // the repeat call.
  EXPECT_EQ(after_first, 4.0);
  EXPECT_EQ(SmallMessages(substrate_), 4.0);
}

TEST_F(NetworkTest, ParentIsFirstContactOnly) {
  // "A node A is a parent of node B iff A was the first node to invoke an
  // operation on behalf of the transaction on B." The CM reports node 2's
  // later contact too; the record keeps the first.
  CommManager cm1(1, net_);
  CommManager cm2(2, net_);
  CommManager cm3(3, net_);
  RecordingTreeListener tree3;
  cm3.SetListener(&tree3);
  TransactionId tid{1, 9};
  sched_.Spawn("app", 1, 0, [&] {
    cm1.RemoteCall<int>(tid, cm3, "first", [] { return 0; });
    cm1.RemoteCall<int>(tid, cm2, "via2", [&] {
      cm2.RemoteCall<int>(tid, cm3, "second-contact", [] { return 0; });
      return 0;
    });
  });
  EXPECT_EQ(sched_.Run(), 0);
  using Edge = RecordingTreeListener::Edge;
  EXPECT_EQ(tree3.edges[tid], (std::vector<Edge>{{true, 1}, {true, 2}}));
  EXPECT_EQ(tree3.parents[tid], 1u);  // node 2's later contact doesn't re-parent
  // Only node 3's first contact is new; nodes 1 and 2 have no listener.
  EXPECT_EQ(SmallMessages(substrate_), 1.0);
}

TEST_F(NetworkTest, SessionLossSurfacesAsNodeDownAndIsCounted) {
  net_.SetSessionLoss([](NodeId from, NodeId to) { return from == 1 && to == 2; });
  Status dropped = Status::kOk;
  Status other_direction = Status::kNodeDown;
  sched_.Spawn("caller", 1, 0, [&] {
    dropped = net_.SessionCall<int>(1, 2, "f", [] { return 1; }).status();
    other_direction = net_.SessionCall<int>(1, 3, "g", [] { return 1; }).status();
  });
  EXPECT_EQ(sched_.Run(), 0);
  EXPECT_EQ(dropped, Status::kNodeDown);
  EXPECT_EQ(other_direction, Status::kOk);  // the filter is per-pair
  EXPECT_EQ(substrate_.metrics().faults_injected(sim::FaultKind::kSessionDrop), 1);

  net_.SetSessionLoss({});
  Status after_clear = Status::kNodeDown;
  sched_.Spawn("caller2", 1, 0, [&] {
    after_clear = net_.SessionCall<int>(1, 2, "f", [] { return 1; }).status();
  });
  EXPECT_EQ(sched_.Run(), 0);
  EXPECT_EQ(after_clear, Status::kOk);
}

TEST_F(NetworkTest, DatagramDuplicationDeliversHandlerTwice) {
  // duplicate_probability = 1: every datagram arrives twice.
  net_.SetDatagramFaults({/*seed=*/1, /*duplicate_probability=*/1.0,
                          /*jitter_probability=*/0.0, /*max_jitter_us=*/0});
  int deliveries = 0;
  sched_.Spawn("sender", 1, 0,
               [&] { net_.SendDatagram(1, 2, "dup", [&] { ++deliveries; }); });
  EXPECT_EQ(sched_.Run(), 0);
  EXPECT_EQ(deliveries, 2);
  EXPECT_EQ(substrate_.metrics().faults_injected(sim::FaultKind::kDatagramDuplicate), 1);
}

TEST_F(NetworkTest, DatagramFaultsAreDeterministicPerSeed) {
  auto run = [this](std::uint64_t seed) {
    net_.SetDatagramFaults({seed, /*duplicate_probability=*/0.5,
                            /*jitter_probability=*/0.5, /*max_jitter_us=*/3000});
    std::vector<SimTime> arrivals;
    sched_.Spawn("sender", 1, 0, [&] {
      for (int i = 0; i < 10; ++i) {
        net_.SendDatagram(1, 2, "d", [&] { arrivals.push_back(sched_.Now()); });
      }
    });
    EXPECT_EQ(sched_.Run(), 0);
    return arrivals;
  };
  std::vector<SimTime> first = run(7);
  std::vector<SimTime> replay = run(7);
  EXPECT_EQ(first, replay);  // same seed, same duplicates and jitter
  EXPECT_GT(first.size(), 10u);  // some datagram duplicated
  std::vector<SimTime> other = run(8);
  EXPECT_NE(first, other);  // a different seed perturbs the schedule
}

TEST_F(NetworkTest, JitterCanReorderDatagrams) {
  // Only jitter, always on, large bound: with several sends, some pair
  // arrives out of program order (deterministically, given the seed).
  net_.SetDatagramFaults({/*seed=*/3, /*duplicate_probability=*/0.0,
                          /*jitter_probability=*/0.5, /*max_jitter_us=*/200'000});
  std::vector<int> order;
  sched_.Spawn("sender", 1, 0, [&] {
    for (int i = 0; i < 8; ++i) {
      net_.SendDatagram(1, 2, "d", [&order, i] { order.push_back(i); });
    }
  });
  EXPECT_EQ(sched_.Run(), 0);
  ASSERT_EQ(order.size(), 8u);
  EXPECT_FALSE(std::is_sorted(order.begin(), order.end()))
      << "jitter never reordered anything; weaken the seed or raise the bound";
}

TEST_F(NetworkTest, RemoteCallToPartitionedNodeDoesNotGrowTree) {
  CommManager cm1(1, net_);
  CommManager cm2(2, net_);
  RecordingTreeListener tree1;
  RecordingTreeListener tree2;
  cm1.SetListener(&tree1);
  cm2.SetListener(&tree2);
  net_.SetPartitioned(1, 2, true);
  TransactionId tid{1, 11};
  Status status = Status::kOk;
  sched_.Spawn("app", 1, 0, [&] {
    auto r = cm1.RemoteCall<int>(tid, cm2, "op", [] { return 0; });
    status = r.status();
  });
  EXPECT_EQ(sched_.Run(), 0);
  EXPECT_EQ(status, Status::kNodeDown);
  EXPECT_TRUE(tree1.edges.empty());
  EXPECT_TRUE(tree2.edges.empty());
  EXPECT_EQ(SmallMessages(substrate_), 0.0);
}

// --- blocking vs awaited session calls ---------------------------------------
// A blocking SessionCall must be indistinguishable from AsyncSessionCall
// followed by Await: the same status and value, the caller's clock at the
// same time, and the same charges and injected faults. Each case runs on two
// fresh, identical networks, one per form.

struct CallOutcome {
  Status status = Status::kOk;
  int value = -1;
  SimTime clock = -1;
  sim::PrimitiveCounts total;
  double session_drops = 0;
};

CallOutcome RunOneCall(bool awaited, const std::function<void(Network&)>& setup,
                       const std::function<int(sim::Scheduler&, Network&)>& remote) {
  sim::Scheduler sched;
  sim::Substrate substrate(sched, CostModel::Baseline(), sim::ArchitectureModel::Prototype());
  Network net(substrate);
  for (NodeId n : {1, 2, 3}) {
    net.AddNode(n);
  }
  setup(net);
  CallOutcome out;
  sched.Spawn("caller", 1, 0, [&] {
    auto handler = [&] { return remote(sched, net); };
    Result<int> r(Status::kNodeDown);
    if (awaited) {
      auto f = net.AsyncSessionCall<int>(1, 2, "f", handler);
      if (f->Await(Network::kDefaultSessionTimeout)) {
        r = f->value();
      }
    } else {
      r = net.SessionCall<int>(1, 2, "f", handler);
    }
    out.status = r.status();
    out.value = r.value_or(-1);
    out.clock = sched.Now();
  });
  EXPECT_EQ(sched.Run(), 0);
  out.total = substrate.metrics().Total();
  out.session_drops = substrate.metrics().faults_injected(sim::FaultKind::kSessionDrop);
  return out;
}

// Returns the (shared) outcome so each case can also check what it was.
CallOutcome ExpectSameOutcome(const std::function<void(Network&)>& setup,
                              const std::function<int(sim::Scheduler&, Network&)>& remote) {
  CallOutcome blocking = RunOneCall(false, setup, remote);
  CallOutcome awaited = RunOneCall(true, setup, remote);
  EXPECT_EQ(blocking.status, awaited.status);
  EXPECT_EQ(blocking.value, awaited.value);
  EXPECT_EQ(blocking.clock, awaited.clock);
  EXPECT_EQ(blocking.total.count, awaited.total.count);
  EXPECT_EQ(blocking.session_drops, awaited.session_drops);
  return blocking;
}

TEST(SessionEquivalenceTest, Success) {
  CallOutcome out = ExpectSameOutcome([](Network&) {},
                                      [](sim::Scheduler& sched, Network&) {
                                        sched.Charge(7'000);  // 7 ms of remote work
                                        return 42;
                                      });
  EXPECT_EQ(out.value, 42);
  EXPECT_EQ(out.clock, 7'000 + CostModel::Baseline().Of(Primitive::kInterNodeDataServerCall));
}

TEST(SessionEquivalenceTest, UnreachableDestination) {
  CallOutcome out = ExpectSameOutcome([](Network& net) { net.SetAlive(2, false); },
                                      [](sim::Scheduler&, Network&) { return 1; });
  EXPECT_EQ(out.status, Status::kNodeDown);
}

TEST(SessionEquivalenceTest, InjectedSessionDrop) {
  CallOutcome out = ExpectSameOutcome(
      [](Network& net) { net.SetSessionLoss([](NodeId, NodeId to) { return to == 2; }); },
      [](sim::Scheduler&, Network&) { return 1; });
  EXPECT_EQ(out.status, Status::kNodeDown);
  EXPECT_EQ(out.session_drops, 1);
}

TEST(SessionEquivalenceTest, DestinationCrashesMidCall) {
  CallOutcome out = ExpectSameOutcome([](Network&) {},
                                      [](sim::Scheduler& sched, Network& net) {
                                        net.SetAlive(2, false);
                                        sched.KillWhere(
                                            [](const sim::Task& t) { return t.node == 2; });
                                        return 1;  // unreachable
                                      });
  EXPECT_EQ(out.status, Status::kNodeDown);  // the session timeout detected it
  EXPECT_GE(out.clock, Network::kDefaultSessionTimeout);
}

}  // namespace
}  // namespace tabs::comm
