// Resolver tests: lookup caching, sharded-service resolution, and behaviour
// under churn — crashed peers during broadcast, re-registration after
// recovery, and stale-binding invalidation.

#include "src/name/resolver.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/placement/shard_map.h"

namespace tabs::name {
namespace {

constexpr SimTime kWait = 300'000;  // short waits keep churn tests quick

class ResolverTest : public ::testing::Test {
 protected:
  ResolverTest()
      : substrate_(sched_, sim::CostModel::Baseline(), sim::ArchitectureModel::Prototype()),
        resolver_(kWait) {
    for (NodeId n = 1; n <= 3; ++n) {
      net_.AddNode(n);
      cms_.push_back(std::make_unique<comm::CommManager>(n, net_));
      servers_.push_back(std::make_unique<NameServer>(*cms_.back()));
      peers_[n] = servers_.back().get();
    }
    for (auto& s : servers_) {
      s->SetPeers(&peers_);
    }
  }

  NameServer& ns(NodeId n) { return *servers_[n - 1]; }

  // Registers a 3-shard service, shard n-1 on node n, instance "svc#<shard>".
  void RegisterShardedService(const std::string& service) {
    for (NodeId n = 1; n <= 3; ++n) {
      std::uint32_t shard = n - 1;
      ns(n).Register(service,
                     Binding{n, placement::ShardInstanceName(service, shard), {7, shard, 3}});
    }
  }

  void CrashNode(NodeId n) {
    net_.SetAlive(n, false);
    peers_[n] = nullptr;
  }

  void ReviveNode(NodeId n) {
    net_.SetAlive(n, true);
    peers_[n] = servers_[n - 1].get();
  }

  void RunTask(const std::function<void()>& body) {
    sched_.Spawn("t", 1, 0, body);
    EXPECT_EQ(sched_.Run(), 0);
  }

  sim::Scheduler sched_;
  sim::Substrate substrate_;
  comm::Network net_{substrate_};
  std::vector<std::unique_ptr<comm::CommManager>> cms_;
  std::vector<std::unique_ptr<NameServer>> servers_;
  std::map<NodeId, NameServer*> peers_;
  Resolver resolver_;
};

TEST_F(ResolverTest, SecondResolveIsACacheHit) {
  ns(1).Register("printer", Binding{1, "printer", {1, 0, 1}});
  RunTask([&] {
    auto first = resolver_.ResolveService(ns(1), "printer").bindings;
    ASSERT_EQ(first.size(), 1u);
    auto second = resolver_.ResolveService(ns(1), "printer").bindings;
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(second[0], first[0]);
  });
  EXPECT_EQ(resolver_.stats().lookups, 1u);
  EXPECT_EQ(resolver_.stats().cache_hits, 1u);
}

TEST_F(ResolverTest, ResolveServiceGathersEveryShard) {
  RegisterShardedService("accounts");
  RunTask([&] {
    auto res = resolver_.ResolveService(ns(2), "accounts");
    EXPECT_EQ(res.expected, 3u);
    ASSERT_EQ(res.bindings.size(), 3u);
    EXPECT_TRUE(res.complete());
    auto map = placement::ShardMap::FromBindings("accounts", res.bindings);
    ASSERT_TRUE(map.ok());
    EXPECT_EQ(map.value().shard_count(), 3u);
    for (std::uint32_t s = 0; s < 3; ++s) {
      EXPECT_EQ(map.value().binding(s).node, s + 1);
    }
  });
}

TEST_F(ResolverTest, CrashedPeerYieldsIncompleteResolution) {
  RegisterShardedService("accounts");
  CrashNode(3);
  RunTask([&] {
    auto res = resolver_.ResolveService(ns(1), "accounts");
    EXPECT_EQ(res.expected, 3u);
    EXPECT_EQ(res.bindings.size(), 2u);  // node 3 never answered the broadcast
    EXPECT_FALSE(res.complete());
    // A shard map cannot be built from the partial set.
    EXPECT_FALSE(placement::ShardMap::FromBindings("accounts", res.bindings).ok());
  });
}

TEST_F(ResolverTest, IncompleteResolutionIsNotServedFromCache) {
  RegisterShardedService("accounts");
  CrashNode(3);
  RunTask([&] {
    auto res = resolver_.ResolveService(ns(1), "accounts");
    EXPECT_FALSE(res.complete());
  });
  std::uint64_t lookups_after_partial = resolver_.stats().lookups;

  // The node recovers and re-registers (recovery re-runs registration); the
  // next ResolveService must go back to the network, not trust the partial
  // cache, and now sees all three shards.
  ReviveNode(3);
  RunTask([&] {
    auto res = resolver_.ResolveService(ns(1), "accounts");
    EXPECT_TRUE(res.complete());
    EXPECT_EQ(res.bindings.size(), 3u);
  });
  EXPECT_GT(resolver_.stats().lookups, lookups_after_partial);
}

TEST_F(ResolverTest, UnknownNameIsNotCachedAsEmpty) {
  RunTask([&] { EXPECT_TRUE(resolver_.ResolveService(ns(1), "nothing").bindings.empty()); });
  // Late registration is visible: the empty result was not cached.
  ns(2).Register("nothing", Binding{2, "late", {1, 0, 1}});
  RunTask([&] {
    auto found = resolver_.ResolveService(ns(1), "nothing").bindings;
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].node, 2u);
  });
}

TEST_F(ResolverTest, InvalidateNodeDropsOnlyThatNodesBindings) {
  RegisterShardedService("accounts");
  ns(1).Register("printer", Binding{1, "printer", {1, 0, 1}});
  RunTask([&] {
    resolver_.ResolveService(ns(1), "accounts");
    resolver_.ResolveService(ns(1), "printer");
  });
  std::uint64_t lookups_before = resolver_.stats().lookups;

  resolver_.InvalidateNode(2);
  EXPECT_EQ(resolver_.stats().invalidations, 1u);

  RunTask([&] {
    // "printer" (node 1) is still served from cache; "accounts" lost its
    // node-2 shard and must re-resolve.
    resolver_.ResolveService(ns(1), "printer");
    EXPECT_EQ(resolver_.stats().lookups, lookups_before);
    auto res = resolver_.ResolveService(ns(1), "accounts");
    EXPECT_TRUE(res.complete());
  });
  EXPECT_GT(resolver_.stats().lookups, lookups_before);
}

TEST_F(ResolverTest, StaleBindingHealsAfterInvalidate) {
  // A service moves: the binding the resolver cached goes stale. Invalidate
  // forces the next resolve back to the Name Server, which finds the new
  // home.
  Binding old_home{3, "svc", {1, 0, 1}};
  ns(3).Register("svc", old_home);
  RunTask([&] {
    auto found = resolver_.ResolveService(ns(1), "svc").bindings;
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].node, 3u);
  });

  // Node 3 dies; the service is re-registered on node 2. The cache still
  // says node 3 until told otherwise.
  CrashNode(3);
  ns(2).Register("svc", Binding{2, "svc", {1, 0, 1}});
  RunTask([&] {
    auto cached = resolver_.ResolveService(ns(1), "svc").bindings;
    ASSERT_EQ(cached.size(), 1u);
    EXPECT_EQ(cached[0].node, 3u);  // stale, by design: caller invalidates on kNodeDown
  });

  resolver_.InvalidateNode(3);
  RunTask([&] {
    auto fresh = resolver_.ResolveService(ns(1), "svc").bindings;
    ASSERT_EQ(fresh.size(), 1u);
    EXPECT_EQ(fresh[0].node, 2u);
  });
}

}  // namespace
}  // namespace tabs::name
