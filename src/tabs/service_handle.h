// Service handles: open a logical service by name, route by shard.
//
// The API redesign over hand-plumbed bindings: an application opens a
// logical service ("accounts") instead of naming nodes and server instances,
// and every operation routes itself — resolve the service's shard bindings
// through the Name Server (cached by a name::Resolver), pick the shard that
// owns the key or index, find the live server instance behind the binding,
// and invoke the ordinary data-server operation. Remote shards therefore
// join the transaction's spanning tree exactly like any other remote server,
// and commit runs the unchanged multi-node two-phase protocol over them.
//
// Failure handling: a kNodeDown from a routed call drops the cached
// resolution and retries once against a fresh lookup, so a stale cache heals
// itself after recovery; if a shard's node is genuinely down the fresh
// broadcast comes back incomplete and the operation fails with kNodeDown.
// Handles never cache server pointers — recovery re-instantiates servers,
// so the live instance is looked up per operation; only bindings are cached.
//
// Cross-shard batches (GetMany/SetMany) group operations per shard and put
// every shard's coalesced chunks on the wire before awaiting any
// (CommManager::AsyncRemoteCallBatch), then join them through
// Application::AsyncOps, so the fan-out composes with the pipelining window
// and coalescing limits of WorldOptions.

#ifndef TABS_TABS_SERVICE_HANDLE_H_
#define TABS_TABS_SERVICE_HANDLE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/name/resolver.h"
#include "src/placement/shard_map.h"
#include "src/servers/account_server.h"
#include "src/servers/array_server.h"
#include "src/servers/btree_server.h"
#include "src/servers/replicated_directory.h"
#include "src/tabs/world.h"

namespace tabs {

class ServiceHandle {
 public:
  // `timeout` bounds each awaited batch chunk (and is handed to AsyncOps
  // joins); resolution broadcasts are bounded by the Resolver's own wait.
  ServiceHandle(World& world, std::string service,
                SimTime timeout = comm::Network::kDefaultSessionTimeout)
      : world_(&world), service_(std::move(service)), timeout_(timeout) {}

  const std::string& service() const { return service_; }
  bool resolved() const { return map_.has_value(); }
  std::uint32_t shard_count() const { return map_ ? map_->shard_count() : 0; }
  name::Resolver& resolver() { return resolver_; }

  // Drops every cached routing fact about `node` (bindings and the built
  // map); the next operation re-resolves. Called automatically on kNodeDown.
  void InvalidateNode(NodeId node) {
    resolver_.InvalidateNode(node);
    map_.reset();
  }

 protected:
  // Resolves the shard map through the Tx origin's Name Server on first use.
  // kNotFound: no such service anywhere; kNodeDown: partial shard set (some
  // shard's node did not answer). Must run inside a task.
  Status EnsureResolved(const server::Tx& tx);

  // The live server instance behind `shard` — looked up per call, never
  // cached (recovery re-instantiates servers under the same binding).
  template <typename T>
  Result<T*> ShardServer(std::uint32_t shard) {
    const name::Binding& b = map_->binding(shard);
    if (!world_->NodeAlive(b.node)) {
      return Status::kNodeDown;
    }
    T* s = world_->Server<T>(b.node, b.server);
    if (s == nullptr) {
      return Status::kNodeDown;  // crashed server, not yet re-instantiated
    }
    return s;
  }

  // Runs `attempt` against the resolved map. On kNodeDown the cached
  // resolution is refreshed with one new broadcast and the attempt retried —
  // the heal path for a cache gone stale across crash/recovery. If the fresh
  // lookup comes back incomplete (the shard's node is genuinely down), the
  // old map is kept: operations on live shards keep working, operations on
  // the dead shard keep failing fast on the liveness check. `attempt`
  // returns a Status or a Result, and so does Routed.
  template <typename Fn>
  auto Routed(const server::Tx& tx, Fn&& attempt)
      -> std::invoke_result_t<Fn&, const placement::ShardMap&> {
    Status s = EnsureResolved(tx);
    if (s != Status::kOk) {
      return s;
    }
    auto r = attempt(*map_);
    if (StatusOf(r) != Status::kNodeDown) {
      return r;
    }
    resolver_.Invalidate(service_);  // stale? force a fresh broadcast
    name::Resolver::ServiceResolution res =
        resolver_.ResolveService(world_->names(tx.origin), service_);
    if (res.complete()) {
      Result<placement::ShardMap> fresh =
          placement::ShardMap::FromBindings(service_, res.bindings);
      if (fresh.ok()) {
        map_ = std::move(fresh.value());
      }
    }
    return attempt(*map_);
  }

  // One single-shard operation: `op(server, map)` runs on the live T
  // instance of the shard owning `key` (an interleaved index or a hashed
  // string key), routed like every operation. Returns what `op` returns.
  template <typename T, typename Key, typename Op>
  auto OnShard(const server::Tx& tx, const Key& key, Op&& op) {
    return Routed(tx, [&](const placement::ShardMap& map)
                          -> std::invoke_result_t<Op&, T&, const placement::ShardMap&> {
      Result<T*> srv = ShardServer<T>(ShardOf(map, key));
      if (!srv.ok()) {
        return srv.status();
      }
      return op(*srv.value(), map);
    });
  }

  static std::uint32_t ShardOf(const placement::ShardMap& map, std::uint64_t index) {
    return map.ShardOfIndex(index);
  }
  static std::uint32_t ShardOf(const placement::ShardMap& map, const std::string& key) {
    return map.ShardOfKey(key);
  }
  static Status StatusOf(Status s) { return s; }
  template <typename T>
  static Status StatusOf(const Result<T>& r) {
    return r.status();
  }

  World* world_;
  std::string service_;
  SimTime timeout_;
  name::Resolver resolver_;
  std::optional<placement::ShardMap> map_;
};

// A logical integer array spanning the shards of `service` (interleaved
// index partitioning over servers::ArrayServer instances).
class ArrayService : public ServiceHandle {
 public:
  using ServiceHandle::ServiceHandle;

  Result<std::int32_t> Get(const server::Tx& tx, std::uint64_t index);
  Status Set(const server::Tx& tx, std::uint64_t index, std::int32_t value);

  // Cross-shard batches: per-shard coalesced chunks, all on the wire before
  // any is awaited. Results are in argument order.
  Result<std::vector<std::int32_t>> GetMany(const server::Tx& tx,
                                            const std::vector<std::uint64_t>& indices);
  Status SetMany(const server::Tx& tx,
                 const std::vector<std::pair<std::uint64_t, std::int32_t>>& writes);
};

// A logical bank spanning the shards of `service` (interleaved account
// partitioning over servers::AccountServer instances — typed locking,
// operation logging, and escrow admission all per shard).
class AccountService : public ServiceHandle {
 public:
  using ServiceHandle::ServiceHandle;

  Status Deposit(const server::Tx& tx, std::uint64_t account, std::int64_t amount);
  Status Withdraw(const server::Tx& tx, std::uint64_t account, std::int64_t amount);
  Result<std::int64_t> Balance(const server::Tx& tx, std::uint64_t account);
};

// A logical key-value map spanning the shards of `service` (keys hash to a
// shard and travel unchanged; each shard is an independent B-tree).
class BTreeService : public ServiceHandle {
 public:
  using ServiceHandle::ServiceHandle;

  Status Insert(const server::Tx& tx, const std::string& key, const std::string& value);
  Status Update(const server::Tx& tx, const std::string& key, const std::string& value);
  Status Upsert(const server::Tx& tx, const std::string& key, const std::string& value);
  Status Remove(const server::Tx& tx, const std::string& key);
  Result<std::string> Lookup(const server::Tx& tx, const std::string& key);
};

// Open a logical service by name. Resolution is lazy (first operation), so
// these are cheap to call anywhere; operations must run inside a task.
ArrayService OpenArray(World& world, std::string service);
AccountService OpenAccounts(World& world, std::string service);
BTreeService OpenBTree(World& world, std::string service);

// Open a replicated directory by logical name: gathers the representative
// bindings through a Resolver from `from`'s Name Server and builds the
// client-linked voting module. A partial set is fine — quorum logic
// tolerates missing representatives — but an empty one is kNotFound.
// Register representatives with World::AddServiceShard (one "shard" per
// representative). Must run inside a task.
Result<servers::ReplicatedDirectory> OpenReplicatedDirectory(World& world, NodeId from,
                                                             const std::string& service,
                                                             int read_quorum,
                                                             int write_quorum);

}  // namespace tabs

#endif  // TABS_TABS_SERVICE_HANDLE_H_
