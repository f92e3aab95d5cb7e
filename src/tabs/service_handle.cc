#include "src/tabs/service_handle.h"

namespace tabs {

Status ServiceHandle::EnsureResolved(const server::Tx& tx) {
  if (map_) {
    return Status::kOk;
  }
  name::Resolver::ServiceResolution res =
      resolver_.ResolveService(world_->names(tx.origin), service_);
  if (res.bindings.empty()) {
    return Status::kNotFound;
  }
  if (!res.complete()) {
    return Status::kNodeDown;  // some shard's node could not answer
  }
  Result<placement::ShardMap> map = placement::ShardMap::FromBindings(service_, res.bindings);
  if (!map.ok()) {
    return map.status();
  }
  map_ = std::move(map.value());
  return Status::kOk;
}

namespace {

// A global index's cell within its shard.
std::uint32_t Cell(const placement::ShardMap& map, std::uint64_t index) {
  return static_cast<std::uint32_t>(map.LocalIndex(index));
}

}  // namespace

// --- ArrayService ---------------------------------------------------------------

Result<std::int32_t> ArrayService::Get(const server::Tx& tx, std::uint64_t index) {
  return OnShard<servers::ArrayServer>(
      tx, index, [&](servers::ArrayServer& s, const placement::ShardMap& map) {
        return s.GetCell(tx, Cell(map, index));
      });
}

Status ArrayService::Set(const server::Tx& tx, std::uint64_t index, std::int32_t value) {
  return OnShard<servers::ArrayServer>(
      tx, index, [&](servers::ArrayServer& s, const placement::ShardMap& map) {
        return s.SetCell(tx, Cell(map, index), value);
      });
}

Result<std::vector<std::int32_t>> ArrayService::GetMany(
    const server::Tx& tx, const std::vector<std::uint64_t>& indices) {
  using Chunks = std::vector<sim::FuturePtr<Result<std::vector<Result<std::int32_t>>>>>;
  return Routed(tx, [&](const placement::ShardMap& map) -> Result<std::vector<std::int32_t>> {
    std::vector<std::vector<std::uint32_t>> locals(map.shard_count());
    std::vector<std::vector<size_t>> positions(map.shard_count());
    for (size_t i = 0; i < indices.size(); ++i) {
      std::uint32_t shard = map.ShardOfIndex(indices[i]);
      locals[shard].push_back(Cell(map, indices[i]));
      positions[shard].push_back(i);
    }
    Application::AsyncOps ops(timeout_);
    Chunks issued;             // every shard's chunks, in issue order
    std::vector<size_t> order;  // the argument position of each op in `issued`
    Status failed = Status::kOk;
    for (std::uint32_t shard = 0; shard < map.shard_count(); ++shard) {
      if (locals[shard].empty()) {
        continue;
      }
      Result<servers::ArrayServer*> srv = ShardServer<servers::ArrayServer>(shard);
      if (!srv.ok()) {
        failed = srv.status();  // still drain what is already on the wire
        break;
      }
      Chunks chunks = srv.value()->AsyncGetCells(tx, locals[shard]);
      ops.AddBatch<std::int32_t>(chunks);
      issued.insert(issued.end(), chunks.begin(), chunks.end());
      order.insert(order.end(), positions[shard].begin(), positions[shard].end());
    }
    Status joined = ops.Join();
    if (failed != Status::kOk || joined != Status::kOk) {
      return failed != Status::kOk ? failed : joined;
    }
    // A clean join: every chunk holds every one of its ops' values.
    std::vector<std::int32_t> out(indices.size());
    size_t k = 0;
    for (const auto& chunk : issued) {
      for (const Result<std::int32_t>& r : chunk->value().value()) {
        out[order[k++]] = r.value();
      }
    }
    return out;
  });
}

Status ArrayService::SetMany(const server::Tx& tx,
                             const std::vector<std::pair<std::uint64_t, std::int32_t>>& writes) {
  return Routed(tx, [&](const placement::ShardMap& map) -> Status {
    std::vector<std::vector<std::pair<std::uint32_t, std::int32_t>>> locals(map.shard_count());
    for (const auto& [index, value] : writes) {
      locals[map.ShardOfIndex(index)].push_back({Cell(map, index), value});
    }
    Application::AsyncOps ops(timeout_);
    Status failed = Status::kOk;
    for (std::uint32_t shard = 0; shard < map.shard_count(); ++shard) {
      if (locals[shard].empty()) {
        continue;
      }
      Result<servers::ArrayServer*> srv = ShardServer<servers::ArrayServer>(shard);
      if (!srv.ok()) {
        failed = srv.status();  // still drain what is already on the wire
        break;
      }
      ops.AddBatch<bool>(srv.value()->AsyncSetCells(tx, locals[shard]));
    }
    Status joined = ops.Join();
    return failed != Status::kOk ? failed : joined;
  });
}

// --- AccountService -------------------------------------------------------------

Status AccountService::Deposit(const server::Tx& tx, std::uint64_t account,
                               std::int64_t amount) {
  return OnShard<servers::AccountServer>(
      tx, account, [&](servers::AccountServer& s, const placement::ShardMap& map) {
        return s.Deposit(tx, Cell(map, account), amount);
      });
}

Status AccountService::Withdraw(const server::Tx& tx, std::uint64_t account,
                                std::int64_t amount) {
  return OnShard<servers::AccountServer>(
      tx, account, [&](servers::AccountServer& s, const placement::ShardMap& map) {
        return s.Withdraw(tx, Cell(map, account), amount);
      });
}

Result<std::int64_t> AccountService::Balance(const server::Tx& tx, std::uint64_t account) {
  return OnShard<servers::AccountServer>(
      tx, account, [&](servers::AccountServer& s, const placement::ShardMap& map) {
        return s.ReadBalance(tx, Cell(map, account));
      });
}

// --- BTreeService ---------------------------------------------------------------

Status BTreeService::Insert(const server::Tx& tx, const std::string& key,
                            const std::string& value) {
  return OnShard<servers::BTreeServer>(
      tx, key, [&](servers::BTreeServer& s, const placement::ShardMap&) {
        return s.Insert(tx, key, value);
      });
}

Status BTreeService::Update(const server::Tx& tx, const std::string& key,
                            const std::string& value) {
  return OnShard<servers::BTreeServer>(
      tx, key, [&](servers::BTreeServer& s, const placement::ShardMap&) {
        return s.Update(tx, key, value);
      });
}

Status BTreeService::Upsert(const server::Tx& tx, const std::string& key,
                            const std::string& value) {
  return OnShard<servers::BTreeServer>(
      tx, key, [&](servers::BTreeServer& s, const placement::ShardMap&) {
        return s.Upsert(tx, key, value);
      });
}

Status BTreeService::Remove(const server::Tx& tx, const std::string& key) {
  return OnShard<servers::BTreeServer>(
      tx, key, [&](servers::BTreeServer& s, const placement::ShardMap&) {
        return s.Remove(tx, key);
      });
}

Result<std::string> BTreeService::Lookup(const server::Tx& tx, const std::string& key) {
  return OnShard<servers::BTreeServer>(
      tx, key, [&](servers::BTreeServer& s, const placement::ShardMap&) {
        return s.Lookup(tx, key);
      });
}

// --- open functions -------------------------------------------------------------

ArrayService OpenArray(World& world, std::string service) {
  return ArrayService(world, std::move(service));
}

AccountService OpenAccounts(World& world, std::string service) {
  return AccountService(world, std::move(service));
}

BTreeService OpenBTree(World& world, std::string service) {
  return BTreeService(world, std::move(service));
}

Result<servers::ReplicatedDirectory> OpenReplicatedDirectory(World& world, NodeId from,
                                                             const std::string& service,
                                                             int read_quorum,
                                                             int write_quorum) {
  name::Resolver resolver;
  name::Resolver::ServiceResolution res = resolver.ResolveService(world.names(from), service);
  std::vector<servers::ReplicatedDirectory::Replica> replicas;
  for (const name::Binding& b : res.bindings) {
    if (!world.NodeAlive(b.node)) {
      continue;
    }
    auto* rep = world.Server<servers::DirectoryRep>(b.node, b.server);
    if (rep != nullptr) {
      replicas.push_back({rep, b.node});
    }
  }
  if (replicas.empty()) {
    return Status::kNotFound;
  }
  return servers::ReplicatedDirectory(std::move(replicas), read_quorum, write_quorum);
}

}  // namespace tabs
