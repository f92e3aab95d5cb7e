#include "src/tabs/world.h"

#include <cassert>
#include <sstream>

#include "src/kernel/page_cleaner.h"
#include "src/log/group_commit.h"

namespace tabs {

World::World(int node_count, WorldOptions options) : options_(options) {
  substrate_ = std::make_unique<sim::Substrate>(scheduler_, options.costs, options.arch);
  fault_injector_ = std::make_unique<sim::FaultInjector>();
  fault_injector_->SetCrashHandler([this](NodeId id) { CrashNode(id); });
  substrate_->SetFaultInjector(fault_injector_.get());
  network_ = std::make_unique<comm::Network>(*substrate_);
  for (int i = 0; i < node_count; ++i) {
    NodeId id = static_cast<NodeId>(i + 1);
    nodes_.push_back(std::make_unique<kernel::Node>(id, *substrate_));
    network_->AddNode(id);
    BuildRuntime(id);
  }
  WirePeers();
}

World::~World() {
  // Unwind every remaining task before the substrate (and with it the tracer,
  // which tasks may hold open spans against) is destroyed: `scheduler_` is
  // declared before `substrate_`, so without this the blocked tasks' stacks
  // would unwind in ~Scheduler after the tracer is already gone.
  scheduler_.Shutdown();
}

kernel::Node& World::node(NodeId id) {
  assert(id >= 1 && id <= nodes_.size());
  return *nodes_[id - 1];
}

World::Runtime& World::runtime(NodeId id) {
  auto it = runtimes_.find(id);
  assert(it != runtimes_.end());
  return it->second;
}

recovery::RecoveryManager& World::rm(NodeId id) { return *runtime(id).rm; }
txn::TransactionManager& World::tm(NodeId id) { return *runtime(id).tm; }
comm::CommManager& World::cm(NodeId id) { return *runtime(id).cm; }
name::NameServer& World::names(NodeId id) { return *runtime(id).ns; }
log::GroupCommit& World::group_commit(NodeId id) { return *runtime(id).gc; }
kernel::PageCleaner& World::page_cleaner(NodeId id) { return *runtime(id).cleaner; }

void World::BuildRuntime(NodeId id) {
  Runtime rt;
  rt.cleaner = std::make_unique<kernel::PageCleaner>(
      *substrate_, id,
      kernel::PageCleanerOptions{options_.page_clean_interval_us, options_.page_clean_batch});
  rt.rm = std::make_unique<recovery::RecoveryManager>(node(id));
  rt.rm->SetPageCleaner(rt.cleaner.get());
  rt.cm = std::make_unique<comm::CommManager>(id, *network_);
  rt.cm->ConfigurePipeline(options_.max_outstanding_calls, options_.op_coalesce_batch);
  rt.tm = std::make_unique<txn::TransactionManager>(node(id), *rt.rm, *rt.cm);
  rt.ns = std::make_unique<name::NameServer>(*rt.cm);
  rt.gc = std::make_unique<log::GroupCommit>(id, rt.rm->log(), options_.group_commit_window_us);
  rt.tm->SetGroupCommit(rt.gc.get());
  rt.tm->SetVoteTimeout(options_.vote_timeout_us);
  rt.tm->SetCommitMode(options_.commit_mode, options_.paxos_f);
  // Before any server is installed: servers wire their lock managers to the
  // op queue at construction iff the mode is already on.
  rt.tm->SetQueueMode(options_.queue_execution);
  if (options_.log_space_budget > 0) {
    txn::TransactionManager* tm = rt.tm.get();
    rt.rm->SetLogSpaceBudget(options_.log_space_budget,
                             [tm] { return tm->ActiveTransactions(); },
                             options_.log_reclaim_watermark);
  }
  runtimes_[id] = std::move(rt);
}

void World::WirePeers() {
  tm_peers_.clear();
  ns_peers_.clear();
  for (auto& [id, rt] : runtimes_) {
    const bool alive = NodeAlive(id);
    tm_peers_[id] = alive ? rt.tm.get() : nullptr;
    ns_peers_[id] = alive ? rt.ns.get() : nullptr;
  }
  for (auto& [id, rt] : runtimes_) {
    if (NodeAlive(id)) {
      rt.tm->SetPeers(&tm_peers_);
      rt.ns->SetPeers(&ns_peers_);
    }
  }
}

void World::RegisterBindings(NodeId node_id, const Blueprint& bp, name::NameServer& ns) {
  ns.Register(bp.name, name::Binding{node_id, bp.name, ObjectId{bp.segment, 0, 1}});
  if (!bp.service.empty()) {
    // The logical service binding: the shard's position and the service's
    // shard count ride in the object id, so a resolver can reconstruct the
    // whole shard map from the gathered bindings alone.
    ns.Register(bp.service,
                name::Binding{node_id, bp.name,
                              ObjectId{bp.segment, bp.shard, bp.shard_count}});
  }
}

server::DataServer* World::Instantiate(NodeId node_id, const Blueprint& bp) {
  Runtime& rt = runtime(node_id);
  server::ServerContext ctx{.node = &node(node_id),
                            .rm = rt.rm.get(),
                            .tm = rt.tm.get(),
                            .cm = rt.cm.get(),
                            .segment = bp.segment,
                            .name = bp.name};
  auto server = bp.factory(ctx);
  server::DataServer* raw = server.get();
  rt.servers[bp.name] = std::move(server);
  RegisterBindings(node_id, bp, *rt.ns);
  return raw;
}

server::DataServer* World::InstallServer(NodeId node_id, Blueprint bp) {
  bp.segment = node(node_id).AllocateSegment();
  server::DataServer* raw = Instantiate(node_id, bp);
  blueprints_[node_id].push_back(std::move(bp));
  return raw;
}

server::DataServer* World::AddServer(NodeId node_id, const std::string& name,
                                     ServerFactory factory) {
  Blueprint bp;
  bp.name = name;
  bp.factory = std::move(factory);
  return InstallServer(node_id, std::move(bp));
}

server::DataServer* World::AddServiceShard(NodeId node_id, const std::string& service,
                                           std::uint32_t shard, std::uint32_t shard_count,
                                           const std::string& instance,
                                           ServerFactory factory) {
  assert(shard < shard_count && "shard index out of range");
  Blueprint bp;
  bp.name = instance;
  bp.factory = std::move(factory);
  bp.service = service;
  bp.shard = shard;
  bp.shard_count = shard_count;
  return InstallServer(node_id, std::move(bp));
}

server::DataServer* World::FindServer(NodeId node_id, const std::string& name) {
  Runtime& rt = runtime(node_id);
  auto it = rt.servers.find(name);
  return it == rt.servers.end() ? nullptr : it->second.get();
}

int World::RunApp(NodeId node_id, AppBody body) {
  SpawnApp(node_id, "app", std::move(body));
  return scheduler_.Run();
}

void World::SpawnApp(NodeId node_id, std::string name, AppBody body, SimTime start_time) {
  scheduler_.Spawn(std::move(name), node_id, start_time, [this, node_id, body = std::move(body)] {
    Application app(node_id, tm(node_id), cm(node_id));
    body(app);
  });
}

void World::CrashNode(NodeId node_id) {
  network_->SetAlive(node_id, false);
  WirePeers();
  // Surviving nodes resolve the dead node's orphans: active transactions it
  // coordinated here can never prepare (its volatile state is gone), so
  // their locks and dirty values must not linger, and prepared ones with an
  // acceptor set are decided without it. Runs as a task per survivor,
  // charging the undo work to that survivor; the session layer drops the
  // dead node's still-in-flight requests, so a late arrival cannot resurrect
  // an orphan after this sweep. Spawned before KillWhere: if the caller runs
  // on the dying node, KillWhere ends it by throwing.
  for (auto& [id, rt] : runtimes_) {
    if (!NodeAlive(id)) {
      continue;
    }
    txn::TransactionManager* tm = rt.tm.get();
    scheduler_.Spawn("orphan-abort", id, scheduler_.Now(),
                     [tm, node_id] { tm->ResolveOrphansOf(node_id); });
  }
  // Every process on the node dies with it. (If the caller runs on this
  // node, KillWhere throws TaskKilled after marking the others.)
  scheduler_.KillWhere([node_id](const sim::Task& t) { return t.node == node_id; });
}

recovery::RecoveryStats World::RecoverNode(NodeId node_id, bool resolve_in_doubt) {
  assert(scheduler_.in_task() && "recovery happens in virtual time");
  // Discard the dead volatile stack and rebuild the system components.
  runtimes_.erase(node_id);
  BuildRuntime(node_id);
  network_->SetAlive(node_id, true);
  WirePeers();

  // Re-instantiate data servers from their blueprints (same disk segments).
  Runtime& rt = runtime(node_id);
  std::map<std::string, txn::CommitParticipant*> participants;
  for (const Blueprint& bp : blueprints_[node_id]) {
    participants[bp.name] = Instantiate(node_id, bp);
  }

  // Log-driven crash recovery, then transaction-level repair.
  recovery::RecoveryStats stats = rt.rm->Recover(*rt.tm);
  rt.tm->PostRecovery(stats, participants);
  // The node restarts in a fresh transaction-id incarnation: ids the dead
  // incarnation minted but never logged locally (they live on as orphan
  // state at remote participants) must never be re-minted.
  rt.tm->BeginNewIncarnation();
  for (auto& [name, server] : rt.servers) {
    server->Recover();
  }
  if (resolve_in_doubt) {
    // Contact coordinators for every prepared transaction; unreachable ones
    // stay in doubt (their data stays locked) until a later attempt.
    for (const TransactionId& tid : rt.tm->InDoubt()) {
      rt.tm->ResolveInDoubt(tid);
    }
  }
  return stats;
}

recovery::Archive World::DumpArchive(NodeId node_id) {
  Runtime& rt = runtime(node_id);
  recovery::Archive archive = rt.rm->DumpArchive();
  rt.rm->SetArchiveLowWaterMark(archive.dump_lsn);
  return archive;
}

void World::MediaFailure(NodeId node_id) {
  for (const Blueprint& bp : blueprints_[node_id]) {
    node(node_id).disk().WipeSegment(bp.segment);
  }
  CrashNode(node_id);
}

recovery::RecoveryStats World::RestoreFromArchive(NodeId node_id,
                                                  const recovery::Archive& archive) {
  for (const auto& [segment, pages] : archive.segments) {
    node(node_id).disk().EnsureSegment(segment, static_cast<PageNumber>(pages.size()));
    for (PageNumber p = 0; p < pages.size(); ++p) {
      node(node_id).disk().RestorePage({segment, p}, pages[p]);
    }
  }
  recovery::RecoveryStats stats = RecoverNode(node_id);
  runtime(node_id).rm->SetArchiveLowWaterMark(archive.dump_lsn);
  return stats;
}

void World::CrashServer(NodeId node_id, const std::string& name) {
  Runtime& rt = runtime(node_id);
  auto it = rt.servers.find(name);
  assert(it != rt.servers.end() && "CrashServer of unknown server");
  server::DataServer* victim = it->second.get();

  // Transactions that used the server cannot complete correctly: collect
  // them, detach the dying participant, then abort them (their updates at
  // OTHER servers roll back now; the crashed server's own records roll back
  // during its recovery). Prepared (in-doubt) transactions stay untouched.
  std::vector<TransactionId> involved = rt.tm->TransactionsInvolving(victim);
  rt.tm->DetachParticipant(victim);
  rt.rm->UnregisterServer(name);
  rt.servers.erase(it);
  for (const TransactionId& tid : involved) {
    if (rt.tm->StateOf(tid) == txn::TxnState::kActive) {
      rt.tm->Abort(tid);
    }
  }
}

recovery::RecoveryStats World::RecoverServer(NodeId node_id, const std::string& name) {
  assert(scheduler_.in_task() && "recovery happens in virtual time");
  Runtime& rt = runtime(node_id);
  const Blueprint* bp = nullptr;
  for (const Blueprint& candidate : blueprints_[node_id]) {
    if (candidate.name == name) {
      bp = &candidate;
    }
  }
  assert(bp != nullptr && "RecoverServer of unknown server");
  server::DataServer* raw = Instantiate(node_id, *bp);

  recovery::RecoveryStats stats = rt.rm->Recover(*rt.tm, &name);
  std::map<std::string, txn::CommitParticipant*> participants{{name, raw}};
  rt.tm->PostRecovery(stats, participants);
  raw->Recover();
  return stats;
}

void World::Checkpoint(NodeId node_id) {
  Runtime& rt = runtime(node_id);
  rt.rm->TakeCheckpoint(rt.tm->ActiveTransactions());
}

void World::ReclaimLog(NodeId node_id) {
  Runtime& rt = runtime(node_id);
  rt.rm->Reclaim(rt.tm->ActiveTransactions());
}

lock::DeadlockDetector World::GlobalDeadlockDetector() {
  lock::DeadlockDetector detector;
  for (auto& [id, rt] : runtimes_) {
    if (!NodeAlive(id)) {
      continue;
    }
    for (auto& [name, server] : rt.servers) {
      detector.AddLockManager(&server->locks());
    }
  }
  return detector;
}

std::string World::DescribeNode(NodeId node_id) {
  Runtime& rt = runtime(node_id);
  std::ostringstream os;
  os << "TABS node " << node_id << (NodeAlive(node_id) ? "" : " (crashed)") << "\n";
  os << "  system components: Name Server, Communication Manager, Recovery Manager, "
        "Transaction Manager\n";
  os << "  data servers:";
  if (rt.servers.empty()) {
    os << " (none)";
  }
  for (auto& [name, server] : rt.servers) {
    os << " " << name;
  }
  os << "\n  stable log bytes in use: " << rt.rm->StableLogBytesInUse()
     << " (device holds " << node(node_id).stable_log().resident_bytes() << " bytes)\n";
  os << "  per-transaction maps: " << rt.tm->logged_outcome_count() << " logged outcomes";
  if (options_.commit_mode == txn::CommitMode::kPaxosCommit) {
    os << ", " << rt.tm->acceptor_state_count() << " acceptor states";
  }
  os << "\n";
  return os.str();
}

}  // namespace tabs
