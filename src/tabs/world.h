// World: a cluster of TABS nodes — the top of the public API.
//
// A World owns the simulation substrate (scheduler, cost model, metrics),
// the network, and one kernel::Node per simulated workstation. On each node
// it assembles the four TABS system processes of Figure 3-1 — Recovery
// Manager, Transaction Manager, Communication Manager, and Name Server —
// plus any user data servers added via AddServer.
//
// Node crashes are first-class: CrashNode kills every task on the node and
// discards all volatile state; RecoverNode rebuilds the system components
// and data servers, replays the stable log through the Recovery Manager's
// crash-recovery algorithms, re-locks in-doubt transactions, and calls each
// server's Recover() hook. Disks and the stable log survive, exactly like
// the hardware they model.

#ifndef TABS_TABS_WORLD_H_
#define TABS_TABS_WORLD_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/comm/network.h"
#include "src/lock/deadlock_detector.h"
#include "src/sim/fault_injector.h"
#include "src/name/name_server.h"
#include "src/placement/shard_map.h"
#include "src/server/data_server.h"
#include "src/tabs/application.h"

namespace tabs {

namespace log {
class GroupCommit;
}
namespace kernel {
class PageCleaner;
}

struct WorldOptions {
  sim::CostModel costs = sim::CostModel::Baseline();
  sim::ArchitectureModel arch = sim::ArchitectureModel::Prototype();
  // Per-node retained-log budget: the Recovery Manager reclaims log space
  // automatically when exceeded (Section 3.2.2). 0 disables.
  std::uint64_t log_space_budget = 0;
  // Fraction of the budget at which automatic reclamation fires. Reclamation
  // is incremental (fuzzy checkpoint): it flushes only the pages pinning the
  // log tail and aims at half the budget, so a lower watermark trades more
  // frequent, smaller reclamations for flatter commit-latency tails.
  double log_reclaim_watermark = 1.0;
  // Group commit: committing (and preparing) transactions batch their log
  // forces through a per-node daemon that flushes once per window instead of
  // once per transaction. 0 (the default) keeps the paper-faithful
  // per-transaction force — every table_5_* number is unchanged.
  SimTime group_commit_window_us = 0;
  // Background page cleaning: a per-node daemon writes dirty unpinned frames
  // back between transactions — oldest recovery LSN first, elevator-ordered
  // by disk address — so page faults find clean victims and reclamation
  // finds little to flush. Virtual time between cleaning passes; 0 (the
  // default) disables the daemon and keeps every demand write-back on the
  // faulting transaction's path, exactly as the paper measures it.
  SimTime page_clean_interval_us = 0;
  // Pages written per cleaning pass (one elevator sweep).
  int page_clean_batch = 16;
  // Asynchronous communication fast path (CommManager). A transaction may
  // hold this many pipelined session calls in flight at once; 1 (the
  // default) is the paper's strictly sequential remote-call behaviour —
  // every table5_* number is unchanged.
  int max_outstanding_calls = 1;
  // Up to this many independent same-server operations coalesce into one
  // large message instead of paying a session call each; 1 (the default)
  // keeps the paper's one-operation-per-message model.
  int op_coalesce_batch = 1;
  // Commit-protocol vote/ack wait budget (TransactionManager). Fault sweeps
  // tighten it so a lost vote aborts in microseconds instead of 10 virtual
  // seconds; the default is the protocol's historical timeout.
  SimTime vote_timeout_us = 10'000'000;
  // Commit protocol. kPaxosCommit replicates every commit decision across
  // 2F+1 acceptors so a coordinator crash never blocks an in-doubt
  // transaction; the kTwoPhase default is paper-faithful and leaves every
  // schedule byte-identical to the seed. The default follows the
  // TABS_COMMIT_MODE environment variable ("paxos" selects kPaxosCommit) so
  // CI can run the whole suite under either protocol; absent the variable it
  // is exactly kTwoPhase as before.
  txn::CommitMode commit_mode = txn::DefaultCommitMode();
  int paxos_f = 1;  // acceptor failures tolerated under kPaxosCommit
  // Queue-oriented execution for hot objects (src/txn/op_queue.h): update
  // locks release as soon as the commit/prepare record is *appended* —
  // before it is forced — so hot-object successors pipeline into the
  // group-commit window; commit dependencies make an abort cascade to the
  // queued successors only, never to a durable transaction. Off (the
  // default) keeps every schedule byte-identical to the seed.
  bool queue_execution = false;
};

class World {
 public:
  using ServerFactory =
      std::function<std::unique_ptr<server::DataServer>(const server::ServerContext&)>;

  explicit World(int node_count, WorldOptions options = {});
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  // --- access ------------------------------------------------------------------
  sim::Substrate& substrate() { return *substrate_; }
  sim::Scheduler& scheduler() { return scheduler_; }
  sim::Metrics& metrics() { return substrate_->metrics(); }
  comm::Network& network() { return *network_; }
  // The nemesis: every World owns one, installed in the substrate with its
  // crash handler wired to CrashNode. Inert until armed.
  sim::FaultInjector& faults() { return *fault_injector_; }
  int node_count() const { return static_cast<int>(nodes_.size()); }

  kernel::Node& node(NodeId id);
  recovery::RecoveryManager& rm(NodeId id);
  txn::TransactionManager& tm(NodeId id);
  comm::CommManager& cm(NodeId id);
  name::NameServer& names(NodeId id);
  log::GroupCommit& group_commit(NodeId id);
  kernel::PageCleaner& page_cleaner(NodeId id);
  bool NodeAlive(NodeId id) const { return network_->IsAlive(id); }

  // --- data servers ---------------------------------------------------------------
  // Installs a server blueprint on `node` and instantiates it. The factory
  // is re-invoked whenever the node recovers from a crash; the segment id is
  // stable across incarnations (it names the on-disk file). Registers the
  // server's name with the node's Name Server.
  server::DataServer* AddServer(NodeId node, const std::string& name, ServerFactory factory);

  // Convenience: AddServer for a concrete type constructible as
  // T(const ServerContext&, Args...).
  template <typename T, typename... Args>
  T* AddServerOf(NodeId node, const std::string& name, Args... args) {
    return static_cast<T*>(AddServer(
        node, name, [args...](const server::ServerContext& ctx) {
          return std::make_unique<T>(ctx, args...);
        }));
  }

  server::DataServer* FindServer(NodeId node, const std::string& name);
  template <typename T>
  T* Server(NodeId node, const std::string& name) {
    return static_cast<T*>(FindServer(node, name));
  }

  // --- sharded services ------------------------------------------------------------
  // Installs one shard (or replica) of a logical service: like AddServer,
  // but additionally registers a *service* binding
  // <node, instance, {segment, shard, shard_count}> under the logical name.
  // Both bindings re-register when the node recovers, so resolution heals
  // with the node. The shard index/count ride in the binding's object id —
  // the resolver reads the service's shape straight out of the Name Server.
  server::DataServer* AddServiceShard(NodeId node, const std::string& service,
                                      std::uint32_t shard, std::uint32_t shard_count,
                                      const std::string& instance, ServerFactory factory);

  // Installs a whole sharded service of concrete type T, constructible as
  // T(const ServerContext&, placement::ShardSlice, Args...): shard i lands
  // on nodes[i % nodes.size()] under the instance name "service#i". Open it
  // from application code with OpenArray / OpenAccounts / OpenBTree
  // (src/tabs/service_handle.h).
  template <typename T, typename... Args>
  std::vector<T*> AddShardedServiceOf(const std::string& service,
                                      const std::vector<NodeId>& nodes,
                                      std::uint32_t shard_count, Args... args) {
    std::vector<T*> out;
    out.reserve(shard_count);
    for (std::uint32_t i = 0; i < shard_count; ++i) {
      placement::ShardSlice slice{i, shard_count};
      out.push_back(static_cast<T*>(AddServiceShard(
          nodes[i % nodes.size()], service, i, shard_count,
          placement::ShardInstanceName(service, i),
          [slice, args...](const server::ServerContext& ctx) {
            return std::make_unique<T>(ctx, slice, args...);
          })));
    }
    return out;
  }

  // --- running work -------------------------------------------------------------------
  // Spawns `body` as an application task on `node` and drains the scheduler.
  // Returns the number of tasks still blocked (0 on clean completion). Must
  // be called from outside any task.
  // The body is held inline; the task that runs it adds the world and the
  // node around it, so it gets the task buffer less those 24 bytes.
  using AppBody = sim::InlineFunction<void(Application&), sim::kTaskFnBytes - 24>;
  int RunApp(NodeId node, AppBody body);
  // Spawns without draining (for concurrent scenarios), then call Drain().
  void SpawnApp(NodeId node, std::string name, AppBody body, SimTime start_time = 0);
  int Drain() { return scheduler_.Run(); }

  // --- failures --------------------------------------------------------------------------
  // Crashes `node`: the network marks it down and every task running on it
  // dies. Call from inside a task (the crash is an event in virtual time).
  void CrashNode(NodeId node);
  // Rebuilds the node: fresh system components and data servers, log-driven
  // recovery, in-doubt relocking, server Recover() hooks, name
  // re-registration. With `resolve_in_doubt` (the default), prepared
  // transactions immediately query their coordinator for the verdict; pass
  // false to observe the in-doubt window (its locks stay held). Call from
  // inside a task. Returns pre-resolution recovery statistics.
  recovery::RecoveryStats RecoverNode(NodeId node, bool resolve_in_doubt = true);

  // Media recovery (Section 7 future work). DumpArchive snapshots a node's
  // non-volatile storage (and pins the log's low-water mark so replay stays
  // possible); MediaFailure destroys the node's disk contents AND crashes it
  // (the stable log device survives, as Section 7 prescribes);
  // RestoreFromArchive writes the archive back and runs crash recovery,
  // which replays the retained log over the archived state. Call from
  // inside a task.
  recovery::Archive DumpArchive(NodeId node);
  void MediaFailure(NodeId node);
  recovery::RecoveryStats RestoreFromArchive(NodeId node, const recovery::Archive& archive);

  // Single-server failure (Section 7 future work: "permit the recovery of a
  // single server without the recovery of the entire node"). CrashServer
  // kills one data server's process: its volatile state vanishes, active
  // transactions that used it abort, and the rest of the node keeps running.
  // RecoverServer re-instantiates it and replays only its records from the
  // common log. Call both from inside a task.
  void CrashServer(NodeId node, const std::string& name);
  recovery::RecoveryStats RecoverServer(NodeId node, const std::string& name);

  // Checkpoint / log reclamation on a node (normally timer-driven in TABS;
  // explicit here so tests and benches control it).
  void Checkpoint(NodeId node);
  void ReclaimLog(NodeId node);

  // A deadlock detector spanning every live server's lock manager — the
  // global waits-for graph of the R*-style detectors the paper cites
  // (Obermarck; Section 2.1.2). TABS itself relies on timeouts; this is the
  // extension. Rebuild after topology changes (crash/recover); call
  // BreakOneCycle from a task to sacrifice the youngest cycle member.
  lock::DeadlockDetector GlobalDeadlockDetector();

  // Figure 3-1 as text: the per-node process inventory.
  std::string DescribeNode(NodeId node);

 private:
  struct Runtime {
    // Declared before rm: rm holds a raw pointer to it (registration calls
    // during teardown must find it alive).
    std::unique_ptr<kernel::PageCleaner> cleaner;
    std::unique_ptr<recovery::RecoveryManager> rm;
    std::unique_ptr<comm::CommManager> cm;
    std::unique_ptr<txn::TransactionManager> tm;
    std::unique_ptr<name::NameServer> ns;
    std::map<std::string, std::unique_ptr<server::DataServer>> servers;
    // Declared after rm: it references rm's LogManager, so it must be
    // destroyed first. Dies with the runtime on CrashNode (pending waiters
    // are killed tasks; a scheduled flusher for a dead incarnation is killed
    // too and never runs).
    std::unique_ptr<log::GroupCommit> gc;
  };
  struct Blueprint {
    std::string name;
    SegmentId segment;
    ServerFactory factory;
    // Logical-service membership (empty service: a plain standalone server).
    // Kept in the blueprint so the service binding re-registers on recovery.
    std::string service;
    std::uint32_t shard = 0;
    std::uint32_t shard_count = 0;
  };

  Runtime& runtime(NodeId id);
  void BuildRuntime(NodeId id);
  void WirePeers();
  server::DataServer* InstallServer(NodeId node_id, Blueprint bp);
  // Builds `bp`'s server against the node's current runtime (the same disk
  // segment on every recovery), installs it and registers its bindings.
  server::DataServer* Instantiate(NodeId node_id, const Blueprint& bp);
  // (Re-)registers a blueprint's name bindings with `ns`: the physical
  // instance name always, the logical service name when it is a shard.
  void RegisterBindings(NodeId node_id, const Blueprint& bp, name::NameServer& ns);

  WorldOptions options_;
  sim::Scheduler scheduler_;
  std::unique_ptr<sim::Substrate> substrate_;
  std::unique_ptr<sim::FaultInjector> fault_injector_;
  std::unique_ptr<comm::Network> network_;
  std::vector<std::unique_ptr<kernel::Node>> nodes_;
  std::map<NodeId, Runtime> runtimes_;
  std::map<NodeId, std::vector<Blueprint>> blueprints_;
  std::map<NodeId, txn::TransactionManager*> tm_peers_;
  std::map<NodeId, name::NameServer*> ns_peers_;
};

}  // namespace tabs

#endif  // TABS_TABS_WORLD_H_
