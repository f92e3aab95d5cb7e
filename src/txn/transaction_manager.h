// The Transaction Manager: transaction identifiers, the transaction tree,
// and the tree-structured two-phase commit protocol (Section 3.2.3).
//
// One Transaction Manager runs per node. Applications and data servers send
// it messages to begin, commit, or abort transactions; data servers announce
// themselves the first time they perform an operation for a transaction
// (JoinServer), and the Communication Manager reports each edge of the
// transaction's spanning tree, which the entry records once, at first contact.
// The commit protocol is two-phase over that tree:
// "each node serves as coordinator for the nodes that are its children."
// One engine runs it in both commit modes (two_phase_commit.cc); the modes
// differ only in where the verdict becomes durable (paxos_commit.h).
//
// Subtransactions use the same machinery: BeginTransaction of a non-null
// parent creates a subtransaction that synchronizes as a separate
// transaction, cannot commit before its parent, and may abort independently
// (Section 2.1.3). EndTransaction of a subtransaction merges its locks, undo
// records and joined servers into the parent.

#ifndef TABS_TXN_TRANSACTION_MANAGER_H_
#define TABS_TXN_TRANSACTION_MANAGER_H_

#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/comm/comm_manager.h"
#include "src/common/node_recycler.h"
#include "src/common/result.h"
#include "src/common/types.h"
#include "src/recovery/recovery_manager.h"
#include "src/txn/op_queue.h"
#include "src/txn/paxos_commit.h"

namespace tabs::log {
class GroupCommit;
}

namespace tabs::txn {

// A local data server's participation hooks. DataServer implements this.
class CommitParticipant {
 public:
  virtual ~CommitParticipant() = default;
  virtual const std::string& participant_name() const = 0;
  // Did this server log updates on behalf of `tid`?
  virtual bool HasUpdates(const TransactionId& tid) = 0;
  // Outcome callbacks: release locks and per-transaction state. Undo (on
  // abort) has already been performed through the Recovery Manager.
  virtual void OnCommit(const TransactionId& tid) = 0;
  virtual void OnAbort(const TransactionId& tid) = 0;
  // Subtransaction commit: child's locks and state merge into the parent.
  virtual void OnSubtxnCommit(const TransactionId& child, const TransactionId& parent) = 0;
  // After crash recovery, re-acquire the lock protecting an in-doubt
  // transaction's update (TABS nodes "restrict access to some data until
  // other nodes recover").
  virtual void RelockForRecovery(const TransactionId& tid, const log::LogRecord& rec) = 0;

  // --- queue-oriented execution hooks (src/txn/op_queue.h) -------------------
  // All three default to no-ops so servers that keep strict two-phase locking
  // are unaffected; DataServer overrides them when the mode is on.
  // Release `tid`'s locks now, before its outcome record is durable. A true
  // `taint` means the outcome is still undecided (prepare-time release): the
  // released objects must be registered with the op queue first so successors
  // pick up a commit dependency.
  virtual void OnEarlyRelease(const TransactionId& tid, bool taint) {}
  // A cascade abort is consuming `tid`: wake any lock/escrow wait it is
  // parked in with a cancellation, so its task unwinds instead of being
  // granted a lock under a dead transaction.
  virtual void CancelLockWaits(const TransactionId& tid) {}
  // An abort fully settled (undo complete, grant veto lifted): re-run the
  // grant sweep for waiters the veto parked.
  virtual void OnAbortSettled(const TransactionId& tid) {}
};

enum class TxnState {
  kActive,
  kPreparing,
  kPrepared,   // in doubt: awaiting the parent's verdict
  kCommitted,
  kAborted,
};

class TransactionManager : public comm::TransactionTreeListener,
                           public recovery::TxnOutcomeSource {
 public:
  TransactionManager(kernel::Node& node, recovery::RecoveryManager& rm,
                     comm::CommManager& cm);
  ~TransactionManager();

  void SetPeers(const std::map<NodeId, TransactionManager*>* peers) { peers_ = peers; }

  // Commit protocol selection (WorldOptions::commit_mode). kPaxosCommit
  // tolerates `paxos_f` acceptor failures with 2F+1 acceptors per
  // transaction; kTwoPhase is the paper-faithful default.
  void SetCommitMode(CommitMode mode, int paxos_f) {
    commit_mode_ = mode;
    paxos_->SetF(paxos_f);
  }

  // Queue-oriented execution (WorldOptions::queue_execution): update locks
  // release as soon as the commit/prepare record is appended — before it is
  // forced — with commit dependencies tracked through the per-node OpQueue.
  // Default off; every paper-faithful schedule is byte-identical.
  void SetQueueMode(bool on) {
    op_queue_.Enable(on);
    op_queue_.Attach(&node_.substrate().scheduler());
  }
  bool queue_mode() const { return op_queue_.enabled(); }
  OpQueue& op_queue() { return op_queue_; }
  // Queue mode: true when new operations on behalf of `tid` must be refused
  // because a cascade abort consumed (or is consuming) the transaction. Data
  // servers consult this before dispatching an operation so a zombie task —
  // one whose transaction was cascade-aborted while it ran — cannot log new
  // records under the dead id.
  bool RefusesOps(const TransactionId& tid) const;

  // --- application interface (Table 3-2) ------------------------------------
  // BeginTransaction: null parent creates a top-level transaction.
  TransactionId Begin(const TransactionId& parent = kNullTransaction);
  // EndTransaction: commits. For a top-level transaction this runs the
  // tree-structured two-phase commit; for a subtransaction it merges into
  // the parent. Returns kOk on commit, kAborted/kVoteNo/kNodeDown otherwise.
  Status End(const TransactionId& tid);
  // AbortTransaction: rolls back `tid` (and, transitively, its live
  // subtransactions). A subtransaction abort does not disturb the parent.
  void Abort(const TransactionId& tid);

  TxnState StateOf(const TransactionId& tid) const;
  bool IsAborted(const TransactionId& tid) const;
  TransactionId TopOf(const TransactionId& tid) const;
  // Entries in the per-transaction maps (World::DescribeNode): outcomes
  // logged or decided here, and Paxos acceptor states.
  size_t logged_outcome_count() const { return logged_outcomes_.size(); }
  size_t acceptor_state_count() const { return paxos_->state_count(); }
  // Live transaction entries (leak checks: zero once transactions finish).
  size_t live_entry_count() const { return txns_.size(); }

  // --- data server interface --------------------------------------------------
  // First operation by `server` on behalf of `tid` at this node. Remote
  // operations are tracked under the top-level transaction (whose entry the
  // Communication Manager created on first contact); local ones under the
  // (sub)transaction itself.
  void JoinServer(const TransactionId& tid, const TransactionId& top,
                  CommitParticipant* server);

  // Single-server crash support (Section 7 future work): transactions that
  // used a crashed server, and removal of its dangling participant pointer
  // before those transactions are aborted.
  std::vector<TransactionId> TransactionsInvolving(const CommitParticipant* server) const;
  void DetachParticipant(const CommitParticipant* server);

  // --- Communication Manager callbacks (TransactionTreeListener) --------------
  // The first contact creates the entry with its parent; a call into a node
  // that already has the entry (the root included) records nothing.
  bool OnRemoteParentObserved(const TransactionId& tid, NodeId parent) override;
  // Adds `child` to the entry's children; records nothing without an entry.
  bool OnChildObserved(const TransactionId& tid, NodeId child) override;

  // --- participant side (invoked via datagram handlers) -----------------------
  // Prepares the subtree rooted at this node for its tree parent
  // `parent_node` and returns its vote (kReadOnly to any other node; kNone,
  // no vote at all, to a repeated prepare). `siblings` are the parent's other
  // children (under Paxos Commit, every participant), and a non-empty
  // `acceptors` set marks a Paxos Commit participant, whose verdict is
  // decided at those acceptors. The entry copies the lists into its own.
  Vote HandlePrepare(const TransactionId& tid, NodeId parent_node,
                     std::span<const NodeId> siblings, std::span<const NodeId> acceptors);
  void HandleCommit(const TransactionId& tid);
  void HandleAbortMsg(const TransactionId& tid);
  // A verdict learned elsewhere (a takeover leader, or ResolveInDoubt's
  // query): applies commit/abort to a prepared transaction, and is a no-op
  // for anything already resolved.
  void ApplyVerdict(const TransactionId& tid, bool committed);
  // What this node knows of `tid`'s outcome for an in-doubt node: 1
  // committed, -1 aborted, 0 not decided here (an undecided node's "not
  // committed" is no verdict). Only with `presume_abort`, as the parent, does
  // a forgotten transaction count as aborted: a sibling may have been
  // read-only and forgotten it.
  int KnownOutcome(const TransactionId& tid, bool presume_abort) const;

  // --- crash recovery (TxnOutcomeSource) ---------------------------------------
  void ObserveTxnRecord(const log::LogRecord& rec) override;
  recovery::TxnOutcome OutcomeOf(const TransactionId& top) override;

  // After RecoveryManager::Recover: makes each in-doubt transaction a
  // prepared entry (a node recovery re-creates it from the prepare record,
  // a relay's logged children included, so the verdict reaches them; a
  // single-server recovery finds it still live) and re-locks its objects
  // through the named participants, which join the entry.
  void PostRecovery(const recovery::RecoveryStats& stats,
                    const std::map<std::string, CommitParticipant*>& participants);
  // Crash recovery only (not single-server repair, not first boot): moves
  // this node into a fresh transaction-id incarnation and forces a NODE_EPOCH
  // record so the bump survives another crash. Guarantees that ids the dead
  // incarnation minted but never logged — alive only as orphan state on
  // remote participants — can never be re-minted and aliased.
  void BeginNewIncarnation();
  // The orphan sweep after node `dead` failed. Every ACTIVE transaction whose
  // spanning-tree parent is `dead` and that was initiated remotely rolls back
  // at once: it can never prepare (its coordinator's volatile state died
  // with it), so presumed abort is safe the instant the session layer
  // reports the node down. Prepared transactions are in doubt. Under Paxos
  // Commit, those with an acceptor set are then driven to a decision through
  // the acceptors, after a node-keyed stagger, so they release their locks
  // without coordinator recovery; the rest wait for ResolveInDoubt.
  void ResolveOrphansOf(NodeId dead);
  // Learns an in-doubt transaction's verdict where its prepare says it lives
  // (the acceptors, or else the parent and then the siblings) and applies
  // it. Returns the outcome, or kNodeDown if still unreachable.
  Status ResolveInDoubt(const TransactionId& tid);
  std::vector<TransactionId> InDoubt() const;

  // Active-transaction table for checkpoints.
  std::vector<recovery::RecoveryManager::ActiveTxn> ActiveTransactions() const;

  sim::Substrate& substrate() { return node_.substrate(); }

  // Routes commit/prepare-record forces through the node's group-commit
  // daemon; a disabled daemon preserves the paper-faithful per-transaction
  // force. Both this and SetPeers must be wired before the first commit.
  void SetGroupCommit(log::GroupCommit* gc) { group_commit_ = gc; }

  // Vote/ack wait budget for the commit protocol (default 10 s virtual).
  void SetVoteTimeout(SimTime timeout_us) { vote_timeout_ = timeout_us; }
  SimTime vote_timeout() const { return vote_timeout_; }

 private:
  // An entry's node is recycled (txn_nodes_), so its lists keep their
  // capacity from one transaction to the next.
  struct Txn {
    TransactionId tid;
    TransactionId parent;           // null for top-level
    TransactionId top;
    // Stamped from next_generation_ when the entry is created: a task that
    // held the entry across a wait finds it again by (tid, generation), which
    // neither a forgotten entry nor a later one on the same node matches.
    std::uint64_t generation = 0;
    TxnState state = TxnState::kActive;
    // The spanning tree (top-level entries): the first node to invoke an
    // operation here (kInvalidNode: rooted here), and the children in
    // ascending order, the order prepares and aborts leave in.
    NodeId parent_node = kInvalidNode;
    std::vector<NodeId> children;
    std::vector<CommitParticipant*> servers;
    std::set<TransactionId> live_subtxns;
    // Children that voted yes (not read-only), ascending; recovered: every
    // child the prepare logged.
    std::vector<NodeId> update_children;
    std::vector<NodeId> siblings;      // fellow participants (from the prepare)
    std::vector<NodeId> acceptors;     // Paxos Commit: the 2F+1 acceptor set
                                       // (empty: plain 2PC governs this txn)
    // This node's prepare record. It pins the log while the entry is in
    // doubt, also on a relay node that wrote nothing of its own.
    Lsn prepare_lsn = kNullLsn;
    // Exactly one task may drive this transaction's abort. Whoever sets the
    // flag owns the whole path through AbortSubtree and ForgetTxn; every
    // other abort/commit attempt that observes it backs off — re-entering
    // mid-undo would apply the undo chain twice and then dangle the Txn&.
    bool abort_started = false;

    // Empties the entry for its next transaction, keeping each list's
    // capacity (NodeRecycler::Get calls it).
    void clear();
  };

  Txn* Find(const TransactionId& tid);
  const Txn* Find(const TransactionId& tid) const;
  // The entry a task held before a wait, if it still is that entry: nullptr
  // once it was forgotten, even if a later entry now holds the id or the node.
  Txn* Find(const TransactionId& tid, std::uint64_t generation);
  // Creates `tid`'s entry on a recycled node and stamps its generation.
  Txn& NewTxn(const TransactionId& tid);
  // Erases `tid`'s entry, keeping its node for the next NewTxn.
  void EraseTxn(const TransactionId& tid);
  // The unguarded abort path: sets abort_started and unwinds. Abort() and
  // CascadeAbort() are the guarded entry points.
  void AbortImpl(Txn& txn);

  // What phase one learned at one node (PrepareSubtree).
  struct Tally {
    // Not kOk when phase one ended the transaction itself: kVoteNo when it
    // was rolled back here (a child is down, or a queue-mode wait failed),
    // kAborted when an abort running elsewhere owns it or forgot it.
    Status status = Status::kOk;
    Vote vote = Vote::kReadOnly;   // the subtree's, this node included
    Vote local = Vote::kReadOnly;  // this node's joined servers alone
    sim::SmallList<VoteMsg> votes;  // each child's vote, counted once
    Lsn deferred_prepare = kNullLsn;  // a leader's unforced prepare record
  };

  // Implemented in two_phase_commit.cc.
  Status CommitTopLevel(Txn& txn);
  Tally PrepareSubtree(Txn& txn, bool leader);
  // Queue mode: a dependent may not vote or decide before its predecessors
  // do. Returns kOk to go on, kAborted when a cascade abort owns (or already
  // forgot) the transaction, kVoteNo when the wait failed and the subtree
  // was rolled back here.
  Status AwaitPredecessors(Txn& txn);
  // The prepare record: afterwards this node is in doubt until the verdict.
  // With `deferred`, a co-located acceptor's forced acceptance will make the
  // record stable, so it is only appended and its LSN returned there.
  // Returns false when an abort consumed the transaction meanwhile.
  bool PrepareLocally(Txn& txn, Lsn* deferred);
  // Phase two here and below, then forgets the transaction: `txn` is gone
  // when it returns.
  void CommitSubtree(Txn& txn, bool is_root);
  // Rolls the subtree back here, tells this node's children, logs the abort
  // and forgets the transaction: `txn` is gone when it returns.
  void AbortSubtree(Txn& txn);
  void CommitSubtransaction(Txn& txn);
  // A subtransaction's outcome here and, by datagram, at every live child of
  // `top`'s tree: `child` merges into `parent`, or unwinds if `parent` is
  // null. Entry `holder` (the child at its birth node, else `top`) names the
  // servers holding the child's locks.
  void SettleSubtxn(const TransactionId& child, const TransactionId& parent,
                    const TransactionId& top, const TransactionId& holder);
  TransactionManager* Peer(NodeId node) const;
  // One round's fan-out, in `nodes` order: `local()` for this node and
  // `remote(node, its TransactionManager)` for every live peer. The sender
  // serializes sends, so each datagram after the first leaves half a
  // datagram time later (the paper's half-datagram estimate, Table 5-3
  // note). Returns how many nodes it reached.
  template <typename Nodes, typename Local, typename Remote>
  size_t ToPeers(const Nodes& nodes, Local local, Remote remote) {
    sim::Substrate& sub = node_.substrate();
    size_t reached = 0;
    size_t sends = 0;
    for (NodeId node : nodes) {
      if (node == node_.id()) {
        local();
        ++reached;
        continue;
      }
      TransactionManager* peer = Peer(node);
      if (peer == nullptr) {
        continue;  // a dead peer: the round goes on without it
      }
      if (sends++ > 0) {
        sub.scheduler().Charge(sub.CostOf(sim::Primitive::kDatagram) / 2);
      }
      ++reached;
      remote(node, peer);
    }
    return reached;
  }

  // Refills txn_record_ from `txn` and appends it.
  Lsn AppendTxnRecord(log::RecordType type, const Txn& txn);
  void ForceLsn(Lsn lsn);
  // Blocks until the appended record at `lsn` is stable. Queue mode drops
  // the transaction's locks first (OnEarlyRelease), `taint`ed when the
  // outcome is still undecided: a successor granted a released object then
  // becomes commit-dependent on this transaction.
  void MakeDurable(Lsn lsn, Txn& txn, bool taint);
  // Queue mode: abort a queued successor of an aborting early-releaser. The
  // victim's entry is consumed here; its own task observes the abort through
  // the RefusesOps / cascading-set guards.
  void CascadeAbort(const TransactionId& tid);
  void ForgetTxn(const TransactionId& tid);

  kernel::Node& node_;
  recovery::RecoveryManager& rm_;
  comm::CommManager& cm_;
  const std::map<NodeId, TransactionManager*>* peers_ = nullptr;
  log::GroupCommit* group_commit_ = nullptr;

  // Transaction ids are (incarnation_ << kIncarnationShift) | next_sequence_.
  // The counter restarts at 1 with every incarnation; the incarnation only
  // moves forward (replay of NODE_EPOCH records, then BeginNewIncarnation).
  std::uint64_t incarnation_ = 0;
  std::uint64_t next_sequence_ = 1;
  std::map<TransactionId, Txn> txns_;
  NodeRecycler<std::map<TransactionId, Txn>> txn_nodes_;
  std::uint64_t next_generation_ = 1;
  // Every transaction record is built here: assign keeps each list's
  // capacity, and LogManager::Append serializes the record before it returns
  // (it never yields), so one scratch record serves every transaction.
  log::LogRecord txn_record_;

  // Durable knowledge rebuilt from the log by ObserveTxnRecord, plus
  // outcomes decided since; consulted by KnownOutcome and OutcomeOf.
  std::map<TransactionId, recovery::TxnOutcome> logged_outcomes_;
  // Prepared entries as the analysis pass read them from prepare records,
  // with where the verdict lives. Scratch: PostRecovery moves the in-doubt
  // ones into txns_ and clears it.
  std::map<TransactionId, Txn> logged_prepares_;

  // How long the coordinator waits for each vote or ack before treating the
  // child as failed (WorldOptions::vote_timeout_us; fault sweeps tighten it).
  SimTime vote_timeout_ = 10'000'000;  // 10 s virtual

  CommitMode commit_mode_ = CommitMode::kTwoPhase;
  std::unique_ptr<PaxosCommit> paxos_;

  // True when an abort of `txn` — or of the top-level transaction it belongs
  // to — is already in flight on some other task.
  bool AbortInProgress(const Txn& txn) const;

  // Queue-oriented execution state (volatile; empty when the mode is off).
  OpQueue op_queue_;

  friend class PaxosCommit;
};

}  // namespace tabs::txn

#endif  // TABS_TXN_TRANSACTION_MANAGER_H_
