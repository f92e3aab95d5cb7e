// Paxos Commit (Gray & Lamport, "Consensus on Transaction Commit"): the
// non-blocking commit mode behind WorldOptions::commit_mode = kPaxosCommit.
//
// Plain two-phase commit blocks: if the coordinator dies after collecting
// votes but before any commit datagram lands, every prepared participant
// holds its locks until the coordinator node recovers (the window the paper
// concedes and the crash-point explorer demonstrates). Paxos Commit removes
// the single point of knowledge by running one Paxos consensus instance per
// participant vote, with a per-transaction set of 2F+1 acceptors chosen
// deterministically from the cluster membership:
//
//  * Ballot 0 (the fast path): each participant prepares exactly as in 2PC,
//    then sends its vote to the leader, which relays every instance's
//    pre-assigned phase-2a value to the acceptors (the coordinator-relay
//    variant of Gray & Lamport §6: one extra message delay, far fewer
//    messages). All instances bound for one acceptor ride a single
//    accept-bundle datagram, and the acceptor logs ONE forced multi-instance
//    acceptance covering the whole bundle before it replies — the 2F+1 × P
//    fan-out collapses to 2F+1 datagrams and one force per acceptor. An
//    instance is decided once F+1 acceptors accepted; the transaction
//    commits iff every instance decided Prepared or ReadOnly.
//  * Read-only fast path: when every vote arrives and none is Prepared the
//    leader answers as soon as the last vote lands — no ballot-0 instances,
//    no acceptor forces. Safe because nothing is Prepared anywhere: every
//    participant voted ReadOnly (locks already released) or Aborted (already
//    rolled back), so there is no in-doubt state a takeover could need to
//    resolve, and a takeover that runs anyway decides Aborted for the
//    never-started instances, which is indistinguishable to every
//    participant. A vote that never ARRIVES is different: its participant
//    may be crashed holding a durable prepare, so the leader must resolve
//    through a takeover — the verdict has to be learned at the acceptors,
//    which is where that participant's recovery will look for it.
//  * Takeover (the non-blocking guarantee): any node that knows the
//    participant and acceptor sets — they ride in every prepare record and
//    prepare datagram — can drive all instances to a decision with a fresh
//    ballot: phase 1a to the acceptors, adopt the highest accepted vote per
//    instance (Aborted for instances no quorum member has seen), phase 2a,
//    decided at F+1 acks. Tolerates F acceptor failures AND the death of
//    coordinator and every participant: the decision lives at the acceptors.
//
// Acceptor state (promised ballot, accepted votes, learned outcome) is
// logged through the node's common WAL and rebuilt by the analysis pass, so
// acceptors crash-recover into the same instance. The commit point moves
// from the coordinator's forced commit record to the F+1-th acceptor's
// bundle acceptance (which covers every instance at once); the coordinator's
// own commit record is a lazy hint.
//
// Everything else is the shared commit engine (two_phase_commit.cc): 2PC is
// Paxos Commit with no acceptors, so prepares, votes, the local prepare and
// the commit and abort tails run once for both modes. This file holds only
// the acceptor verdict store: where the verdict becomes durable (Decide, the
// acceptor role) and where an in-doubt node learns it (Resolve).

#ifndef TABS_TXN_PAXOS_COMMIT_H_
#define TABS_TXN_PAXOS_COMMIT_H_

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "src/common/types.h"
#include "src/log/log_record.h"
#include "src/recovery/recovery_manager.h"
#include "src/sim/scheduler.h"

namespace tabs::txn {

class TransactionManager;

// Which protocol EndTransaction runs for a top-level commit.
enum class CommitMode {
  kTwoPhase,     // the paper's tree-structured 2PC (default)
  kPaxosCommit,  // non-blocking: 2F+1 acceptors replicate the decision
};

// The process-wide default commit mode: kTwoPhase unless the environment
// variable TABS_COMMIT_MODE says "paxos". WorldOptions::commit_mode defaults
// to this, which is how CI runs the whole test suite under either protocol
// without per-test plumbing; tests that exercise protocol-specific behaviour
// pin the mode explicitly.
CommitMode DefaultCommitMode();

using Ballot = std::int32_t;

// A subtree's vote in phase one, and under Paxos Commit the value of its
// participant's consensus instance. The values are the logged `paxos_vote`
// encoding. The transaction commits iff no vote (instance) is kAborted.
enum class Vote : std::int8_t {
  kNone = 0,
  kPrepared = 1,  // updates here or below, durably prepared: in doubt
  kReadOnly = 2,  // nothing written: locks already released
  kAborted = -1,  // rolled back, or unable to prepare
};

// A child's vote, sent to its parent in the spanning tree.
struct VoteMsg {
  NodeId from = kInvalidNode;
  Vote vote = Vote::kNone;
};

// One accepted (participant, ballot, vote) triple at an acceptor.
struct InstanceValue {
  NodeId participant = kInvalidNode;
  Ballot ballot = 0;
  Vote vote = Vote::kNone;
};

// Phase-2b reply: acceptor `from` accepted every instance in the bundle it
// was sent at `ballot` (ok), or rejected the ballot (takeover phase 2 only).
// One reply covers the whole bundle — the acceptor logs all instances in one
// forced record, so there is no per-instance acknowledgement.
struct PaxosAccepted {
  NodeId from = kInvalidNode;
  Ballot ballot = 0;
  bool ok = true;
};

// Phase-1b reply from acceptor `from`: promise (with everything it has
// accepted for the transaction's instances) or rejection, plus any learned
// outcome.
struct PaxosPromise {
  NodeId from = kInvalidNode;
  bool ok = false;
  Ballot promised = 0;
  int learned = 0;  // +1 committed, -1 aborted, 0 unknown
  sim::SmallList<InstanceValue> accepted;  // in participant order
};

// The per-node Paxos Commit engine: acceptor role for any transaction whose
// acceptor set includes this node, plus the leader-side primitives the
// TransactionManager's coordinator path and takeover path drive. Owned by
// (and a friend of) the TransactionManager; peers are reached through the
// TM's peer table with datagrams, exactly like the 2PC messages.
class PaxosCommit {
 public:
  explicit PaxosCommit(TransactionManager& tm) : tm_(tm) {}

  void SetF(int f) { f_ = f < 0 ? 0 : f; }

  // The 2F+1 acceptors for `tid`: a rotation of the sorted cluster membership
  // starting at (counter + coordinator node) mod size. Every coordinator's
  // counter advances at about the same pace, so keyed by the counter alone,
  // transactions begun together on different nodes would share acceptors.
  // Clamped to the largest odd set the membership supports. Includes dead
  // nodes on purpose: the set must be a pure function of (membership, tid) so
  // every participant, standby leader and recovered node derives the same one.
  sim::SmallList<NodeId> ChooseAcceptors(const TransactionId& tid) const;
  static size_t Quorum(std::span<const NodeId> acceptors) { return acceptors.size() / 2 + 1; }

  // --- leader side -------------------------------------------------------------
  // The coordinator's verdict for `tid` once phase one is over: `local` is
  // its own vote and `votes` its children's (one each; fewer when a vote
  // never arrived). Returns +1 commit, -1 abort, or 0 when no acceptor
  // quorum is reachable (still in doubt). Sets `*learn` when a ballot-0
  // round decided, so the caller teaches the acceptors; a takeover teaches
  // them, and every participant, itself. `prepare_lsn` is the leader's
  // deferred prepare record (see SendAcceptBundles). The lists must outlive
  // the call's waits: the caller's own copies, not a txns_ entry's.
  int Decide(const TransactionId& tid, std::span<const NodeId> participants,
             std::span<const NodeId> acceptors, Vote local, std::span<const VoteMsg> votes,
             Lsn prepare_lsn, bool* learn);

  // Takeover: drive every instance of `tid` to a decision with a fresh
  // ballot (phase 1, value selection, phase 2). Returns +1 commit, -1 abort,
  // or 0 if no acceptor quorum is reachable right now (still in doubt).
  // On a decision, learn datagrams go to the acceptors and verdict datagrams
  // to the other participants, so every in-doubt peer unblocks too.
  // Concurrent callers on one node are serialized per transaction (the
  // second waits for the first's verdict); competing leaders on different
  // nodes de-synchronize with a deterministic node-keyed retry backoff.
  int Resolve(const TransactionId& tid, std::span<const NodeId> participants,
              std::span<const NodeId> acceptors);

  // Learn datagrams to every acceptor (the local one applies directly).
  void BroadcastLearn(const TransactionId& tid, int outcome, std::span<const NodeId> acceptors);

  // --- acceptor side (run on the acceptor's node via datagram handlers) -----
  // Ballot-0 2a: accept every instance in the bundle and log them as ONE
  // forced multi-instance kPaxosAccept record; the caller acknowledges the
  // whole bundle with a single reply. Returns false (the caller stays
  // silent) when a takeover moved past ballot 0 or the outcome is already
  // learned.
  bool AcceptBundle(const TransactionId& tid, Ballot ballot,
                    std::span<const InstanceValue> values);
  // Phase 1a at `ballot`: promise (durably) or reject.
  PaxosPromise Promise(const TransactionId& tid, Ballot ballot);
  // Takeover phase 2a at `ballot`: accept values for every instance at once.
  bool AcceptAll(const TransactionId& tid, Ballot ballot, std::span<const InstanceValue> values);
  // The decided outcome (+1/-1) reached this acceptor.
  void Learn(const TransactionId& tid, int outcome);

  // --- recovery --------------------------------------------------------------
  // Analysis-pass replay of kPaxos* records: rebuilds promised ballots,
  // accepted votes and learned outcomes.
  void ObserveRecord(const log::LogRecord& rec);
  // Undecided acceptor state pins the log (as synthetic prepared entries in
  // the active-transaction table) so reclamation cannot truncate an accept
  // record that a takeover may still need after this acceptor's next crash.
  std::vector<recovery::RecoveryManager::ActiveTxn> PinnedInstances() const;
  // Transactions this node holds acceptor state for (World::DescribeNode).
  size_t state_count() const { return states_.size(); }

 private:
  struct AcceptorState {
    Ballot promised = 0;
    // One value per instance, inline, in ascending participant order.
    sim::SmallList<InstanceValue> accepted;
    int learned = 0;
    Lsn first_lsn = kNullLsn;
  };

  NodeId self() const;
  Ballot NextBallot();
  // Ballot-0 phase 2a, coalesced: ONE accept-bundle datagram per acceptor
  // node carries every instance's pre-assigned value; acceptances come back
  // through `replies`, one per acceptor. Returns the number of acceptors
  // contacted. When `prepare_lsn` is set, the caller deferred its own
  // prepare-record force: this node's acceptance (forced, and later in the
  // WAL) covers it in the same stable write, and SendAcceptBundles
  // guarantees the LSN is durable before any remote bundle leaves — a remote
  // quorum must never decide Prepared while the coordinator's redo is still
  // volatile.
  size_t SendAcceptBundles(const TransactionId& tid, const sim::SmallList<InstanceValue>& values,
                           std::span<const NodeId> acceptors,
                           const sim::RepliesPtr<PaxosAccepted>& replies, Lsn prepare_lsn);
  // Appends one acceptor record at `ballot` carrying `values` (a kPaxosAccept
  // also records their acceptance): one record, and one force, per bundle.
  // The record is refilled in record_, as TransactionManager::AppendTxnRecord
  // refills its own.
  Lsn AppendRecord(log::RecordType type, const TransactionId& tid, Ballot ballot,
                   std::span<const InstanceValue> values);
  // The ballot-driving loop behind Resolve (which adds the per-transaction
  // single-leader guard around it).
  int RunTakeover(const TransactionId& tid, std::span<const NodeId> participants,
                  std::span<const NodeId> acceptors);

  TransactionManager& tm_;
  int f_ = 1;
  std::map<TransactionId, AcceptorState> states_;
  log::LogRecord record_;
  int takeover_round_ = 0;
  // The verdict of each takeover in flight on this node, awaited by later
  // local callers for the same transaction.
  std::map<TransactionId, sim::FuturePtr<int>> takeovers_;
};

}  // namespace tabs::txn

#endif  // TABS_TXN_PAXOS_COMMIT_H_
