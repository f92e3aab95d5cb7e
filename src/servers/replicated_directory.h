// The replicated directory object (paper Section 4.5).
//
// "The replicated directory object provides an abstraction identical to a
// conventional directory but stores its data in multiple directory
// representative servers on different nodes" using the Daniels/Spector
// variation of Gifford's weighted voting. Each representative holds a
// per-entry version number next to the data, stored in a B-tree server on
// its node (the paper's representatives "use a B-tree server to actually
// store the data"); the client-side module — linked into the client program,
// as in the paper — coordinates voting:
//
//  * a read collects representatives until their votes reach the read
//    quorum r and believes the highest version;
//  * a write first reads a quorum to learn the current version, then
//    installs version+1 at representatives worth at least the write quorum
//    w, all inside the caller's transaction — so distributed transactions do
//    the heavy lifting: partial writes abort atomically across nodes, and
//    commit runs the multi-node two-phase protocol.
// With r + w greater than the total votes, any read quorum intersects any
// write quorum, so the highest version in a read quorum is current. One
// node of three can be down and the data stays available (the paper's test
// configuration).
//
// Deletion writes a tombstone (deleted flag, version bumped) rather than
// removing the entry, so stale representatives cannot resurrect old data.

#ifndef TABS_SERVERS_REPLICATED_DIRECTORY_H_
#define TABS_SERVERS_REPLICATED_DIRECTORY_H_

#include <string>
#include <vector>

#include "src/servers/btree_server.h"

namespace tabs::servers {

struct RepEntry {
  std::uint32_t version = 0;  // 0: never written at this representative
  bool deleted = false;
  std::string value;
};

// A directory representative: versioned read/write over a local B-tree
// server. Performs localized functions of the voting algorithm.
class DirectoryRep : public server::DataServer {
 public:
  DirectoryRep(const server::ServerContext& ctx, BTreeServer* storage, int votes);

  int votes() const { return votes_; }
  // Representatives are re-created on node recovery; World re-wires storage.
  void SetStorage(BTreeServer* storage) { storage_ = storage; }

  Result<RepEntry> RepRead(const server::Tx& tx, const std::string& key);
  Status RepWrite(const server::Tx& tx, const std::string& key, const RepEntry& entry);

 private:
  BTreeServer* storage_;
  int votes_;
};

// The client-linked global-coordination module (not a data server).
class ReplicatedDirectory {
 public:
  struct Replica {
    DirectoryRep* rep = nullptr;
    NodeId node = kInvalidNode;
  };

  ReplicatedDirectory(std::vector<Replica> replicas, int read_quorum, int write_quorum);

  // All operations run inside the caller's transaction.
  Result<std::string> Lookup(const server::Tx& tx, const std::string& key);
  Status Insert(const server::Tx& tx, const std::string& key, const std::string& value);
  Status Update(const server::Tx& tx, const std::string& key, const std::string& value);
  Status Remove(const server::Tx& tx, const std::string& key);

  // Lets tests re-point at re-created representatives after recovery.
  std::vector<Replica>& replicas() { return replicas_; }

 private:
  struct QuorumRead {
    RepEntry current;               // the max-version entry seen
    int votes = 0;                  // votes gathered
    std::vector<size_t> reachable;  // replica indices that answered
  };
  Result<QuorumRead> GatherReadQuorum(const server::Tx& tx, const std::string& key);
  Status InstallWrite(const server::Tx& tx, const std::string& key, const RepEntry& entry);

  std::vector<Replica> replicas_;
  int read_quorum_;
  int write_quorum_;
  int total_votes_ = 0;
};

}  // namespace tabs::servers

#endif  // TABS_SERVERS_REPLICATED_DIRECTORY_H_
