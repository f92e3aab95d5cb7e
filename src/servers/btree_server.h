// The B-tree server (paper Section 4.4).
//
// Maintains collections of directory entries in a B-tree inside a
// recoverable segment; it is the storage engine under the replicated
// directory (Section 4.5). Because nodes are allocated dynamically, the
// server needs a *recoverable storage allocator*: pages are allocated from a
// pool using "techniques similar to the weak queue server" — an in-use byte
// per page, individually locked, so that aborting a transaction that
// allocated storage returns the memory, and pages freed by a transaction
// stay locked (unreusable) until it commits.
//
// The paper's port of the pre-existing B-tree program used LockAndMark /
// PinAndBufferMarkedObjects / LogAndUnPinMarkedObjects so every lock is set
// before anything is pinned (the checkpoint protocol forbids waiting for a
// lock while holding pins); operations here follow the same discipline:
// tree-level two-phase locking, then pin/modify/log node by node.
//
// Simplifications relative to a production B-tree (documented in DESIGN.md):
// deletion removes keys without rebalancing (emptied non-root leaves are
// freed lazily), and keys/values are fixed-capacity byte strings.

#ifndef TABS_SERVERS_BTREE_SERVER_H_
#define TABS_SERVERS_BTREE_SERVER_H_

#include <optional>
#include <string>
#include <vector>

#include "src/placement/shard_map.h"
#include "src/server/data_server.h"

namespace tabs::servers {

class BTreeServer : public server::DataServer {
 public:
  static constexpr std::uint32_t kMaxKey = 32;
  static constexpr std::uint32_t kMaxValue = 64;

  BTreeServer(const server::ServerContext& ctx, PageNumber pool_pages = 256);
  // Sharded-service constructor: this instance holds the keys that hash to
  // its slice (keys travel unchanged; each shard is an independent tree).
  BTreeServer(const server::ServerContext& ctx, placement::ShardSlice slice,
              PageNumber pool_pages = 256);

  const placement::ShardSlice& shard() const { return slice_; }

  // All operations run under the caller's transaction with strict 2PL on a
  // tree lock (shared for reads, exclusive for updates).
  Status Insert(const server::Tx& tx, const std::string& key, const std::string& value);
  Status Update(const server::Tx& tx, const std::string& key, const std::string& value);
  Status Upsert(const server::Tx& tx, const std::string& key, const std::string& value);
  Status Remove(const server::Tx& tx, const std::string& key);
  Result<std::string> Lookup(const server::Tx& tx, const std::string& key);
  // All entries with first <= key <= last, in order.
  Result<std::vector<std::pair<std::string, std::string>>> Scan(const server::Tx& tx,
                                                                const std::string& first,
                                                                const std::string& last);
  Result<std::uint32_t> Size(const server::Tx& tx);

  // Structural checks for tests: sortedness, key bounds, reachability.
  bool CheckInvariants();
  std::uint32_t AllocatedPages();

 private:
  // Segment layout:
  //   page 0: meta {root u32, entry_count u32, tree-lock object at offset 16}
  //           + allocator in-use bytes for pages [1, pool_pages).
  //   pages 1..: tree nodes.
  struct Node;  // defined in the .cc

  ObjectId MetaRootOid() const { return CreateObjectId(0, 4); }
  ObjectId MetaCountOid() const { return CreateObjectId(4, 4); }
  ObjectId TreeLockOid() const { return CreateObjectId(16, 4); }
  ObjectId NodeOid(PageNumber page) const { return CreateObjectId(page * kPageSize, kPageSize); }

  Node ReadNode(PageNumber page);
  void WriteNode(const server::Tx& tx, PageNumber page, const Node& node);

  std::uint32_t ReadU32(const ObjectId& oid);
  void WriteU32(const server::Tx& tx, const ObjectId& oid, std::uint32_t v);

  // Descends to the leaf for `key`, recording the path (pages + child slot).
  struct PathEntry {
    PageNumber page;
    int child_index;
  };
  PageNumber DescendToLeaf(const std::string& key, std::vector<PathEntry>* path);

  Status InsertIntoLeaf(const server::Tx& tx, const std::string& key,
                        const std::string& value, bool allow_exists, bool require_exists);

  PagePool pool_;  // page p's in-use byte at offset 32 + p
  placement::ShardSlice slice_;  // {0, 1} unless service-sharded
};

}  // namespace tabs::servers

#endif  // TABS_SERVERS_BTREE_SERVER_H_
