#include "src/servers/btree_server.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace tabs::servers {

// Node wire format (one page):
//   u8 is_leaf; u8 nkeys; u16 pad;
//   leaf:     nkeys x {key[32], value[64]}                    (max 5)
//   internal: child0 u32; nkeys x {key[32], child u32}        (max 12)
// An internal node's key[i] is the smallest key reachable through child i+1.
struct BTreeServer::Node {
  bool is_leaf = true;
  std::vector<std::string> keys;
  std::vector<std::string> values;     // leaves only
  std::vector<PageNumber> children;    // internal only, size == keys.size() + 1

  static constexpr int kLeafMax = 5;
  static constexpr int kInternalMax = 12;

  Bytes Serialize() const {
    Bytes out(kPageSize, 0);
    out[0] = is_leaf ? 1 : 0;
    out[1] = static_cast<std::uint8_t>(keys.size());
    size_t pos = 4;
    auto put_str = [&](const std::string& s, size_t cap) {
      assert(s.size() <= cap);
      std::uint8_t len = static_cast<std::uint8_t>(s.size());
      out[pos++] = len;
      std::memcpy(out.data() + pos, s.data(), s.size());
      pos += cap;
    };
    if (is_leaf) {
      for (size_t i = 0; i < keys.size(); ++i) {
        put_str(keys[i], kMaxKey);
        put_str(values[i], kMaxValue);
      }
    } else {
      std::memcpy(out.data() + pos, &children[0], 4);
      pos += 4;
      for (size_t i = 0; i < keys.size(); ++i) {
        put_str(keys[i], kMaxKey);
        std::memcpy(out.data() + pos, &children[i + 1], 4);
        pos += 4;
      }
    }
    assert(pos <= kPageSize);
    return out;
  }

  static Node Deserialize(const Bytes& in) {
    Node n;
    n.is_leaf = in[0] != 0;
    int nkeys = in[1];
    size_t pos = 4;
    auto get_str = [&](size_t cap) {
      std::uint8_t len = in[pos++];
      std::string s(reinterpret_cast<const char*>(in.data() + pos), len);
      pos += cap;
      return s;
    };
    if (n.is_leaf) {
      for (int i = 0; i < nkeys; ++i) {
        n.keys.push_back(get_str(kMaxKey));
        n.values.push_back(get_str(kMaxValue));
      }
    } else {
      PageNumber c;
      std::memcpy(&c, in.data() + pos, 4);
      pos += 4;
      n.children.push_back(c);
      for (int i = 0; i < nkeys; ++i) {
        n.keys.push_back(get_str(kMaxKey));
        std::memcpy(&c, in.data() + pos, 4);
        pos += 4;
        n.children.push_back(c);
      }
    }
    return n;
  }
};

namespace {
server::DataServer::Options MakeOptions(PageNumber pool_pages) {
  server::DataServer::Options o;
  o.pages = pool_pages;
  return o;
}
}  // namespace

BTreeServer::BTreeServer(const server::ServerContext& ctx, PageNumber pool_pages)
    : DataServer(ctx, MakeOptions(pool_pages)),
      pool_{.map_offset = 32 + 1, .first = 1, .end = pool_pages} {
  assert(pool_pages >= 4);
  assert(32 + pool_pages <= kPageSize && "allocator byte map must fit in the meta page");
}

BTreeServer::BTreeServer(const server::ServerContext& ctx, placement::ShardSlice slice,
                         PageNumber pool_pages)
    : BTreeServer(ctx, pool_pages) {
  slice_ = slice;
}

std::uint32_t BTreeServer::ReadU32(const ObjectId& oid) {
  Bytes b = ReadObject(oid);
  std::uint32_t v;
  std::memcpy(&v, b.data(), 4);
  return v;
}

void BTreeServer::WriteU32(const server::Tx& tx, const ObjectId& oid, std::uint32_t v) {
  PinAndBuffer(tx, oid);
  std::memcpy(Staged(tx, oid).data(), &v, 4);
  LogAndUnPin(tx, oid);
}

BTreeServer::Node BTreeServer::ReadNode(PageNumber page) {
  return Node::Deserialize(ReadObject(NodeOid(page)));
}

void BTreeServer::WriteNode(const server::Tx& tx, PageNumber page, const Node& node) {
  ObjectId oid = NodeOid(page);
  PinAndBuffer(tx, oid);
  Staged(tx, oid) = node.Serialize();
  LogAndUnPin(tx, oid);
}

PageNumber BTreeServer::DescendToLeaf(const std::string& key, std::vector<PathEntry>* path) {
  PageNumber page = ReadU32(MetaRootOid());
  if (page == 0) {
    return 0;
  }
  for (;;) {
    Node node = ReadNode(page);
    if (node.is_leaf) {
      return page;
    }
    int idx = static_cast<int>(
        std::upper_bound(node.keys.begin(), node.keys.end(), key) - node.keys.begin());
    if (path != nullptr) {
      path->push_back({page, idx});
    }
    page = node.children[static_cast<size_t>(idx)];
  }
}

Result<std::string> BTreeServer::Lookup(const server::Tx& tx, const std::string& key) {
  return Call<std::string>(tx, "Lookup", [this, tx, key = key]() -> Result<std::string> {
    Status s = LockObject(tx, TreeLockOid(), lock::kShared);
    if (s != Status::kOk) {
      return s;
    }
    PageNumber leaf = DescendToLeaf(key, nullptr);
    if (leaf == 0) {
      return Status::kNotFound;
    }
    Node node = ReadNode(leaf);
    auto it = std::lower_bound(node.keys.begin(), node.keys.end(), key);
    if (it == node.keys.end() || *it != key) {
      return Status::kNotFound;
    }
    return node.values[static_cast<size_t>(it - node.keys.begin())];
  });
}

Status BTreeServer::InsertIntoLeaf(const server::Tx& tx, const std::string& key,
                                   const std::string& value, bool allow_exists,
                                   bool require_exists) {
  if (key.empty() || key.size() > kMaxKey || value.size() > kMaxValue) {
    return Status::kOutOfRange;
  }
  // Locks first, pins second (LockAndMark discipline): the tree lock covers
  // every structural change this operation makes.
  Status s = LockAndMark(tx, TreeLockOid(), lock::kExclusive);
  if (s != Status::kOk) {
    return s;
  }

  PageNumber root = ReadU32(MetaRootOid());
  if (root == 0) {
    auto page = AllocatePage(tx, pool_);
    if (!page.ok()) {
      return page.status();
    }
    if (require_exists) {
      return Status::kNotFound;
    }
    Node leaf;
    leaf.is_leaf = true;
    leaf.keys.push_back(key);
    leaf.values.push_back(value);
    WriteNode(tx, page.value(), leaf);
    WriteU32(tx, MetaRootOid(), page.value());
    WriteU32(tx, MetaCountOid(), 1);
    return Status::kOk;
  }

  std::vector<PathEntry> path;
  PageNumber leaf_page = DescendToLeaf(key, &path);
  Node leaf = ReadNode(leaf_page);
  auto it = std::lower_bound(leaf.keys.begin(), leaf.keys.end(), key);
  size_t idx = static_cast<size_t>(it - leaf.keys.begin());
  bool exists = it != leaf.keys.end() && *it == key;

  if (exists) {
    if (!allow_exists) {
      return Status::kConflict;
    }
    leaf.values[idx] = value;
    WriteNode(tx, leaf_page, leaf);
    return Status::kOk;
  }
  if (require_exists) {
    return Status::kNotFound;
  }

  leaf.keys.insert(leaf.keys.begin() + static_cast<std::ptrdiff_t>(idx), key);
  leaf.values.insert(leaf.values.begin() + static_cast<std::ptrdiff_t>(idx), value);
  WriteU32(tx, MetaCountOid(), ReadU32(MetaCountOid()) + 1);

  if (leaf.keys.size() <= Node::kLeafMax) {
    WriteNode(tx, leaf_page, leaf);
    return Status::kOk;
  }

  // Split the leaf, then propagate separators up the recorded path,
  // splitting internals as needed.
  std::string sep;
  PageNumber new_page = 0;
  {
    auto right_page = AllocatePage(tx, pool_);
    if (!right_page.ok()) {
      return right_page.status();
    }
    size_t mid = leaf.keys.size() / 2;
    Node right;
    right.is_leaf = true;
    right.keys.assign(leaf.keys.begin() + static_cast<std::ptrdiff_t>(mid), leaf.keys.end());
    right.values.assign(leaf.values.begin() + static_cast<std::ptrdiff_t>(mid),
                        leaf.values.end());
    leaf.keys.resize(mid);
    leaf.values.resize(mid);
    sep = right.keys.front();
    WriteNode(tx, leaf_page, leaf);
    WriteNode(tx, right_page.value(), right);
    new_page = right_page.value();
  }

  PageNumber child_left = leaf_page;
  while (!path.empty()) {
    PathEntry entry = path.back();
    path.pop_back();
    Node parent = ReadNode(entry.page);
    parent.keys.insert(parent.keys.begin() + entry.child_index, sep);
    parent.children.insert(parent.children.begin() + entry.child_index + 1, new_page);
    if (parent.keys.size() <= Node::kInternalMax) {
      WriteNode(tx, entry.page, parent);
      return Status::kOk;
    }
    auto right_page = AllocatePage(tx, pool_);
    if (!right_page.ok()) {
      return right_page.status();
    }
    size_t mid = parent.keys.size() / 2;
    std::string up = parent.keys[mid];
    Node right;
    right.is_leaf = false;
    right.keys.assign(parent.keys.begin() + static_cast<std::ptrdiff_t>(mid) + 1,
                      parent.keys.end());
    right.children.assign(parent.children.begin() + static_cast<std::ptrdiff_t>(mid) + 1,
                          parent.children.end());
    parent.keys.resize(mid);
    parent.children.resize(mid + 1);
    WriteNode(tx, entry.page, parent);
    WriteNode(tx, right_page.value(), right);
    sep = up;
    child_left = entry.page;
    new_page = right_page.value();
  }
  (void)child_left;

  // The root itself split: grow the tree by one level.
  auto new_root = AllocatePage(tx, pool_);
  if (!new_root.ok()) {
    return new_root.status();
  }
  Node root_node;
  root_node.is_leaf = false;
  root_node.children.push_back(ReadU32(MetaRootOid()));
  root_node.keys.push_back(sep);
  root_node.children.push_back(new_page);
  WriteNode(tx, new_root.value(), root_node);
  WriteU32(tx, MetaRootOid(), new_root.value());
  return Status::kOk;
}

Status BTreeServer::Insert(const server::Tx& tx, const std::string& key,
                           const std::string& value) {
  auto r = Call<bool>(tx, "Insert", [&]() -> Result<bool> {
    Status s = InsertIntoLeaf(tx, key, value, /*allow_exists=*/false, /*require_exists=*/false);
    if (s != Status::kOk) {
      return s;
    }
    return true;
  });
  return r.ok() ? Status::kOk : r.status();
}

Status BTreeServer::Update(const server::Tx& tx, const std::string& key,
                           const std::string& value) {
  auto r = Call<bool>(tx, "Update", [&]() -> Result<bool> {
    Status s = InsertIntoLeaf(tx, key, value, /*allow_exists=*/true, /*require_exists=*/true);
    if (s != Status::kOk) {
      return s;
    }
    return true;
  });
  return r.ok() ? Status::kOk : r.status();
}

Status BTreeServer::Upsert(const server::Tx& tx, const std::string& key,
                           const std::string& value) {
  auto r = Call<bool>(tx, "Upsert", [&]() -> Result<bool> {
    Status s = InsertIntoLeaf(tx, key, value, /*allow_exists=*/true, /*require_exists=*/false);
    if (s != Status::kOk) {
      return s;
    }
    return true;
  });
  return r.ok() ? Status::kOk : r.status();
}

Status BTreeServer::Remove(const server::Tx& tx, const std::string& key) {
  auto r = Call<bool>(tx, "Remove", [&]() -> Result<bool> {
    Status s = LockAndMark(tx, TreeLockOid(), lock::kExclusive);
    if (s != Status::kOk) {
      return s;
    }
    std::vector<PathEntry> path;
    PageNumber leaf_page = DescendToLeaf(key, &path);
    if (leaf_page == 0) {
      return Status::kNotFound;
    }
    Node leaf = ReadNode(leaf_page);
    auto it = std::lower_bound(leaf.keys.begin(), leaf.keys.end(), key);
    if (it == leaf.keys.end() || *it != key) {
      return Status::kNotFound;
    }
    size_t idx = static_cast<size_t>(it - leaf.keys.begin());
    leaf.keys.erase(leaf.keys.begin() + static_cast<std::ptrdiff_t>(idx));
    leaf.values.erase(leaf.values.begin() + static_cast<std::ptrdiff_t>(idx));
    WriteNode(tx, leaf_page, leaf);
    WriteU32(tx, MetaCountOid(), ReadU32(MetaCountOid()) - 1);
    // Lazy structure maintenance: an emptied leaf is unlinked from its
    // parent and returned to the pool when it has a parent to unlink from.
    if (leaf.keys.empty() && !path.empty()) {
      PathEntry parent_entry = path.back();
      Node parent = ReadNode(parent_entry.page);
      if (parent.keys.size() > 0) {
        size_t ci = static_cast<size_t>(parent_entry.child_index);
        parent.children.erase(parent.children.begin() + static_cast<std::ptrdiff_t>(ci));
        size_t key_idx = ci > 0 ? ci - 1 : 0;
        parent.keys.erase(parent.keys.begin() + static_cast<std::ptrdiff_t>(key_idx));
        WriteNode(tx, parent_entry.page, parent);
        FreePage(tx, pool_, leaf_page);
      }
    }
    return true;
  });
  return r.ok() ? Status::kOk : r.status();
}

Result<std::vector<std::pair<std::string, std::string>>> BTreeServer::Scan(
    const server::Tx& tx, const std::string& first, const std::string& last) {
  using Entries = std::vector<std::pair<std::string, std::string>>;
  return Call<Entries>(tx, "Scan", [&]() -> Result<Entries> {
    Status s = LockObject(tx, TreeLockOid(), lock::kShared);
    if (s != Status::kOk) {
      return s;
    }
    Entries out;
    PageNumber root = ReadU32(MetaRootOid());
    if (root == 0) {
      return out;
    }
    // Depth-first in-order walk (trees are shallow: fanout 13, pool-bounded).
    std::function<void(PageNumber)> walk = [&](PageNumber page) {
      Node node = ReadNode(page);
      if (node.is_leaf) {
        for (size_t i = 0; i < node.keys.size(); ++i) {
          if (node.keys[i] >= first && node.keys[i] <= last) {
            out.emplace_back(node.keys[i], node.values[i]);
          }
        }
        return;
      }
      for (PageNumber child : node.children) {
        walk(child);
      }
    };
    walk(root);
    return out;
  });
}

Result<std::uint32_t> BTreeServer::Size(const server::Tx& tx) {
  return Call<std::uint32_t>(tx, "Size", [&]() -> Result<std::uint32_t> {
    Status s = LockObject(tx, TreeLockOid(), lock::kShared);
    if (s != Status::kOk) {
      return s;
    }
    return ReadU32(MetaCountOid());
  });
}

bool BTreeServer::CheckInvariants() {
  PageNumber root = ReadU32(MetaRootOid());
  if (root == 0) {
    return true;
  }
  bool ok = true;
  std::string prev;
  bool have_prev = false;
  std::function<void(PageNumber, const std::string&, const std::string&)> walk =
      [&](PageNumber page, const std::string& lo, const std::string& hi) {
        Node node = ReadNode(page);
        if (node.is_leaf) {
          for (const std::string& k : node.keys) {
            if (have_prev && !(prev < k)) {
              ok = false;  // global order violated
            }
            if (!lo.empty() && k < lo) {
              ok = false;
            }
            if (!hi.empty() && k >= hi) {
              ok = false;
            }
            prev = k;
            have_prev = true;
          }
          return;
        }
        if (node.children.size() != node.keys.size() + 1) {
          ok = false;
          return;
        }
        for (size_t i = 0; i < node.children.size(); ++i) {
          std::string clo = i == 0 ? lo : node.keys[i - 1];
          std::string chi = i == node.keys.size() ? hi : node.keys[i];
          walk(node.children[i], clo, chi);
        }
      };
  walk(root, "", "");
  return ok;
}

std::uint32_t BTreeServer::AllocatedPages() { return PagesInUse(pool_); }

}  // namespace tabs::servers
