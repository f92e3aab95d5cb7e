// Reuses the nodes of a per-transaction table (std::map, std::set,
// std::unordered_map) whose entries come and go with transactions.
//
// Such a table allocates a node when a transaction first touches it and
// frees it when the transaction ends. A caller that erases by extracting the
// node (a C++17 node handle) hands it to Keep; Get refills a kept node with
// the next key and an emptied value, so the table stops allocating once it
// has held its peak number of entries. An emptied value keeps what it
// owned: a vector is cleared, not freed, and a value with a clear() member
// is emptied by it.
//
// A recycled node turns a stale reference into a silent write to another
// entry, where a freed one is a use-after-free that AddressSanitizer reports.
// So recycle only nodes that no task references across a yield, or that a
// task looks up again afterwards by something a reused node cannot repeat
// (TransactionManager's entry generation). Under AddressSanitizer a kept
// node's value is poisoned until Get hands it out again, so a stale
// reference into a node waiting for reuse still reports.

#ifndef TABS_COMMON_NODE_RECYCLER_H_
#define TABS_COMMON_NODE_RECYCLER_H_

#include <sanitizer/asan_interface.h>  // no-op poisoning macros without ASan

#include <utility>
#include <vector>

namespace tabs {

template <typename Table>
class NodeRecycler {
 public:
#if __has_feature(address_sanitizer) || defined(__SANITIZE_ADDRESS__)
  static constexpr bool kPoisonsSpares = true;
#else
  static constexpr bool kPoisonsSpares = false;
#endif

  NodeRecycler() = default;
  NodeRecycler(const NodeRecycler&) = delete;
  NodeRecycler& operator=(const NodeRecycler&) = delete;
  // The spares' values are destroyed with them.
  ~NodeRecycler() {
    for (typename Table::node_type& node : spares_) {
      ASAN_UNPOISON_MEMORY_REGION(&ValueOf(node), sizeof(ValueOf(node)));
    }
  }

  // table[key] for a map (a new entry's value is empty), table.insert(key)
  // for a set, with one lookup either way.
  typename Table::iterator Get(Table& table, const typename Table::key_type& key) {
    if (spares_.empty()) {
      if constexpr (kIsMap) {
        return table.try_emplace(key).first;
      } else {
        return table.insert(key).first;
      }
    }
    typename Table::node_type node = std::move(spares_.back());
    spares_.pop_back();
    ASAN_UNPOISON_MEMORY_REGION(&ValueOf(node), sizeof(ValueOf(node)));
    if constexpr (kIsMap) {
      node.key() = key;
      if constexpr (requires { node.mapped().clear(); }) {
        node.mapped().clear();
      } else {
        node.mapped() = {};
      }
    } else {
      node.value() = key;
    }
    auto inserted = table.insert(std::move(node));
    Keep(std::move(inserted.node));  // empty unless `key` was present
    return inserted.position;
  }

  // Keeps an extracted node for a later Get; an empty handle (the key was
  // absent) keeps nothing.
  void Keep(typename Table::node_type node) {
    if (!node.empty()) {
      spares_.push_back(std::move(node));
      ASAN_POISON_MEMORY_REGION(&ValueOf(spares_.back()), sizeof(ValueOf(spares_.back())));
    }
  }

 private:
  static constexpr bool kIsMap = requires { typename Table::mapped_type; };

  // What a stale reference into the entry reaches: a map's value, a set's key.
  static auto& ValueOf(typename Table::node_type& node) {
    if constexpr (kIsMap) {
      return node.mapped();
    } else {
      return node.value();
    }
  }

  std::vector<typename Table::node_type> spares_;
};

}  // namespace tabs

#endif  // TABS_COMMON_NODE_RECYCLER_H_
