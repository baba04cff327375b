// PATRICIA (Morrison, JACM 1968): a path-compressed binary radix trie.
//
// This is the data structure the paper's routing server is built on (§4.1):
// lookup/insert/erase cost depends on key width, not on the number of
// stored routes — which is why the measured Map-Request latency is flat in
// the number of configured routes (Fig. 7a/7b).
//
// Keys are BitKeys (prefixes); values are arbitrary. Supports exact-match,
// longest-prefix-match, erase with node merging, and ordered traversal.
//
// Layout: each node is a 16-byte record {child[2], value, prefix_len}
// addressed by u32, so a descent reads one small record per level and
// chases no pointers. A node's key lives in a slab parallel to the nodes
// (same slot), and its value in a third slab; forks (valueless nodes with
// two children) hold no value. Every slab recycles its slots, so churn at
// a bounded size stops allocating.
//
// A descent tests one bit per node, the bit at the node's prefix length,
// and compares keys once, at the node it ends on. The nodes passed are
// that node's ancestors, so each is a prefix of its key: an ancestor
// covers the searched key exactly when its prefix length is at most the
// common prefix of the searched key and the last node's key. A
// longest-prefix match that ends on a stored covering node is done; else
// it walks the same path again to the deepest valued ancestor that covers.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "sim/slab.hpp"
#include "trie/bitkey.hpp"

namespace sda::trie {

template <typename V>
class PatriciaTrie {
 public:
  PatriciaTrie() = default;
  PatriciaTrie(PatriciaTrie&& other) noexcept { *this = std::move(other); }
  PatriciaTrie& operator=(PatriciaTrie&& other) noexcept {
    if (this != &other) {
      nodes_ = std::move(other.nodes_);
      keys_ = std::move(other.keys_);
      values_ = std::move(other.values_);
      root_ = std::exchange(other.root_, kNone);
      other.clear();
    }
    return *this;
  }
  PatriciaTrie(const PatriciaTrie&) = delete;
  PatriciaTrie& operator=(const PatriciaTrie&) = delete;

  /// Inserts or replaces the value at `key`. Returns true if the key was new.
  bool insert(const BitKey& key, V value) {
    assert(root_ == kNone || key.width() == keys_[root_].width());
    if (root_ == kNone) {
      root_ = make_node(key, make_value(std::move(value)));
      return true;
    }
    const std::uint16_t common = keys_[descend(key)].common_prefix_len(key);

    // Walk down again to where the key joins: past every node shorter than
    // the common prefix, and past a node exactly that long when the key
    // goes on below it.
    std::uint32_t parent = kNone;
    bool side = false;
    std::uint32_t n = root_;
    while (n != kNone && (nodes_[n].prefix_len < common ||
                          (nodes_[n].prefix_len == common && common < key.prefix_len()))) {
      parent = n;
      side = key.bit(static_cast<std::uint16_t>(nodes_[n].prefix_len));
      n = nodes_[n].child[side];
    }
    if (n != kNone && nodes_[n].prefix_len == common) {  // the key's own node
      Node& node = nodes_[n];
      if (node.value != kNone) {
        values_[node.value] = std::move(value);
        return false;
      }
      node.value = make_value(std::move(value));
      return true;
    }

    std::uint32_t joined = kNone;
    if (n == kNone) {
      joined = make_node(key, make_value(std::move(value)));  // a new leaf
    } else if (common == key.prefix_len()) {
      // The key is a proper prefix of n: it becomes n's parent.
      const bool n_side = keys_[n].bit(common);
      joined = make_node(key, make_value(std::move(value)));
      nodes_[joined].child[n_side] = n;
    } else {
      // The key leaves n's compressed path at bit `common`: fork there.
      const BitKey fork_key = keys_[n].truncated(common);
      const bool key_side = key.bit(common);
      const std::uint32_t leaf = make_node(key, make_value(std::move(value)));
      joined = make_node(fork_key, kNone);
      nodes_[joined].child[key_side] = leaf;
      nodes_[joined].child[!key_side] = n;
    }
    link(parent, side) = joined;
    return true;
  }

  /// Exact-match lookup; nullptr if `key` (same prefix and length) is absent.
  [[nodiscard]] const V* find_exact(const BitKey& key) const {
    if (root_ == kNone) return nullptr;
    const std::uint32_t n = descend(key);
    if (nodes_[n].prefix_len != key.prefix_len() || nodes_[n].value == kNone || keys_[n] != key) {
      return nullptr;
    }
    return &values_[nodes_[n].value];
  }

  [[nodiscard]] V* find_exact(const BitKey& key) {
    return const_cast<V*>(std::as_const(*this).find_exact(key));
  }

  /// Longest-prefix match: the most specific stored prefix covering `key`.
  /// Returns {covering prefix, value} or nullopt.
  [[nodiscard]] std::optional<std::pair<BitKey, const V*>> longest_match(
      const BitKey& key) const {
    if (root_ == kNone) return std::nullopt;
    const std::uint32_t last = descend(key);
    const std::uint16_t common = keys_[last].common_prefix_len(key);
    std::uint32_t best = last;  // a stored host or prefix that covers the key
    if (nodes_[last].value == kNone || nodes_[last].prefix_len > common) {
      // Walk the same path again for the deepest valued node no longer
      // than the common prefix.
      best = kNone;
      for (std::uint32_t n = root_; n != kNone && nodes_[n].prefix_len <= common;) {
        if (nodes_[n].value != kNone) best = n;
        if (nodes_[n].prefix_len == key.prefix_len()) break;
        n = nodes_[n].child[key.bit(static_cast<std::uint16_t>(nodes_[n].prefix_len))];
      }
      if (best == kNone) return std::nullopt;
    }
    return std::pair<BitKey, const V*>{keys_[best], &values_[nodes_[best].value]};
  }

  /// Removes `key`. Returns true if it was present.
  bool erase(const BitKey& key) {
    // Erasing a value can merge away its node and then the node's parent,
    // so remember the parent and grandparent on the way down.
    std::uint32_t grandparent = kNone;
    std::uint32_t parent = kNone;
    std::uint32_t n = root_;
    while (n != kNone && nodes_[n].prefix_len < key.prefix_len()) {
      grandparent = std::exchange(parent, n);
      n = nodes_[n].child[key.bit(static_cast<std::uint16_t>(nodes_[n].prefix_len))];
    }
    if (n == kNone || nodes_[n].prefix_len != key.prefix_len() || nodes_[n].value == kNone ||
        keys_[n] != key) {
      return false;
    }
    values_.release(nodes_[n].value);
    nodes_[n].value = kNone;
    collapse(n, parent);
    if (parent != kNone) collapse(parent, grandparent);
    return true;
  }

  /// Visits every (key, value) pair in lexicographic key order.
  void walk(const std::function<void(const BitKey&, const V&)>& visit) const {
    walk_from(root_, visit);
  }

  /// Removes entries for which `predicate(key, value)` is true; returns the
  /// number removed.
  std::size_t erase_if(const std::function<bool(const BitKey&, const V&)>& predicate) {
    std::vector<BitKey> doomed;
    walk([&](const BitKey& k, const V& v) {
      if (predicate(k, v)) doomed.push_back(k);
    });
    for (const auto& k : doomed) erase(k);
    return doomed.size();
  }

  [[nodiscard]] std::size_t size() const { return values_.live(); }
  [[nodiscard]] bool empty() const { return size() == 0; }
  /// Node records ever handed out: the high-water mark of live nodes.
  [[nodiscard]] std::size_t node_slots() const { return nodes_.size(); }

  void clear() {
    nodes_.clear();
    keys_.clear();
    values_.clear();
    root_ = kNone;
  }

 private:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  struct Node {
    std::array<std::uint32_t, 2> child{kNone, kNone};
    std::uint32_t value = kNone;   // slot in values_; kNone for a fork
    std::uint32_t prefix_len = 0;  // the bit tested below this node
  };
  static_assert(sizeof(Node) == 16);

  /// The node a descent for `key` ends on (the trie must not be empty): the
  /// first as long as the key, or the last before a missing child.
  [[nodiscard]] std::uint32_t descend(const BitKey& key) const {
    std::uint32_t n = root_;
    while (nodes_[n].prefix_len < key.prefix_len()) {
      const std::uint32_t next =
          nodes_[n].child[key.bit(static_cast<std::uint16_t>(nodes_[n].prefix_len))];
      if (next == kNone) break;
      n = next;
    }
    return n;
  }

  /// The link to a child: root_ for the root (parent kNone).
  std::uint32_t& link(std::uint32_t parent, bool side) {
    return parent == kNone ? root_ : nodes_[parent].child[side];
  }

  std::uint32_t make_value(V value) {
    const std::uint32_t slot = values_.acquire();
    values_[slot] = std::move(value);
    return slot;
  }

  std::uint32_t make_node(const BitKey& key, std::uint32_t value) {
    const std::uint32_t n = nodes_.acquire();
    [[maybe_unused]] const std::uint32_t k = keys_.acquire();
    assert(k == n);  // the two slabs acquire and release in step
    nodes_[n] = Node{{kNone, kNone}, value, key.prefix_len()};
    keys_[n] = key;
    return n;
  }

  /// Merges away node `n` (a child of `parent`) if it holds no value and
  /// has at most one child.
  void collapse(std::uint32_t n, std::uint32_t parent) {
    const Node& node = nodes_[n];
    if (node.value != kNone) return;
    if (node.child[0] != kNone && node.child[1] != kNone) return;
    const std::uint32_t heir = node.child[0] != kNone ? node.child[0] : node.child[1];
    link(parent, parent != kNone && nodes_[parent].child[1] == n) = heir;
    nodes_.release(n);
    keys_.release(n);
  }

  void walk_from(std::uint32_t n,
                 const std::function<void(const BitKey&, const V&)>& visit) const {
    if (n == kNone) return;
    if (nodes_[n].value != kNone) visit(keys_[n], values_[nodes_[n].value]);
    walk_from(nodes_[n].child[0], visit);
    walk_from(nodes_[n].child[1], visit);
  }

  sim::Slab<Node> nodes_;
  sim::Slab<BitKey> keys_;  // parallel to nodes_: keys_[n] is node n's prefix
  sim::Slab<V> values_;
  std::uint32_t root_ = kNone;
};

}  // namespace sda::trie
