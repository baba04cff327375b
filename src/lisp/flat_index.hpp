// Flat open-addressing key index: maps keys to the u32 slot numbers of a
// caller-owned slot array.
//
// The table holds 8-byte entries: a slot number beside the 32-bit hash of
// its key (power-of-two size, linear probing, backward-shift deletion — no
// tombstones, so churn never forces a rehash). The keys stay in the
// caller's slots and are read back through a `key_of` callable, only once
// the stored hash matches. Lookups cost one probe sequence with no pointer
// chasing; erase and growth move entries by their stored hash and never
// re-hash a key; inserts and erases allocate nothing until the table must
// grow. The map-cache, the VRF and the fabric's endpoint table index their
// slots with it; FlatMap below pairs it with a recycled sim::Slab for
// plain key -> value tables (the edge's pending Map-Requests and per-EID
// mobility records, the SGACL).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/slab.hpp"

namespace sda::lisp {

template <typename Key, typename Hash = std::hash<Key>>
class FlatIndex {
 public:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  /// Sizes the table for `entries` keys under the 70% load bound.
  void reserve(std::size_t entries) {
    std::size_t table_size = std::max<std::size_t>(16, table_.size());
    while (entries * 10 > table_size * 7) table_size <<= 1;
    if (table_size != table_.size()) rehash(table_size);
  }

  /// The slot holding `key`, or kNone. `key_of(slot)` returns a slot's key.
  template <typename KeyOf>
  [[nodiscard]] std::uint32_t find(const Key& key, KeyOf key_of) const {
    const std::size_t i = position(key, key_of);
    return i == kAbsent ? kNone : table_[i].slot;
  }

  /// The slot holding `key` and false; or, when absent, indexes the slot
  /// `make_slot()` returns under `key` and returns it and true. One probe
  /// sequence either way (unless the table must grow): the empty position
  /// that ends a miss is where insert() would place the key.
  template <typename KeyOf, typename MakeSlot>
  std::pair<std::uint32_t, bool> find_or_insert(const Key& key, KeyOf key_of,
                                                MakeSlot make_slot) {
    const std::uint32_t hash = hash_of(key);
    std::size_t i = hash & mask_;
    for (; !table_.empty(); i = (i + 1) & mask_) {
      const Entry e = table_[i];
      if (e.slot == kNone) break;
      if (e.hash == hash && key_of(e.slot) == key) return {e.slot, false};
    }
    const std::uint32_t slot = make_slot();
    if ((size_ + 1) * 10 > table_.size() * 7) {
      insert(key, slot);
    } else {
      table_[i] = Entry{hash, slot};
      ++size_;
    }
    return {slot, true};
  }

  /// Indexes `slot` under `key`; the key must not already be present.
  void insert(const Key& key, std::uint32_t slot) {
    // Keep the load factor under 70% so probe chains stay short.
    if ((size_ + 1) * 10 > table_.size() * 7) {
      rehash(std::max<std::size_t>(16, table_.size() * 2));
    }
    place(Entry{hash_of(key), slot});
    ++size_;
  }

  /// Removes `key`, compacting its probe cluster; returns the slot it
  /// indexed, or kNone when absent.
  template <typename KeyOf>
  std::uint32_t erase(const Key& key, KeyOf key_of) {
    std::size_t i = position(key, key_of);
    if (i == kAbsent) return kNone;
    const std::uint32_t erased = table_[i].slot;
    --size_;
    // Backward-shift deletion: pull cluster members whose home position
    // lies at or before the hole back over it, instead of a tombstone.
    std::size_t j = i;
    while (true) {
      j = (j + 1) & mask_;
      const Entry e = table_[j];
      if (e.slot == kNone) break;
      const std::size_t k = e.hash & mask_;
      const bool home_between_hole_and_j = (i < j) ? (k > i && k <= j) : (k > i || k <= j);
      if (!home_between_hole_and_j) {
        table_[i] = e;
        i = j;
      }
    }
    table_[i].slot = kNone;
    return erased;
  }

  /// Forgets every key; keeps the table's size.
  void clear() {
    std::fill(table_.begin(), table_.end(), Entry{});
    size_ = 0;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  /// A slot number beside its key's hash: a probe compares the hash before
  /// it reads a key, and moving an entry never re-hashes its key.
  struct Entry {
    std::uint32_t hash = 0;
    std::uint32_t slot = kNone;  // kNone = empty
  };
  static constexpr std::size_t kAbsent = ~std::size_t{0};

  [[nodiscard]] static std::uint32_t hash_of(const Key& key) {
    return static_cast<std::uint32_t>(Hash{}(key));
  }

  /// The table index of `key`'s entry, or kAbsent.
  template <typename KeyOf>
  [[nodiscard]] std::size_t position(const Key& key, KeyOf key_of) const {
    if (table_.empty()) return kAbsent;
    const std::uint32_t hash = hash_of(key);
    for (std::size_t i = hash & mask_;; i = (i + 1) & mask_) {
      const Entry e = table_[i];
      if (e.slot == kNone) return kAbsent;
      if (e.hash == hash && key_of(e.slot) == key) return i;
    }
  }

  /// Stores `e` at the first free position from its home.
  void place(Entry e) {
    std::size_t i = e.hash & mask_;
    while (table_[i].slot != kNone) i = (i + 1) & mask_;
    table_[i] = e;
  }

  void rehash(std::size_t new_size) {
    const std::vector<Entry> old = std::move(table_);
    table_.assign(new_size, Entry{});
    mask_ = new_size - 1;
    for (const Entry e : old) {
      if (e.slot != kNone) place(e);
    }
  }

  std::vector<Entry> table_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// Key -> value table over a recycled sim::Slab indexed by FlatIndex.
/// Value pointers stay valid until the next insert(); erased slots are
/// reused, so a table whose size stays bounded stops allocating.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class FlatMap {
 public:
  [[nodiscard]] Value* find(const Key& key) {
    const std::uint32_t i = index_.find(key, key_of());
    return i == kNone ? nullptr : &slots_[i].value;
  }
  [[nodiscard]] const Value* find(const Key& key) const {
    const std::uint32_t i = index_.find(key, key_of());
    return i == kNone ? nullptr : &slots_[i].value;
  }
  [[nodiscard]] bool contains(const Key& key) const { return find(key) != nullptr; }

  /// Adds `key` (which must be absent) and returns its value.
  Value& insert(const Key& key, Value value) {
    Value& slot = insert_reused(key);
    slot = std::move(value);
    return slot;
  }

  /// Adds `key` (which must be absent) and returns its value as the slot
  /// last left it: a recycled slot hands back its old value, so containers
  /// inside keep their capacity. The caller resets what it needs.
  Value& insert_reused(const Key& key) {
    const std::uint32_t i = slots_.acquire();
    slots_[i].key = key;
    index_.insert(key, i);
    return slots_[i].value;
  }

  /// The value at `key` and false; or, when absent, a new entry's value as
  /// its recycled slot left it (see insert_reused()) and true. One probe.
  std::pair<Value*, bool> find_or_insert_reused(const Key& key) {
    const auto [i, inserted] = index_.find_or_insert(key, key_of(), [&] {
      const std::uint32_t slot = slots_.acquire();
      slots_[slot].key = key;
      return slot;
    });
    return {&slots_[i].value, inserted};
  }

  /// Whether the next insert reuses an erased slot rather than growing.
  [[nodiscard]] bool has_free_slot() const { return slots_.has_free(); }

  /// Removes every entry for which `drop(key, value)` holds. Erased values
  /// stay in their slots for insert_reused().
  template <typename Pred>
  void erase_if(Pred drop) {
    slots_.for_each([&](std::uint32_t i) {
      Slot& slot = slots_[i];
      if (!drop(slot.key, slot.value)) return;
      index_.erase(slot.key, key_of());
      slots_.release(i);
    });
  }

  /// Removes `key`; returns whether it was present.
  bool erase(const Key& key) { return take(key) != nullptr; }

  /// Removes `key` and returns its value, which stays in the released slot
  /// until the next insert; nullptr when absent. One probe.
  Value* take(const Key& key) {
    const std::uint32_t i = index_.erase(key, key_of());
    if (i == kNone) return nullptr;
    slots_.release(i);
    return &slots_[i].value;
  }

  /// Visits every (key, value) in slot order.
  template <typename F>
  void for_each(F visit) {
    slots_.for_each([&](std::uint32_t i) { visit(slots_[i].key, slots_[i].value); });
  }

  void clear() {
    slots_.clear();
    index_.clear();
  }

  [[nodiscard]] std::size_t size() const { return index_.size(); }

 private:
  static constexpr std::uint32_t kNone = FlatIndex<Key, Hash>::kNone;

  struct Slot {
    Key key{};
    Value value{};
  };

  [[nodiscard]] auto key_of() const {
    return [this](std::uint32_t i) -> const Key& { return slots_[i].key; };
  }

  sim::Slab<Slot> slots_;
  FlatIndex<Key, Hash> index_;
};

}  // namespace sda::lisp
