// A recycled slab: values in dense u32 slots, for state that lives between
// events. acquire() reuses the most recently released slot (LIFO), so
// seeded runs reproduce; release() never allocates, as the free list threads
// through the released slots' link words; and release() keeps the value, so
// containers in a reused slot keep their capacity (callers reset the rest).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sda::sim {

template <typename T>
class Slab {
 public:
  /// The most recently released slot, else a new one holding T{}.
  std::uint32_t acquire() {
    ++live_;
    if (free_ == kNone) {
      values_.emplace_back();
      link_.push_back(kHeld);
      return static_cast<std::uint32_t>(link_.size() - 1);
    }
    const std::uint32_t slot = free_;
    free_ = std::exchange(link_[slot], kHeld);
    return slot;
  }
  void release(std::uint32_t slot) {
    assert(is_live(slot));
    --live_;
    link_[slot] = std::exchange(free_, slot);
  }

  [[nodiscard]] T& operator[](std::uint32_t slot) { return values_[slot]; }
  [[nodiscard]] const T& operator[](std::uint32_t slot) const { return values_[slot]; }
  [[nodiscard]] bool is_live(std::uint32_t slot) const {
    return slot < link_.size() && link_[slot] == kHeld;
  }
  [[nodiscard]] std::size_t live() const { return live_; }
  /// Slots ever handed out: the high-water mark of live().
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] bool has_free() const { return free_ != kNone; }
  /// Slots the slab holds without allocating.
  [[nodiscard]] std::size_t capacity() const {
    return std::min(values_.capacity(), link_.capacity());
  }
  void reserve(std::size_t slots) {
    values_.reserve(slots);
    link_.reserve(slots);
  }
  /// Drops every slot and value; keeps the capacity.
  void clear() {
    values_.clear();
    link_.clear();
    free_ = kNone;
    live_ = 0;
  }

  /// Calls visit(slot) for every held slot in slot order. The visit may
  /// release the slot it is given.
  template <typename F>
  void for_each(F visit) const {
    for (std::uint32_t i = 0; i < link_.size(); ++i) {
      if (link_[i] == kHeld) visit(i);
    }
  }

 private:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;  // ends the free list
  static constexpr std::uint32_t kHeld = 0xFFFFFFFEu;
  std::vector<T> values_;
  std::vector<std::uint32_t> link_;  // kHeld, or the next free slot
  std::uint32_t free_ = kNone;       // the most recently released slot
  std::size_t live_ = 0;
};

}  // namespace sda::sim
