// Single-threaded discrete-event simulator.
//
// Events are closures scheduled at absolute sim-times. Execution order is
// fully deterministic: ties on time break by insertion sequence number.
// Events can be cancelled through the handle returned by schedule().
//
// Hot-path layout: the priority queue is a 4-ary implicit min-heap of
// 24-byte PODs (shallower than a binary heap and the four children share a
// cache line, so pops touch fewer lines); the closures live in
// generation-stamped slots of a recycled Slab, so the steady-state
// schedule/dispatch cycle performs no heap allocation (the heap and the
// slab both plateau at their high-water marks). cancel() is an O(1)
// generation check — tombstoned queue entries are popped lazily, and
// because the generation advances on every execute *and* cancel, a stale
// entry or handle can never touch a recycled slot.
// Timers that are armed and almost always cancelled (a Map-Request's 1 s
// retransmit) would pile up tombstones until their deadlines, so once
// tombstones outnumber live events by more than kTombstoneSlack, cancel()
// sweeps them out and re-heapifies: amortized O(1) per cancel.
// schedule/step are defined inline here: one closure move in, one out, no
// out-of-line calls on the per-event path.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/inline_action.hpp"
#include "sim/slab.hpp"
#include "sim/time.hpp"

namespace sda::sim {

/// Identifies a scheduled event so it can be cancelled. Default-constructed
/// handles are inert. A handle refers to {slot, generation}: once the event
/// runs or is cancelled the slot's generation advances, so a stale handle
/// (even one whose slot has been recycled for a new event) is a no-op.
class EventHandle {
 public:
  constexpr EventHandle() = default;

  [[nodiscard]] constexpr bool valid() const { return slot_ != kInvalidSlot; }

 private:
  friend class Simulator;
  static constexpr std::uint32_t kInvalidSlot = 0xFFFFFFFFu;
  constexpr EventHandle(std::uint32_t slot, std::uint32_t generation)
      : slot_(slot), generation_(generation) {}
  std::uint32_t slot_ = kInvalidSlot;
  std::uint32_t generation_ = 0;
};

/// The event loop. All fabric components hold a reference to one Simulator
/// and schedule their work through it.
class Simulator {
 public:
  using Action = InlineAction;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time. Monotonically non-decreasing.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `action` to run at absolute time `when` (clamped to now()).
  EventHandle schedule_at(SimTime when, Action action) {
    assert(action);
    if (when < now_) when = now_;  // no scheduling into the past
    const std::uint32_t slot = slots_.acquire();
    Slot& s = slots_[slot];
    s.action = std::move(action);
    heap_push(QueuedEvent{when, next_sequence_++, slot, s.generation});
    return EventHandle{slot, s.generation};
  }

  /// Schedules `action` to run `delay` after now().
  EventHandle schedule_after(Duration delay, Action action) {
    return schedule_at(now_ + delay, std::move(action));
  }

  /// Cancels a pending event; no-op if it already ran or was cancelled.
  /// Returns true if the event was still pending. Amortized O(1).
  bool cancel(EventHandle handle) {
    if (!handle.valid() || handle.slot_ >= slots_.size()) return false;
    // Only a still-pending event can be cancelled: execution and
    // cancellation both advance the slot generation, so a handle whose
    // event already ran (or whose slot was recycled for a newer event)
    // mismatches here and the cancel is a counted-for no-op.
    if (slots_[handle.slot_].generation != handle.generation_) return false;
    recycle(handle.slot_);
    if (heap_.size() > 2 * slots_.live() + kTombstoneSlack) sweep_cancelled();
    return true;
  }

  /// Runs events until the queue drains. Returns the number executed.
  std::size_t run();

  /// Runs events with time <= `until` (inclusive). Remaining events stay
  /// queued; now() advances to `until` even if the queue drained earlier.
  std::size_t run_until(SimTime until);

  /// Runs at most one event. Returns false if the queue was empty.
  bool step() {
    skip_cancelled();
    if (heap_.empty()) return false;
    const QueuedEvent event = heap_.front();
    heap_pop();
    assert(event.when >= now_);
    now_ = event.when;
    // Move the closure out before running it: the action may reschedule
    // into (and thus overwrite or reallocate) its own slot.
    Action action = std::move(slots_[event.slot].action);
    recycle(event.slot);
    ++executed_;
    action();
    return true;
  }

  /// Time of the earliest pending (non-cancelled) event, or nullopt when
  /// the queue is empty. Pops cancelled tombstones as a side effect, the
  /// same work step() would do first anyway.
  [[nodiscard]] std::optional<SimTime> next_event_time() {
    skip_cancelled();
    if (heap_.empty()) return std::nullopt;
    return heap_.front().when;
  }

  [[nodiscard]] std::size_t pending_events() const { return slots_.live(); }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }
  /// Pending events plus tombstones not yet swept or popped. Right after a
  /// cancel that found its event pending, at most 2 * pending_events() +
  /// kTombstoneSlack; executions may leave it above that until the next.
  [[nodiscard]] std::size_t queued_entries() const { return heap_.size(); }

  /// Tombstones tolerated beyond the live-event count before a sweep.
  static constexpr std::size_t kTombstoneSlack = 64;

 private:
  /// What sits in the heap: a trivially-copyable stub. The action itself
  /// stays in its slot so reheaps move 24 bytes.
  struct QueuedEvent {
    SimTime when;
    std::uint64_t sequence;
    std::uint32_t slot;
    std::uint32_t generation;
  };
  struct Slot {
    Action action;
    std::uint32_t generation = 1;
  };

  static bool earlier(const QueuedEvent& a, const QueuedEvent& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.sequence < b.sequence;
  }

  void heap_push(const QueuedEvent& event) {
    std::size_t i = heap_.size();
    heap_.push_back(event);
    while (i != 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!earlier(event, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = event;
  }

  void heap_pop() {
    const QueuedEvent last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, last);
  }

  /// Places `event` at or below index `i`, whose old entry is vacated.
  void sift_down(std::size_t i, const QueuedEvent event) {
    const std::size_t n = heap_.size();
    while (true) {
      const std::size_t first_child = 4 * i + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      const std::size_t end_child = first_child + 4 < n ? first_child + 4 : n;
      for (std::size_t c = first_child + 1; c < end_child; ++c) {
        if (earlier(heap_[c], heap_[best])) best = c;
      }
      if (!earlier(heap_[best], event)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = event;
  }

  /// Drops every tombstone and rebuilds the heap bottom-up in O(n). Keys
  /// (when, sequence) are unique, so pops keep the exact same order. Out of
  /// line: it runs once per ~kTombstoneSlack cancels at most.
  void sweep_cancelled();

  /// Pops cancelled (generation-mismatched) events off the queue head.
  void skip_cancelled() {
    while (!heap_.empty() &&
           slots_[heap_.front().slot].generation != heap_.front().generation) {
      heap_pop();  // tombstone left behind by an O(1) cancel
    }
  }

  /// Retires `slot` after its event ran or was cancelled: the generation
  /// bump invalidates every outstanding handle and queue entry for it.
  void recycle(std::uint32_t slot) {
    slots_[slot].action.reset();
    ++slots_[slot].generation;
    slots_.release(slot);
  }

  SimTime now_{};
  std::uint64_t next_sequence_ = 1;
  std::uint64_t executed_ = 0;
  std::vector<QueuedEvent> heap_;
  Slab<Slot> slots_;
};

}  // namespace sda::sim
