// Small-buffer-optimized event closure.
//
// The event loop used to store each scheduled action in a
// std::function<void()>, which heap-allocates for any capture beyond two
// pointers — one allocation per packet hop at experiment scale. InlineAction
// embeds captures up to kInlineSize bytes directly in the object (enough for
// the `[this, eid, nonce]`-shaped timers the hot paths schedule) and only
// falls back to the heap for oversized or throwing-move captures, so the
// steady-state dispatch loop allocates nothing. An inline capture that is
// trivially copyable (the common `[this, eid, nonce]` shape) moves as a
// plain byte copy and needs no destructor call, so the schedule -> slot ->
// dispatch hand-offs of such an event make one indirect call, the invoke.
//
// Call sites that must never spill (audited per-packet paths) guard
// themselves with `static_assert(sda::sim::InlineAction::fits_inline<F>)`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace sda::sim {

class InlineAction {
 public:
  /// Inline capture budget. Sized to hold the dominant schedulers: a vtable
  /// pointer plus a (this, VnEid, nonce) capture, or a moved-in
  /// std::function<void()> (32 bytes on libstdc++).
  static constexpr std::size_t kInlineSize = 48;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  /// True when callable F runs from the inline buffer (no allocation).
  template <typename F>
  static constexpr bool fits_inline =
      sizeof(std::decay_t<F>) <= kInlineSize && alignof(std::decay_t<F>) <= kInlineAlign &&
      std::is_nothrow_move_constructible_v<std::decay_t<F>>;

  constexpr InlineAction() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineAction> &&
                                        std::is_invocable_r_v<void, D&>>>
  InlineAction(F&& f) {  // NOLINT: implicit, mirrors std::function
    if constexpr (fits_inline<F>) {
      ::new (static_cast<void*>(storage_.inline_bytes)) D(std::forward<F>(f));
      manager_ = &manage_inline<D>;
      trivial_ = std::is_trivially_copyable_v<D>;
    } else {
      storage_.heap = new D(std::forward<F>(f));
      manager_ = &manage_heap<D>;
    }
  }

  InlineAction(InlineAction&& other) noexcept { move_from(other); }

  InlineAction& operator=(InlineAction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineAction(const InlineAction&) = delete;
  InlineAction& operator=(const InlineAction&) = delete;

  ~InlineAction() { reset(); }

  void operator()() { manager_(Op::Invoke, this, nullptr); }

  [[nodiscard]] explicit operator bool() const noexcept { return manager_ != nullptr; }

  /// True when the callable spilled to the heap (diagnostics / tests).
  [[nodiscard]] bool heap_allocated() const noexcept {
    return manager_ != nullptr && manager_(Op::IsHeap, nullptr, nullptr);
  }

  /// Destroys the held callable; the action becomes empty.
  void reset() noexcept {
    if (manager_ != nullptr) {
      if (!trivial_) manager_(Op::Destroy, this, nullptr);
      manager_ = nullptr;
    }
  }

 private:
  enum class Op : std::uint8_t { Invoke, MoveTo, Destroy, IsHeap };

  /// One manager per callable type handles all lifetime operations, so the
  /// object carries a single function pointer of overhead.
  using Manager = bool (*)(Op, InlineAction* self, InlineAction* target);

  template <typename D>
  static bool manage_inline(Op op, InlineAction* self, InlineAction* target) {
    switch (op) {
      case Op::Invoke:
        (*std::launder(reinterpret_cast<D*>(self->storage_.inline_bytes)))();
        return true;
      case Op::MoveTo: {
        // Relinquishes ownership: the source callable is destroyed here and
        // the caller clears the source's manager.
        D* from = std::launder(reinterpret_cast<D*>(self->storage_.inline_bytes));
        ::new (static_cast<void*>(target->storage_.inline_bytes)) D(std::move(*from));
        from->~D();
        return true;
      }
      case Op::Destroy:
        std::launder(reinterpret_cast<D*>(self->storage_.inline_bytes))->~D();
        return true;
      case Op::IsHeap:
        return false;
    }
    return false;
  }

  template <typename D>
  static bool manage_heap(Op op, InlineAction* self, InlineAction* target) {
    switch (op) {
      case Op::Invoke:
        (*static_cast<D*>(self->storage_.heap))();
        return true;
      case Op::MoveTo:
        target->storage_.heap = self->storage_.heap;  // steal, no reallocation
        self->storage_.heap = nullptr;
        return true;
      case Op::Destroy:
        delete static_cast<D*>(self->storage_.heap);
        return true;
      case Op::IsHeap:
        return true;
    }
    return false;
  }

  void move_from(InlineAction& other) noexcept {
    if (other.manager_ != nullptr) {
      if (other.trivial_) {
        std::memcpy(&storage_, &other.storage_, sizeof(storage_));
      } else {
        other.manager_(Op::MoveTo, &other, this);  // destroys/steals other's callable
      }
      manager_ = other.manager_;
      trivial_ = other.trivial_;
      other.manager_ = nullptr;
    }
  }

  union Storage {
    constexpr Storage() noexcept : heap(nullptr) {}
    alignas(kInlineAlign) unsigned char inline_bytes[kInlineSize];
    void* heap;
  };

  Storage storage_;
  Manager manager_ = nullptr;
  bool trivial_ = false;  // inline and trivially copyable: no MoveTo/Destroy calls
};

}  // namespace sda::sim
