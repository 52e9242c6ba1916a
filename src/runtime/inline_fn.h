// Small-buffer move-only callable for the runtime hot path.
//
// `std::function` type-erases through a heap allocation whenever the
// callable exceeds its tiny SBO window (16 bytes of trivially-copyable
// state in libstdc++) — so every `parallel_for` grain and nearly every
// `spawn` paid an allocator round-trip just to carry `[lo, hi, &body]`.
// InlineFn replaces it on the Task hot path:
//
//   * captures up to kInlineCapacity bytes (48 — three cache-line quarters,
//     enough for every closure the runtime itself builds) are stored inline
//     in the Task slab slot: zero allocator traffic per task;
//   * larger or over-aligned or potentially-throwing-move callables fall
//     back to a single heap allocation, preserving `std::function`'s
//     generality (dag_executor bodies, user lambdas of any size);
//   * move-only: a Task is executed exactly once by exactly one worker, so
//     copyability — the reason std::function forbids move-only captures —
//     is pure cost.  (This also lets bodies own move-only resources.)
//
// Dispatch is one indirect call through a per-callable-type static vtable
// (invoke / relocate / destroy), the same technique as libstdc++'s
// _M_manager but without the copy machinery.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace pjsched::runtime {

template <typename Signature>
class InlineFn;

template <typename R, typename... Args>
class InlineFn<R(Args...)> {
 public:
  /// Largest capture stored without allocating.  48 bytes fits six
  /// pointers — every closure spawned by parallel_for or the DAG executor
  /// node hop is at most half that.
  static constexpr std::size_t kInlineCapacity = 48;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  InlineFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFn> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor): mirrors
                     // std::function
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      vtable_ = &kInlineOps<Fn>;
    } else {
      *reinterpret_cast<Fn**>(buf_) = new Fn(std::forward<F>(f));
      vtable_ = &kHeapOps<Fn>;
    }
  }

  InlineFn(InlineFn&& other) noexcept : vtable_(other.vtable_) {
    if (vtable_ != nullptr) {
      vtable_->relocate(other.buf_, buf_);
      other.vtable_ = nullptr;
    }
  }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      vtable_ = other.vtable_;
      if (vtable_ != nullptr) {
        vtable_->relocate(other.buf_, buf_);
        other.vtable_ = nullptr;
      }
    }
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { reset(); }

  void reset() noexcept {
    if (vtable_ != nullptr) {
      vtable_->destroy(buf_);
      vtable_ = nullptr;
    }
  }

  explicit operator bool() const noexcept { return vtable_ != nullptr; }

  /// True when the callable lives in the inline buffer (no allocation).
  bool is_inline() const noexcept {
    return vtable_ != nullptr && vtable_->inline_storage;
  }

  R operator()(Args... args) {
    return vtable_->invoke(buf_, std::forward<Args>(args)...);
  }

 private:
  struct VTable {
    R (*invoke)(void* self, Args&&... args);
    /// Move-constructs *self into dst, then destroys *self.  noexcept by
    /// construction: inline storage requires a nothrow move; heap storage
    /// relocates by copying the pointer.
    void (*relocate)(void* self, void* dst) noexcept;
    void (*destroy)(void* self) noexcept;
    bool inline_storage;
  };

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineCapacity && alignof(Fn) <= kInlineAlign &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  static constexpr VTable kInlineOps = {
      /*invoke=*/[](void* self, Args&&... args) -> R {
        return (*static_cast<Fn*>(self))(std::forward<Args>(args)...);
      },
      /*relocate=*/
      [](void* self, void* dst) noexcept {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(self)));
        static_cast<Fn*>(self)->~Fn();
      },
      /*destroy=*/[](void* self) noexcept { static_cast<Fn*>(self)->~Fn(); },
      /*inline_storage=*/true,
  };

  template <typename Fn>
  static constexpr VTable kHeapOps = {
      /*invoke=*/[](void* self, Args&&... args) -> R {
        return (**static_cast<Fn**>(self))(std::forward<Args>(args)...);
      },
      /*relocate=*/
      [](void* self, void* dst) noexcept {
        *static_cast<Fn**>(dst) = *static_cast<Fn**>(self);
      },
      /*destroy=*/[](void* self) noexcept { delete *static_cast<Fn**>(self); },
      /*inline_storage=*/false,
  };

  const VTable* vtable_ = nullptr;
  alignas(kInlineAlign) unsigned char buf_[kInlineCapacity];
};

}  // namespace pjsched::runtime
