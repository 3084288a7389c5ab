#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

/// \file task.hpp
/// The one callable type the timer path stores: a move-only `void()` with
/// inline storage.
///
/// Every scheduled event is a lambda with a few pointers' worth of capture
/// (`this`, a liveness token, a sequence number, a slab slot). `Task` keeps
/// captures of up to `kInlineBytes` in the object itself, so scheduling and
/// firing such a timer allocates nothing; a larger capture falls back to
/// one heap block. Unlike `std::function` it accepts move-only captures and
/// never copies. The call operator is `const`, like `std::function`'s, so a
/// `Task` captured by value in a non-mutable lambda can still be invoked.

namespace lod::net {

class Task {
 public:
  /// Captures up to this size (and pointer alignment) are stored inline.
  static constexpr std::size_t kInlineBytes = 48;

  Task() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Task> &&
                std::is_invocable_v<std::decay_t<F>&>>>
  Task(F&& f) {  // NOLINT(google-explicit-constructor): lambdas convert
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      Fn* heap = new Fn(std::forward<F>(f));
      std::memcpy(buf_, &heap, sizeof heap);
      ops_ = &heap_ops<Fn>;
    }
  }

  Task(Task&& o) noexcept { take(o); }
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      reset();
      take(o);
    }
    return *this;
  }
  Task& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Invoke the stored callable. Precondition: not empty.
  void operator()() const { ops_->call(const_cast<std::byte*>(buf_)); }

  /// True when a callable of type \p F would be stored without allocating.
  template <typename F>
  static constexpr bool fits_inline() {
    return sizeof(F) <= kInlineBytes && alignof(F) <= alignof(void*) &&
           std::is_nothrow_move_constructible_v<F>;
  }

 private:
  /// Per-type operations. A null `relocate` means the bytes may be copied
  /// as they are (trivially copyable captures and the heap pointer); a null
  /// `destroy` means there is nothing to destroy.
  struct Ops {
    void (*call)(void* self);
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename Fn>
  static constexpr Ops inline_ops{
      [](void* self) { (*static_cast<Fn*>(self))(); },
      std::is_trivially_copyable_v<Fn>
          ? nullptr
          : +[](void* dst, void* src) noexcept {
              ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
              static_cast<Fn*>(src)->~Fn();
            },
      std::is_trivially_destructible_v<Fn>
          ? nullptr
          : +[](void* self) noexcept { static_cast<Fn*>(self)->~Fn(); },
  };

  template <typename Fn>
  static Fn* heap_ptr(void* self) {
    Fn* p;
    std::memcpy(&p, self, sizeof p);
    return p;
  }
  template <typename Fn>
  static constexpr Ops heap_ops{
      [](void* self) { (*heap_ptr<Fn>(self))(); },
      nullptr,
      [](void* self) noexcept { delete heap_ptr<Fn>(self); },
  };

  void take(Task& o) noexcept {
    ops_ = o.ops_;
    if (!ops_) return;
    if (ops_->relocate) {
      ops_->relocate(buf_, o.buf_);
    } else {
      std::memcpy(buf_, o.buf_, kInlineBytes);
    }
    o.ops_ = nullptr;
  }

  void reset() noexcept {
    if (ops_ && ops_->destroy) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  alignas(void*) std::byte buf_[kInlineBytes];
  const Ops* ops_{nullptr};
};

}  // namespace lod::net
