// Small-buffer-optimized callable for scheduler events.
//
// `InlineAction` replaces `std::function<void()>` on the event hot path.
// The common captures in the simulator — `[this]` continuations in
// net/link.cc and net/queue.cc — are a pointer or two, so they fit the
// 48-byte inline buffer and scheduling them performs no heap allocation.
// Larger callables transparently fall back to a heap box. The type is
// move-only (events are scheduled exactly once) but may be *invoked*
// repeatedly. Timer callbacks, stored once per timer for its whole life,
// use the smaller InlineHandler instead (sim/timer.h).
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace dctcpp {

class InlineAction {
 public:
  /// Captures up to this many bytes live inline; larger ones are boxed.
  static constexpr std::size_t kInlineSize = 48;

  InlineAction() = default;
  InlineAction(std::nullptr_t) {}  // NOLINT: mirrors std::function

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineAction> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineAction(F&& f) {  // NOLINT: implicit, mirrors std::function
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::kOps;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &BoxedOps<Fn>::kOps;
    }
  }

  InlineAction(InlineAction&& other) noexcept { MoveFrom(other); }
  InlineAction& operator=(InlineAction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  InlineAction(const InlineAction&) = delete;
  InlineAction& operator=(const InlineAction&) = delete;
  ~InlineAction() { Reset(); }

  /// Invokes the stored callable (must be non-empty). Repeatable.
  void operator()() { ops_->invoke(buf_); }

  explicit operator bool() const { return ops_ != nullptr; }

  /// Destroys the stored callable, leaving the action empty.
  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  /// True when the callable lives in the inline buffer (no heap box).
  bool IsInline() const { return ops_ != nullptr && ops_->is_inline; }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src);  // move-construct dst, destroy src
    void (*destroy)(void*);
    bool is_inline;
  };

  template <typename Fn>
  struct InlineOps {
    static Fn* Get(void* b) { return std::launder(reinterpret_cast<Fn*>(b)); }
    static void Invoke(void* b) { (*Get(b))(); }
    static void Relocate(void* dst, void* src) {
      ::new (dst) Fn(std::move(*Get(src)));
      Get(src)->~Fn();
    }
    static void Destroy(void* b) { Get(b)->~Fn(); }
    static constexpr Ops kOps{Invoke, Relocate, Destroy, /*is_inline=*/true};
  };

  template <typename Fn>
  struct BoxedOps {
    static Fn* Get(void* b) {
      return *std::launder(reinterpret_cast<Fn**>(b));
    }
    static void Invoke(void* b) { (*Get(b))(); }
    static void Relocate(void* dst, void* src) {
      ::new (dst) Fn*(Get(src));  // steal the box
    }
    static void Destroy(void* b) { delete Get(b); }
    static constexpr Ops kOps{Invoke, Relocate, Destroy, /*is_inline=*/false};
  };

  void MoveFrom(InlineAction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace dctcpp
