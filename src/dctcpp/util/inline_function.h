// Allocation-free callables for the control-plane hot path.
//
// Two templates generalize `InlineAction` (sim/inline_action.h) beyond the
// nullary scheduler signature:
//
//  - InlineHandler<R(Args...)>: a 32-byte trivially copyable delegate
//    with a 24-byte buffer and NO heap fallback. It stores everything held
//    per connection: packet-demux handlers, Timer callbacks and the
//    TcpSocket callbacks (on_connected / on_data / on_remote_close /
//    on_acked / on_closed). Every such callable is a pointer capture or
//    two plus an id or two; the whole delegate is memcpy-able (so
//    open-addressing tables can relocate slots freely), and the dispatcher
//    can copy it to the stack before invoking — which makes
//    self-unregistration during dispatch safe without any reference
//    counting. Oversized or non-trivially-copyable callables are a compile
//    error, not a silent heap box.
//
//  - InlineFunction<R(Args...)>: move-only with a 48-byte inline buffer and
//    a transparent heap box for larger captures, exactly like InlineAction
//    (64 bytes in all). It remains for application completions that take
//    a caller's arbitrary lambda (workload/apps.h's `Completion`: e.g.
//    AggregatorClient::Request and ::Connect); the app keeps it as a
//    member and hands its socket a [this] handler that forwards to it.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace dctcpp {

template <typename Sig>
class InlineHandler;

template <typename R, typename... Args>
class InlineHandler<R(Args...)> {
 public:
  /// Capture budget. Demux handlers capture at most a couple of pointers;
  /// anything bigger belongs in the object the pointer refers to.
  static constexpr std::size_t kInlineSize = 24;

  InlineHandler() = default;
  InlineHandler(std::nullptr_t) {}  // NOLINT: mirrors std::function

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineHandler> &&
                std::is_invocable_r_v<R, const std::decay_t<F>&, Args...>>>
  InlineHandler(F&& f) {  // NOLINT: implicit, mirrors std::function
    using Fn = std::decay_t<F>;
    static_assert(std::is_trivially_copyable_v<Fn>,
                  "demux handlers must be trivially copyable (capture raw "
                  "pointers, not owning types)");
    static_assert(sizeof(Fn) <= kInlineSize,
                  "handler capture exceeds the inline budget");
    static_assert(alignof(Fn) <= alignof(void*),
                  "over-aligned handler capture");
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    invoke_ = [](const void* buf, Args... args) -> R {
      return (*std::launder(reinterpret_cast<const Fn*>(buf)))(
          std::forward<Args>(args)...);
    };
  }

  /// Invokes the stored callable (must be non-empty). The handler object
  /// itself may be destroyed by the callee (self-unregistration): callers
  /// on that path copy the handler to a local first — a plain struct copy.
  R operator()(Args... args) const {
    return invoke_(buf_, std::forward<Args>(args)...);
  }

  explicit operator bool() const { return invoke_ != nullptr; }

 private:
  alignas(void*) unsigned char buf_[kInlineSize] = {};
  R (*invoke_)(const void*, Args...) = nullptr;
};

template <typename Sig>
class InlineFunction;

template <typename R, typename... Args>
class InlineFunction<R(Args...)> {
 public:
  /// Captures up to this many bytes live inline; larger ones are boxed.
  static constexpr std::size_t kInlineSize = 48;

  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT: mirrors std::function

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT: implicit, mirrors std::function
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

  InlineFunction(InlineFunction&& other) noexcept { MoveFrom(other); }
  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;
  ~InlineFunction() { Reset(); }

  /// Invokes the stored callable (must be non-empty). Repeatable.
  R operator()(Args... args) {
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

  explicit operator bool() const { return ops_ != nullptr; }

  /// Destroys the stored callable, leaving the function empty.
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
    R (*invoke)(void*, Args&&...);
    void (*relocate)(void* dst, void* src);  // move-construct dst, kill src
    void (*destroy)(void*);
    bool is_inline;
  };

  template <typename Fn>
  struct InlineOps {
    static Fn* Get(void* b) { return std::launder(reinterpret_cast<Fn*>(b)); }
    static R Invoke(void* b, Args&&... args) {
      return (*Get(b))(std::forward<Args>(args)...);
    }
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
    static R Invoke(void* b, Args&&... args) {
      return (*Get(b))(std::forward<Args>(args)...);
    }
    static void Relocate(void* dst, void* src) {
      ::new (dst) Fn*(Get(src));  // steal the box
    }
    static void Destroy(void* b) { delete Get(b); }
    static constexpr Ops kOps{Invoke, Relocate, Destroy, /*is_inline=*/false};
  };

  void MoveFrom(InlineFunction& other) noexcept {
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
