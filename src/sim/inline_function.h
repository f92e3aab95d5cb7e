// A copyable callable held in a fixed inline buffer: the simulator's stand-in
// for the fixed-shape Accent messages that Matchmaker stubs built in TABS.
// A std::function heap-allocates any capture over 16 bytes; this stores the
// closure in place, so spawning a task or sending a message allocates
// nothing for it. There is no heap fallback: a closure that does not fit
// fails to compile, and the fix is to trim its captures. It is copyable,
// because a duplicated datagram runs its own copy.

#ifndef TABS_SIM_INLINE_FUNCTION_H_
#define TABS_SIM_INLINE_FUNCTION_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace tabs::sim {

template <typename Signature, std::size_t Bytes>
class InlineFunction;

template <typename R, typename... Args, std::size_t Bytes>
class InlineFunction<R(Args...), Bytes> {
 public:
  InlineFunction() = default;
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFunction> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction(F&& f) : ops_(&kOps<D>) {  // NOLINT: implicit, like std::function
    static_assert(sizeof(D) <= Bytes, "closure too large for its inline buffer");
    static_assert(alignof(D) <= alignof(void*));
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
  }
  InlineFunction(const InlineFunction& o) : ops_(o.ops_) {
    if (ops_ != nullptr) {
      ops_->copy(buf_, o.buf_);
    }
  }
  InlineFunction(InlineFunction&& o) noexcept : ops_(std::exchange(o.ops_, nullptr)) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, o.buf_);
    }
  }
  InlineFunction& operator=(InlineFunction o) noexcept {
    reset();
    if ((ops_ = std::exchange(o.ops_, nullptr)) != nullptr) {
      ops_->relocate(buf_, o.buf_);
    }
    return *this;
  }
  ~InlineFunction() { reset(); }

  R operator()(Args... args) const { return ops_->invoke(buf_, std::forward<Args>(args)...); }
  // Destroys the closure, releasing its captures now.
  void reset() {
    if (ops_ != nullptr) {
      std::exchange(ops_, nullptr)->destroy(buf_);
    }
  }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    void (*copy)(void* to, const void* from);
    void (*relocate)(void* to, void* from);  // move-constructs, then destroys `from`
    void (*destroy)(void*);
  };
  template <typename D>
  static constexpr Ops kOps = {
      [](void* f, Args&&... a) -> R { return (*static_cast<D*>(f))(std::forward<Args>(a)...); },
      [](void* to, const void* from) { ::new (to) D(*static_cast<const D*>(from)); },
      [](void* to, void* from) {
        ::new (to) D(std::move(*static_cast<D*>(from)));
        static_cast<D*>(from)->~D();
      },
      [](void* f) { static_cast<D*>(f)->~D(); },
  };

  const Ops* ops_ = nullptr;
  alignas(void*) mutable unsigned char buf_[Bytes];
};

}  // namespace tabs::sim

#endif  // TABS_SIM_INLINE_FUNCTION_H_
