#ifndef FOOFAH_UTIL_FUNCTION_REF_H_
#define FOOFAH_UTIL_FUNCTION_REF_H_

#include <memory>
#include <type_traits>
#include <utility>

namespace foofah {

template <typename Signature>
class FunctionRef;

/// A non-owning reference to a callable: two pointers, never allocates.
/// The referenced callable must outlive every call, so a FunctionRef is
/// a parameter type, not something to store. The row scans pass one per
/// row callback, where std::function's capture storage would allocate.
template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f)  // NOLINT(google-explicit-constructor)
      : object_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* object, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(object))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(object_, std::forward<Args>(args)...);
  }

 private:
  void* object_;
  R (*call_)(void*, Args...);
};

}  // namespace foofah

#endif  // FOOFAH_UTIL_FUNCTION_REF_H_
