// A vector whose resize() default-initializes its new elements: trivial
// elements are left unwritten, so a parallel fill that follows is their
// first touch instead of a second pass over a serial zero-fill.
#pragma once

#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace dmpc {

/// std::allocator, except that construction without arguments
/// default-initializes instead of value-initializing.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  using std::allocator<T>::allocator;

  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }

  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// Every write to a new element must come before its first read.
template <typename T>
using DefaultInitVector = std::vector<T, DefaultInitAllocator<T>>;

}  // namespace dmpc
