#pragma once

/// \file default_init.hpp
/// An allocator that default-initializes where std::allocator
/// value-initializes. A std::vector<T, DefaultInitAllocator<T>> of a trivial
/// T that is constructed with a size, or resized, leaves the new elements
/// unwritten, so the first write to each element is the caller's own: on the
/// pool, when the caller fills the buffer there. Copies and every other
/// construction with arguments behave as with std::allocator (though
/// libstdc++ copies such a vector element by element, not by memmove).

#include <memory>
#include <new>
#include <type_traits>

namespace rapids {

template <typename T>
class DefaultInitAllocator : public std::allocator<T> {
 public:
  DefaultInitAllocator() noexcept = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  // Only the no-argument form is declared, so std::allocator_traits builds
  // every element given arguments with std::construct_at, as for
  // std::allocator.
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
};

}  // namespace rapids
