#ifndef HYPPO_COMMON_MAPPED_ALLOCATOR_H_
#define HYPPO_COMMON_MAPPED_ALLOCATOR_H_

#include <sys/mman.h>

#include <cstddef>
#include <new>
#include <vector>

namespace hyppo {

/// \brief Allocator for large numeric buffers such as dataset matrices.
///
/// Blocks of 2 MiB and up are mapped straight from the OS and unmapped on
/// release, so their memory goes back as soon as the buffer dies. Through
/// malloc they would stay cached in the arena of whichever executor thread
/// freed them, and the process footprint would keep growing with the work
/// done. Smaller blocks, and every block in AddressSanitizer builds (which
/// need malloc's redzones), use operator new.
template <typename T>
struct MappedAllocator {
  using value_type = T;
#if defined(__SANITIZE_ADDRESS__)
  static constexpr size_t kMinMappedBytes = ~size_t{0};
#else
  static constexpr size_t kMinMappedBytes = size_t{2} << 20;
#endif

  MappedAllocator() = default;
  template <typename U>
  MappedAllocator(const MappedAllocator<U>&) {}  // NOLINT: allocator rebind

  T* allocate(size_t n) {
    const size_t bytes = n * sizeof(T);
    if (bytes < kMinMappedBytes) {
      return static_cast<T*>(::operator new(bytes));
    }
    void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
      throw std::bad_alloc();
    }
    return static_cast<T*>(p);
  }

  void deallocate(T* p, size_t n) {
    const size_t bytes = n * sizeof(T);
    if (bytes < kMinMappedBytes) {
      ::operator delete(p);
    } else {
      munmap(p, bytes);
    }
  }

  friend bool operator==(const MappedAllocator&, const MappedAllocator&) {
    return true;
  }
  friend bool operator!=(const MappedAllocator&, const MappedAllocator&) {
    return false;
  }
};

template <typename T>
using MappedVector = std::vector<T, MappedAllocator<T>>;

}  // namespace hyppo

#endif  // HYPPO_COMMON_MAPPED_ALLOCATOR_H_
