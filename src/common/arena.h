#ifndef IRES_COMMON_ARENA_H_
#define IRES_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace ires {

/// Bump allocator for planner-scoped scratch: one Plan/PlanFrontier call
/// allocates thousands of small DP-table nodes (entries, input-choice
/// lists, bucket indices) that all die together when the call returns.
/// Serving them from a per-plan arena turns each allocation into a pointer
/// bump inside a geometrically growing block chain — no per-entry
/// malloc/free on the warm path, no fragmentation, one batched release.
///
/// Not thread-safe: an Arena belongs to exactly one planning call on one
/// thread.
class Arena {
 public:
  explicit Arena(size_t first_block_bytes = 16 * 1024)
      : next_block_bytes_(first_block_bytes < 256 ? 256 : first_block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of storage aligned to `align` (a power of two). The
  /// storage lives until the arena is destroyed; there is no per-object
  /// free.
  void* Allocate(size_t bytes, size_t align) {
    if (bytes == 0) bytes = 1;
    uintptr_t cursor = reinterpret_cast<uintptr_t>(cursor_);
    uintptr_t aligned = (cursor + (align - 1)) & ~(uintptr_t(align) - 1);
    if (aligned + bytes > reinterpret_cast<uintptr_t>(limit_)) {
      NewBlock(bytes + align);
      cursor = reinterpret_cast<uintptr_t>(cursor_);
      aligned = (cursor + (align - 1)) & ~(uintptr_t(align) - 1);
    }
    cursor_ = reinterpret_cast<char*>(aligned + bytes);
    bytes_allocated_ += bytes;
    return reinterpret_cast<void*>(aligned);
  }

  /// Total bytes handed out (excludes alignment padding and block slack).
  size_t bytes_allocated() const { return bytes_allocated_; }
  size_t block_count() const { return blocks_.size(); }

 private:
  void NewBlock(size_t min_bytes) {
    size_t size = next_block_bytes_;
    while (size < min_bytes) size *= 2;
    next_block_bytes_ = size * 2;  // geometric growth caps block count
    blocks_.push_back(std::make_unique<char[]>(size));
    cursor_ = blocks_.back().get();
    limit_ = cursor_ + size;
  }

  std::vector<std::unique_ptr<char[]>> blocks_;
  char* cursor_ = nullptr;
  char* limit_ = nullptr;
  size_t next_block_bytes_;
  size_t bytes_allocated_ = 0;
};

/// std::allocator-compatible handle over an Arena, so standard containers
/// (the DP tables' vectors) draw from the bump arena. deallocate is a
/// no-op — freed space is reclaimed only when the arena dies, which is the
/// point: DP tables only ever grow during a plan.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(Arena* arena) : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) : arena_(other.arena()) {}

  T* allocate(size_t n) {
    return static_cast<T*>(arena_->Allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T*, size_t) {}

  Arena* arena() const { return arena_; }

 private:
  Arena* arena_;
};

template <typename A, typename B>
bool operator==(const ArenaAllocator<A>& a, const ArenaAllocator<B>& b) {
  return a.arena() == b.arena();
}
template <typename A, typename B>
bool operator!=(const ArenaAllocator<A>& a, const ArenaAllocator<B>& b) {
  return !(a == b);
}

}  // namespace ires

#endif  // IRES_COMMON_ARENA_H_
