#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace hetsched::mem {

/// Bump allocator backed by a chain of geometrically growing blocks.
///
/// The executor allocates many short-lived, identically-scoped objects per
/// run — task bookkeeping, transfer plans, trace entries — and frees them
/// all at once when the run ends. A bump pointer turns each of those
/// allocations into a pointer increment, and `reset()` recycles every block
/// for the next run without returning memory to the OS, so a warmed-up
/// arena allocates from resident pages only.
///
/// Only trivially destructible types may be created through `make`/
/// `make_array`: reset() rewinds the bump pointer without running
/// destructors (enforced at compile time).
class Arena {
 public:
  static constexpr std::size_t kDefaultBlockBytes = 64 * 1024;

  explicit Arena(std::size_t first_block_bytes = kDefaultBlockBytes)
      : next_block_bytes_(first_block_bytes == 0 ? kDefaultBlockBytes
                                                 : first_block_bytes) {}
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Raw aligned allocation. Alignment must be a power of two.
  void* allocate(std::size_t bytes, std::size_t align) {
    std::uintptr_t p = (cursor_ + (align - 1)) & ~std::uintptr_t(align - 1);
    if (p + bytes > limit_) {
      refill(bytes, align);
      p = (cursor_ + (align - 1)) & ~std::uintptr_t(align - 1);
    }
    cursor_ = p + bytes;
    bytes_allocated_ += bytes;
    return reinterpret_cast<void*>(p);
  }

  /// Constructs a T in the arena. T must be trivially destructible —
  /// reset() never runs destructors.
  template <typename T, typename... Args>
  T* make(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena::reset() does not run destructors");
    return ::new (allocate(sizeof(T), alignof(T)))
        T(std::forward<Args>(args)...);
  }

  /// Allocates an uninitialized array of n Ts (value-initialized).
  template <typename T>
  T* make_array(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena::reset() does not run destructors");
    T* out = static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
    for (std::size_t i = 0; i < n; ++i) ::new (out + i) T();
    return out;
  }

  /// Rewinds to empty, keeping every block for reuse. After reset, the
  /// arena serves allocations from its first block again.
  void reset() {
    block_index_ = 0;
    bytes_allocated_ = 0;
    if (blocks_.empty()) {
      cursor_ = limit_ = 0;
    } else {
      use_block(0);
    }
  }

  /// Releases all blocks back to the OS.
  void release() {
    blocks_.clear();
    block_index_ = 0;
    bytes_allocated_ = 0;
    cursor_ = limit_ = 0;
  }

  /// Live bytes handed out since the last reset (excludes padding).
  std::size_t bytes_allocated() const { return bytes_allocated_; }
  /// Total capacity currently held across all blocks.
  std::size_t bytes_reserved() const {
    std::size_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    return total;
  }
  std::size_t block_count() const { return blocks_.size(); }

 private:
  struct Block {
    std::unique_ptr<unsigned char[]> data;
    std::size_t size = 0;
  };

  void use_block(std::size_t index) {
    block_index_ = index;
    cursor_ = reinterpret_cast<std::uintptr_t>(blocks_[index].data.get());
    limit_ = cursor_ + blocks_[index].size;
  }

  /// Advances to the next block that fits `bytes` (+ worst-case padding),
  /// appending a new geometrically larger block when none does.
  void refill(std::size_t bytes, std::size_t align) {
    const std::size_t need = bytes + align;
    while (block_index_ + 1 < blocks_.size()) {
      use_block(block_index_ + 1);
      if (limit_ - cursor_ >= need) return;
    }
    std::size_t size = next_block_bytes_;
    while (size < need) size *= 2;
    next_block_bytes_ = size * 2;
    blocks_.push_back(
        Block{std::make_unique<unsigned char[]>(size), size});
    use_block(blocks_.size() - 1);
  }

  std::vector<Block> blocks_;
  std::size_t block_index_ = 0;
  std::size_t next_block_bytes_;
  std::size_t bytes_allocated_ = 0;
  std::uintptr_t cursor_ = 0;
  std::uintptr_t limit_ = 0;
};

}  // namespace hetsched::mem
