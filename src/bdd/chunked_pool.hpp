#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <vector>

namespace lr::bdd::detail {

/// A growable array whose elements never move: storage is a list of
/// chunks of 2^kChunkBits elements, and growth appends a chunk without
/// copying or freeing another (CUDD's DD_MEM_CHUNK). Element i lives at
/// chunks[i >> kChunkBits][i & mask], so its address is fixed from the
/// push_back that creates it until the pool is destroyed, and the pool
/// never holds an old and a new array at once. Chunks are allocated
/// uninitialised, so a page is touched only when an element is first
/// written to it. Elements are never destroyed one by one, hence the
/// trivially-copyable requirement. Single-threaded.
template <class T, unsigned kChunkBits>
class ChunkedPool {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);

 public:
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkBits;

  [[nodiscard]] T& operator[](std::size_t i) noexcept {
    return chunks_[i >> kChunkBits][i & (kChunkSize - 1)];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return chunks_[i >> kChunkBits][i & (kChunkSize - 1)];
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t chunk_count() const noexcept {
    return chunks_.size();
  }

  /// Appends `value`, opening a new chunk when the last one is full.
  void push_back(const T& value) {
    if (size_ == chunks_.size() * kChunkSize) {
      // One table for the first 64 chunk pointers, so that growth up to 64
      // chunks allocates the chunk alone. Heap placement follows from it
      // too: without this 512-byte block ahead of the first chunk, lr_bench
      // small-models' setup_s (3,003 fresh managers) read 5% above a
      // vector-backed pool's.
      if (chunks_.empty()) chunks_.reserve(64);
      chunks_.push_back(std::make_unique_for_overwrite<T[]>(kChunkSize));
    }
    (*this)[size_++] = value;
  }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::size_t size_ = 0;
};

}  // namespace lr::bdd::detail
