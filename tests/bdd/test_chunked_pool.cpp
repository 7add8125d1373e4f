// Tests for the node pool's storage: a chunked array whose elements never
// move.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bdd/chunked_pool.hpp"

namespace lr::bdd::detail {
namespace {

struct Item {
  std::uint32_t key;
  std::uint32_t twice;
};

/// Four elements per chunk, so a few dozen pushes cross many boundaries.
using SmallPool = ChunkedPool<Item, 2>;

TEST(ChunkedPoolTest, SizeCountsEveryPush) {
  SmallPool pool;
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.chunk_count(), 0u);
  for (std::uint32_t i = 0; i < 9; ++i) {
    pool.push_back({i, 2 * i});
    EXPECT_EQ(pool.size(), i + 1);
  }
  // 9 elements fill two chunks of 4 and open a third.
  EXPECT_EQ(pool.chunk_count(), 3u);
}

TEST(ChunkedPoolTest, IndexingIsRightAtChunkBoundaries) {
  SmallPool pool;
  for (std::uint32_t i = 0; i < 40; ++i) pool.push_back({i, 2 * i});
  for (const std::size_t i : {0u, 3u, 4u, 7u, 8u, 35u, 36u, 39u}) {
    EXPECT_EQ(pool[i].key, i) << "index " << i;
    EXPECT_EQ(pool[i].twice, 2 * i) << "index " << i;
  }
  const SmallPool& view = pool;
  EXPECT_EQ(view[4].key, 4u);
  pool[4].twice = 99;  // writes land on the element they index
  EXPECT_EQ(view[4].twice, 99u);
  EXPECT_EQ(view[3].twice, 6u);
  EXPECT_EQ(view[5].twice, 10u);
}

TEST(ChunkedPoolTest, ElementAddressesSurviveGrowth) {
  SmallPool pool;
  std::vector<const Item*> addresses;
  for (std::uint32_t i = 0; i < 64; ++i) {
    pool.push_back({i, 2 * i});
    addresses.push_back(&pool[i]);
  }
  // Growing by many more chunks moves nothing already stored.
  for (std::uint32_t i = 64; i < 4096; ++i) pool.push_back({i, 2 * i});
  EXPECT_EQ(pool.chunk_count(), 1024u);
  for (std::uint32_t i = 0; i < 64; ++i) {
    EXPECT_EQ(&pool[i], addresses[i]) << "index " << i;
    EXPECT_EQ(addresses[i]->key, i);
  }
}

TEST(ChunkedPoolTest, ManagerSizedChunksHoldTheirElements) {
  // The manager's geometry: 2^16 elements per chunk.
  ChunkedPool<Item, 16> pool;
  constexpr std::uint32_t kChunk = 1u << 16;
  for (std::uint32_t i = 0; i < 2 * kChunk + 1; ++i) pool.push_back({i, i});
  const Item* first = &pool[0];
  const Item* last_of_first = &pool[kChunk - 1];
  EXPECT_EQ(pool.chunk_count(), 3u);
  EXPECT_EQ(last_of_first - first, kChunk - 1);
  EXPECT_EQ(pool[kChunk].key, kChunk);
  EXPECT_EQ(pool[2 * kChunk].key, 2 * kChunk);
  pool.push_back({0, 0});
  EXPECT_EQ(&pool[0], first);
}

}  // namespace
}  // namespace lr::bdd::detail
