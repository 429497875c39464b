// Tests for the per-PE views over job-wide rank state: the learned set
// and the sparse rank → slot index (DESIGN.md §5.21).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>

#include "core/rank_index.hpp"
#include "sim/random.hpp"

namespace odcm::core {
namespace {

TEST(RankSet, StartsEmptyAndAllocatesOnFirstInsert) {
  RankSet set(1000);
  EXPECT_EQ(set.memory_bytes(), 0u);
  EXPECT_FALSE(set.contains(0));
  EXPECT_FALSE(set.contains(999));
  set.insert(999);
  set.insert(64);
  EXPECT_TRUE(set.contains(999));
  EXPECT_TRUE(set.contains(64));
  EXPECT_FALSE(set.contains(63));
  EXPECT_FALSE(set.contains(65));
  EXPECT_EQ(set.memory_bytes(), 16u * sizeof(std::uint64_t));  // 1000 bits
}

TEST(RankSet, InsertAllIsAFlagThatReleasesTheBits) {
  RankSet set(4096);
  set.insert(7);
  EXPECT_GT(set.memory_bytes(), 0u);
  set.insert_all();
  EXPECT_EQ(set.memory_bytes(), 0u);
  EXPECT_TRUE(set.contains(0));
  EXPECT_TRUE(set.contains(4095));
  EXPECT_FALSE(set.contains(4096));  // outside the job
  set.insert(12);                    // no-op once everything is known
  EXPECT_EQ(set.memory_bytes(), 0u);
}

TEST(RankIndex, MatchesAMapUnderRandomInserts) {
  // Sparse, clustered and colliding keys (multiples of the table size)
  // across several doublings.
  RankIndex index;
  std::map<std::uint32_t, std::uint32_t> reference;
  sim::Rng rng(17);
  for (std::uint32_t i = 0; i < 700; ++i) {
    std::uint32_t rank = 0;
    switch (i % 3) {
      case 0: rank = static_cast<std::uint32_t>(rng.next_below(1u << 20)); break;
      case 1: rank = i; break;
      default: rank = 1024 * i; break;
    }
    if (reference.count(rank) != 0) continue;
    const auto slot = static_cast<std::uint32_t>(reference.size());
    EXPECT_EQ(index.find(rank), RankIndex::kNone);
    index.insert(rank, slot);
    reference[rank] = slot;
  }
  EXPECT_EQ(index.size(), reference.size());
  for (const auto& [rank, slot] : reference) {
    EXPECT_EQ(index.find(rank), slot) << "rank " << rank;
  }
  for (std::uint32_t absent : {3u, 5u, 1025u, 0xfffffffeu}) {
    if (reference.count(absent) == 0) {
      EXPECT_EQ(index.find(absent), RankIndex::kNone);
    }
  }
}

TEST(RankIndex, SizedByInsertedRanksNotByTheirValues) {
  RankIndex index;
  const std::size_t empty = index.memory_bytes();
  EXPECT_EQ(index.find(0), RankIndex::kNone);  // rank 0 on an empty table
  for (std::uint32_t i = 0; i < 100; ++i) index.insert(i * 81'919, i);
  // Load factor <= 1/2 with power-of-two doubling: at most 4 entries of
  // 8 bytes per key.
  EXPECT_LE(index.memory_bytes(), 100u * 4 * 8);
  EXPECT_GT(index.memory_bytes(), empty);
}

}  // namespace
}  // namespace odcm::core
