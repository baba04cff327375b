#include "sim/slab.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace sda::sim {
namespace {

TEST(Slab, ReusesTheMostRecentlyReleasedSlotFirst) {
  Slab<int> slab;
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(slab.acquire(), i);
  slab.release(1);
  slab.release(3);
  slab.release(0);
  EXPECT_EQ(slab.acquire(), 0u);
  EXPECT_EQ(slab.acquire(), 3u);
  EXPECT_EQ(slab.acquire(), 1u);
  EXPECT_EQ(slab.acquire(), 4u);  // free list empty: a new slot
}

TEST(Slab, LiveCountsHeldSlotsAndSizeTheHighWaterMark) {
  Slab<int> slab;
  EXPECT_EQ(slab.live(), 0u);
  EXPECT_EQ(slab.size(), 0u);
  EXPECT_FALSE(slab.has_free());
  for (int i = 0; i < 3; ++i) slab.acquire();
  EXPECT_EQ(slab.live(), 3u);
  EXPECT_EQ(slab.size(), 3u);
  slab.release(2);
  slab.release(0);
  EXPECT_EQ(slab.live(), 1u);
  EXPECT_EQ(slab.size(), 3u);
  EXPECT_TRUE(slab.has_free());
  EXPECT_FALSE(slab.is_live(0));
  EXPECT_TRUE(slab.is_live(1));
  EXPECT_FALSE(slab.is_live(3));  // never handed out
  slab.acquire();
  slab.acquire();
  EXPECT_EQ(slab.live(), 3u);
  EXPECT_EQ(slab.size(), 3u);
  EXPECT_FALSE(slab.has_free());
  slab.clear();
  EXPECT_EQ(slab.live(), 0u);
  EXPECT_EQ(slab.size(), 0u);
}

TEST(Slab, ReleasedValueSurvivesIntoItsNextAcquire) {
  Slab<std::vector<int>> slab;
  const std::uint32_t slot = slab.acquire();
  EXPECT_TRUE(slab[slot].empty());  // a new slot holds T{}
  slab[slot].assign(64, 7);
  const std::size_t capacity = slab[slot].capacity();
  slab.release(slot);
  EXPECT_EQ(slab[slot].size(), 64u);  // still readable after release
  ASSERT_EQ(slab.acquire(), slot);
  EXPECT_EQ(slab[slot], std::vector<int>(64, 7));
  EXPECT_EQ(slab[slot].capacity(), capacity);
}

TEST(Slab, VisitSeesOnlyLiveSlotsInSlotOrder) {
  Slab<int> slab;
  for (int i = 0; i < 6; ++i) slab[slab.acquire()] = 10 * i;
  slab.release(4);
  slab.release(1);
  slab.release(0);
  ASSERT_EQ(slab.acquire(), 0u);  // slot 0 is held again
  std::vector<std::uint32_t> seen;
  slab.for_each([&](std::uint32_t slot) { seen.push_back(slot); });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{0, 2, 3, 5}));

  // The visit may release the slot it is given.
  slab.for_each([&](std::uint32_t slot) {
    if (slab[slot] >= 30) slab.release(slot);
  });
  seen.clear();
  slab.for_each([&](std::uint32_t slot) { seen.push_back(slot); });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(slab.acquire(), 5u);  // released last by the visit
}

TEST(Slab, ReleaseNeverAllocates) {
  constexpr std::size_t kSlots = 100;
  Slab<int> reserved;
  reserved.reserve(kSlots);
  const std::size_t capacity = reserved.capacity();
  EXPECT_GE(capacity, kSlots);
  for (std::size_t i = 0; i < kSlots; ++i) reserved.acquire();
  for (std::uint32_t i = 0; i < kSlots; ++i) reserved.release(i);
  EXPECT_EQ(reserved.capacity(), capacity);

  // Without a reserve the free list grows with the slots, not at release.
  Slab<int> grown;
  for (std::size_t i = 0; i < kSlots; ++i) grown.acquire();
  const std::size_t grown_capacity = grown.capacity();
  EXPECT_GE(grown_capacity, kSlots);
  for (std::uint32_t i = 0; i < kSlots; ++i) grown.release(i);
  EXPECT_EQ(grown.capacity(), grown_capacity);
}

}  // namespace
}  // namespace sda::sim
