#include "lisp/map_cache.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace sda::lisp {
namespace {

using net::Eid;
using net::Ipv4Address;
using net::Rloc;
using net::VnEid;
using net::VnId;

VnEid eid(const char* ip) { return VnEid{VnId{1}, Eid{*Ipv4Address::parse(ip)}}; }

MapReply reply(const char* rloc_ip, std::uint32_t ttl = 3600) {
  MapReply r;
  r.rlocs = {Rloc{*Ipv4Address::parse(rloc_ip)}};
  r.ttl_seconds = ttl;
  return r;
}

MapReply reply_with(std::vector<Rloc> rlocs) {
  MapReply r;
  r.rlocs = std::move(rlocs);
  r.ttl_seconds = 3600;
  return r;
}

Rloc loc(const char* ip, std::uint8_t priority = 1) {
  return Rloc{*Ipv4Address::parse(ip), priority};
}

MapReply negative_reply(std::uint32_t ttl = 60) {
  MapReply r;
  r.action = MapReplyAction::NativelyForward;
  r.ttl_seconds = ttl;
  return r;
}

sim::SimTime at_s(int s) { return sim::SimTime{std::chrono::seconds{s}}; }

TEST(MapCache, InstallAndLookup) {
  MapCache cache;
  cache.install(eid("10.1.0.5"), reply("10.0.0.2"), at_s(0));
  const auto* entry = cache.lookup(eid("10.1.0.5"), at_s(1));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->primary_rloc(), *Ipv4Address::parse("10.0.0.2"));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.positive_size(), 1u);
}

TEST(MapCache, MissCounts) {
  MapCache cache;
  EXPECT_EQ(cache.lookup(eid("10.1.0.5"), at_s(0)), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(MapCache, EntriesExpireByTtl) {
  MapCache cache;
  cache.install(eid("10.1.0.5"), reply("10.0.0.2", 100), at_s(0));
  EXPECT_NE(cache.lookup(eid("10.1.0.5"), at_s(99)), nullptr);
  EXPECT_EQ(cache.lookup(eid("10.1.0.5"), at_s(100)), nullptr);
  EXPECT_EQ(cache.stats().expirations, 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(MapCache, NegativeEntriesCachedButNotCountedPositive) {
  MapCache cache;
  cache.install(eid("10.1.0.5"), negative_reply(), at_s(0));
  const auto* entry = cache.lookup(eid("10.1.0.5"), at_s(1));
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->negative());
  EXPECT_EQ(cache.positive_size(), 0u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(MapCache, PositiveReplacesNegative) {
  MapCache cache;
  cache.install(eid("10.1.0.5"), negative_reply(), at_s(0));
  cache.install(eid("10.1.0.5"), reply("10.0.0.2"), at_s(1));
  EXPECT_EQ(cache.positive_size(), 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.lookup(eid("10.1.0.5"), at_s(2))->negative());
}

TEST(MapCache, LruEvictionAtCapacity) {
  MapCache cache{3};
  cache.install(eid("10.1.0.1"), reply("10.0.0.2"), at_s(0));
  cache.install(eid("10.1.0.2"), reply("10.0.0.2"), at_s(0));
  cache.install(eid("10.1.0.3"), reply("10.0.0.2"), at_s(0));
  // Touch .1 so .2 becomes the LRU victim.
  EXPECT_NE(cache.lookup(eid("10.1.0.1"), at_s(1)), nullptr);
  cache.install(eid("10.1.0.4"), reply("10.0.0.2"), at_s(2));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.lookup(eid("10.1.0.2"), at_s(3)), nullptr);
  EXPECT_NE(cache.lookup(eid("10.1.0.1"), at_s(3)), nullptr);
  EXPECT_NE(cache.lookup(eid("10.1.0.4"), at_s(3)), nullptr);
}

TEST(MapCache, InvalidateSingleEntry) {
  MapCache cache;
  cache.install(eid("10.1.0.5"), reply("10.0.0.2"), at_s(0));
  EXPECT_TRUE(cache.invalidate(eid("10.1.0.5")));
  EXPECT_FALSE(cache.invalidate(eid("10.1.0.5")));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(MapCache, InvalidateRlocPurgesOnlyThatRloc) {
  MapCache cache;
  cache.install(eid("10.1.0.1"), reply("10.0.0.2"), at_s(0));
  cache.install(eid("10.1.0.2"), reply("10.0.0.2"), at_s(0));
  cache.install(eid("10.1.0.3"), reply("10.0.0.9"), at_s(0));
  cache.install(eid("10.1.0.4"), negative_reply(), at_s(0));
  EXPECT_EQ(cache.invalidate_rloc(*Ipv4Address::parse("10.0.0.2")), 2u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.lookup(eid("10.1.0.3"), at_s(1)), nullptr);
}

TEST(MapCache, InvalidateRlocIsIdempotentAndTracksPositiveSize) {
  MapCache cache;
  cache.install(eid("10.1.0.1"), reply("10.0.0.2"), at_s(0));
  cache.install(eid("10.1.0.2"), reply("10.0.0.2"), at_s(0));
  cache.install(eid("10.1.0.3"), negative_reply(), at_s(0));
  EXPECT_EQ(cache.positive_size(), 2u);
  EXPECT_EQ(cache.invalidate_rloc(*Ipv4Address::parse("10.0.0.2")), 2u);
  EXPECT_EQ(cache.positive_size(), 0u);
  EXPECT_EQ(cache.size(), 1u);  // the negative entry is not tied to any RLOC
  // A second purge finds nothing: entries must not linger half-removed.
  EXPECT_EQ(cache.invalidate_rloc(*Ipv4Address::parse("10.0.0.2")), 0u);
  EXPECT_EQ(cache.lookup(eid("10.1.0.1"), at_s(1)), nullptr);
  EXPECT_EQ(cache.lookup(eid("10.1.0.2"), at_s(1)), nullptr);
}

TEST(MapCache, InvalidateRlocSurvivesRepeatedFlapCycles) {
  // Models an RLOC flapping repeatedly: purge, re-learn, purge again. Every
  // cycle must behave identically — no stale entries reappear and counts
  // stay exact.
  MapCache cache;
  const auto rloc_addr = *Ipv4Address::parse("10.0.0.2");
  for (int cycle = 0; cycle < 5; ++cycle) {
    cache.install(eid("10.1.0.1"), reply("10.0.0.2"), at_s(cycle * 10));
    cache.install(eid("10.1.0.2"), reply("10.0.0.9"), at_s(cycle * 10));
    EXPECT_EQ(cache.invalidate_rloc(rloc_addr), 1u) << "cycle " << cycle;
    EXPECT_EQ(cache.lookup(eid("10.1.0.1"), at_s(cycle * 10 + 1)), nullptr);
    ASSERT_NE(cache.lookup(eid("10.1.0.2"), at_s(cycle * 10 + 1)), nullptr);
  }
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.positive_size(), 1u);
}

TEST(MapCache, SweepRemovesExpired) {
  MapCache cache;
  cache.install(eid("10.1.0.1"), reply("10.0.0.2", 10), at_s(0));
  cache.install(eid("10.1.0.2"), reply("10.0.0.2", 1000), at_s(0));
  EXPECT_EQ(cache.sweep(at_s(100)), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(MapCache, InstallFromNotifyUpdatesLocation) {
  MapCache cache;
  cache.install(eid("10.1.0.5"), reply("10.0.0.2"), at_s(0));
  cache.install(eid("10.1.0.5"), {Rloc{*Ipv4Address::parse("10.0.0.7")}}, 600, at_s(5));
  const auto* entry = cache.lookup(eid("10.1.0.5"), at_s(6));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->primary_rloc(), *Ipv4Address::parse("10.0.0.7"));
}

TEST(MapCache, ClearDropsEverything) {
  MapCache cache;
  cache.install(eid("10.1.0.1"), reply("10.0.0.2"), at_s(0));
  cache.install(eid("10.1.0.2"), negative_reply(), at_s(0));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.positive_size(), 0u);
}

TEST(MapCache, WalkVisitsAll) {
  MapCache cache;
  cache.install(eid("10.1.0.1"), reply("10.0.0.2"), at_s(0));
  cache.install(eid("10.1.0.2"), reply("10.0.0.3"), at_s(0));
  int count = 0;
  cache.walk([&](const VnEid&, const MapCacheEntry&) { ++count; });
  EXPECT_EQ(count, 2);
}

TEST(MapCache, WalkVisitsMruFirst) {
  // The walk order is part of the contract (probe sweeps and inspect dumps
  // rely on recency order): most recently used first.
  MapCache cache;
  cache.install(eid("10.1.0.1"), reply("10.0.0.2"), at_s(0));
  cache.install(eid("10.1.0.2"), reply("10.0.0.3"), at_s(0));
  cache.install(eid("10.1.0.3"), reply("10.0.0.4"), at_s(0));
  // Touch .1: it becomes MRU ahead of .3 and .2.
  EXPECT_NE(cache.lookup(eid("10.1.0.1"), at_s(1)), nullptr);
  std::vector<VnEid> order;
  cache.walk([&](const VnEid& key, const MapCacheEntry&) { order.push_back(key); });
  EXPECT_EQ(order,
            (std::vector<VnEid>{eid("10.1.0.1"), eid("10.1.0.3"), eid("10.1.0.2")}));
}

TEST(MapCache, SlotReuseChurnStaysConsistent) {
  // Hammer install/invalidate cycles through the free list: recycled slots
  // must never leak stale links into the LRU chain or the counters.
  MapCache cache{4};
  for (int cycle = 0; cycle < 200; ++cycle) {
    const auto key =
        VnEid{VnId{1}, Eid{Ipv4Address{0x0A010000u + static_cast<std::uint32_t>(cycle % 8)}}};
    cache.install(key, reply("10.0.0.2"), at_s(cycle));
    if (cycle % 3 == 0) cache.invalidate(key);
    EXPECT_LE(cache.size(), 4u);
    EXPECT_LE(cache.positive_size(), cache.size());
  }
  std::size_t walked = 0;
  cache.walk([&](const VnEid&, const MapCacheEntry&) { ++walked; });
  EXPECT_EQ(walked, cache.size());
}

TEST(MapCache, GroupTagCarriedFromReply) {
  MapCache cache;
  MapReply r = reply("10.0.0.2");
  r.group = 77;
  cache.install(eid("10.1.0.5"), r, at_s(0));
  EXPECT_EQ(cache.lookup(eid("10.1.0.5"), at_s(1))->group, net::GroupId{77});
}

TEST(MapCache, ZeroOneAndThreeLocators) {
  MapCache cache;
  cache.install(eid("10.1.0.1"), reply_with({}), at_s(0));
  cache.install(eid("10.1.0.2"), reply_with({loc("10.0.0.2")}), at_s(0));
  cache.install(eid("10.1.0.3"),
                reply_with({loc("10.0.0.3"), loc("10.0.0.4", 2), loc("10.0.0.5", 3)}), at_s(0));
  const MapCacheEntry* none = cache.lookup(eid("10.1.0.1"), at_s(1));
  ASSERT_NE(none, nullptr);
  EXPECT_TRUE(none->negative());
  EXPECT_EQ(none->primary_rloc(), Ipv4Address{});
  const MapCacheEntry* one = cache.lookup(eid("10.1.0.2"), at_s(1));
  ASSERT_NE(one, nullptr);
  EXPECT_FALSE(one->negative());
  EXPECT_EQ(one->primary_rloc(), *Ipv4Address::parse("10.0.0.2"));
  EXPECT_EQ(one->rlocs.size(), 1u);
  const MapCacheEntry* three = cache.lookup(eid("10.1.0.3"), at_s(1));
  ASSERT_NE(three, nullptr);
  EXPECT_FALSE(three->negative());
  EXPECT_EQ(three->primary_rloc(), *Ipv4Address::parse("10.0.0.3"));
  ASSERT_EQ(three->rlocs.size(), 3u);
  EXPECT_EQ(three->rlocs[2].address, *Ipv4Address::parse("10.0.0.5"));
  EXPECT_EQ(three->rlocs[2].priority, 3);
  EXPECT_EQ(cache.positive_size(), 2u);
}

TEST(MapCache, ReplaceKeepsTheFullNewLocatorSet) {
  MapCache cache;
  cache.install(eid("10.1.0.1"),
                reply_with({loc("10.0.0.3"), loc("10.0.0.4", 2), loc("10.0.0.5", 3)}), at_s(0));
  cache.install(eid("10.1.0.1"), reply_with({loc("10.0.0.7"), loc("10.0.0.8", 2)}), at_s(1));
  const MapCacheEntry* entry = cache.lookup(eid("10.1.0.1"), at_s(2));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->primary_rloc(), *Ipv4Address::parse("10.0.0.7"));
  ASSERT_EQ(entry->rlocs.size(), 2u);
  EXPECT_EQ(entry->rlocs[0].address, *Ipv4Address::parse("10.0.0.7"));
  EXPECT_EQ(entry->rlocs[1].address, *Ipv4Address::parse("10.0.0.8"));
  // A negative replace clears the primary with the set.
  cache.install(eid("10.1.0.1"), negative_reply(), at_s(3));
  entry = cache.lookup(eid("10.1.0.1"), at_s(4));
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->negative());
  EXPECT_EQ(entry->primary_rloc(), Ipv4Address{});
  EXPECT_EQ(cache.positive_size(), 0u);
  // And a positive one (Map-Notify) restores both.
  cache.install(eid("10.1.0.1"), {loc("10.0.0.9"), loc("10.0.0.3", 2)}, 600, at_s(5));
  entry = cache.lookup(eid("10.1.0.1"), at_s(6));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->primary_rloc(), *Ipv4Address::parse("10.0.0.9"));
  EXPECT_EQ(entry->rlocs.size(), 2u);
  EXPECT_EQ(cache.positive_size(), 1u);
}

TEST(MapCache, InvalidateRlocMatchesOnlyThePrimary) {
  MapCache cache;
  cache.install(eid("10.1.0.1"), reply_with({loc("10.0.0.2"), loc("10.0.0.9", 2)}), at_s(0));
  cache.install(eid("10.1.0.2"), reply_with({loc("10.0.0.9"), loc("10.0.0.2", 2)}), at_s(0));
  cache.install(eid("10.1.0.3"),
                reply_with({loc("10.0.0.2"), loc("10.0.0.4", 2), loc("10.0.0.5", 3)}), at_s(0));
  // 10.0.0.2 is the primary of .1 and .3, and only a backup of .2.
  EXPECT_EQ(cache.invalidate_rloc(*Ipv4Address::parse("10.0.0.2")), 2u);
  EXPECT_EQ(cache.lookup(eid("10.1.0.1"), at_s(1)), nullptr);
  EXPECT_EQ(cache.lookup(eid("10.1.0.3"), at_s(1)), nullptr);
  const MapCacheEntry* kept = cache.lookup(eid("10.1.0.2"), at_s(1));
  ASSERT_NE(kept, nullptr);
  EXPECT_EQ(kept->primary_rloc(), *Ipv4Address::parse("10.0.0.9"));
  EXPECT_EQ(cache.positive_size(), 1u);
}

TEST(MapCache, ReinstallReusesTheLocatorBuffer) {
  // A bounded cache at capacity: an install takes the slot the previous
  // install's eviction freed, locator buffer included.
  MapCache cache{1};
  cache.install(eid("10.1.0.1"),
                reply_with({loc("10.0.0.3"), loc("10.0.0.4", 2), loc("10.0.0.5", 3)}), at_s(0));
  const Rloc* buffer = cache.lookup(eid("10.1.0.1"), at_s(1))->rlocs.data();
  cache.install(eid("10.1.0.2"), reply("10.0.0.6"), at_s(2));  // evicts .1
  cache.install(eid("10.1.0.3"), reply_with({loc("10.0.0.7"), loc("10.0.0.8", 2)}), at_s(3));
  EXPECT_EQ(cache.stats().evictions, 2u);
  const MapCacheEntry* entry = cache.lookup(eid("10.1.0.3"), at_s(4));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->rlocs.data(), buffer);
  EXPECT_EQ(entry->primary_rloc(), *Ipv4Address::parse("10.0.0.7"));
  EXPECT_EQ(entry->rlocs.size(), 2u);
}

}  // namespace
}  // namespace sda::lisp
