// Property test: the map cache against a brute-force reference model —
// TTL expiry, LRU eviction order, capacity bound, and positive-entry
// accounting must agree under a random operation mix.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>

#include "lisp/map_cache.hpp"
#include "sim/random.hpp"

namespace sda::lisp {
namespace {

using net::Eid;
using net::Ipv4Address;
using net::Rloc;
using net::VnEid;
using net::VnId;

VnEid eid_of(std::uint32_t i) { return VnEid{VnId{1}, Eid{Ipv4Address{0x0A000000u + i}}}; }

/// Brute-force reference: a recency-ordered list with TTLs.
struct ReferenceCache {
  struct Entry {
    VnEid eid;
    bool negative;
    Ipv4Address rloc;
    sim::SimTime expires;
  };
  std::size_t capacity;
  std::list<Entry> recency;  // front = most recent

  Entry* find(const VnEid& eid) {
    for (auto& e : recency) {
      if (e.eid == eid) return &e;
    }
    return nullptr;
  }

  const Entry* lookup(const VnEid& eid, sim::SimTime now) {
    for (auto it = recency.begin(); it != recency.end(); ++it) {
      if (it->eid != eid) continue;
      if (it->expires <= now) {
        recency.erase(it);
        return nullptr;
      }
      recency.splice(recency.begin(), recency, it);
      return &recency.front();
    }
    return nullptr;
  }

  void install(const VnEid& eid, bool negative, Ipv4Address rloc, sim::SimTime expires) {
    for (auto it = recency.begin(); it != recency.end(); ++it) {
      if (it->eid == eid) {
        recency.erase(it);
        break;
      }
    }
    recency.push_front(Entry{eid, negative, rloc, expires});
    while (capacity != 0 && recency.size() > capacity) recency.pop_back();
  }

  [[nodiscard]] std::size_t positive() const {
    return static_cast<std::size_t>(
        std::count_if(recency.begin(), recency.end(),
                      [](const Entry& e) { return !e.negative; }));
  }
};

struct CacheFuzzCase {
  std::uint64_t seed;
  std::size_t capacity;
  int operations;
};

// Test names carry this printout; gtest's default dumps the raw bytes,
// padding included, which differ from one test discovery to the next.
void PrintTo(const CacheFuzzCase& c, std::ostream* os) {
  *os << "seed" << c.seed << "_capacity" << c.capacity << "_ops" << c.operations;
}

class MapCacheProperty : public ::testing::TestWithParam<CacheFuzzCase> {};

TEST_P(MapCacheProperty, AgreesWithReferenceModel) {
  const auto param = GetParam();
  sim::Rng rng{param.seed};
  MapCache cache{param.capacity};
  ReferenceCache reference{param.capacity, {}};

  sim::SimTime now;
  for (int op = 0; op < param.operations; ++op) {
    now += sim::Duration{std::chrono::seconds{rng.next_below(20)}};
    const auto eid = eid_of(static_cast<std::uint32_t>(rng.next_below(24)));  // dense keys
    const int roll = static_cast<int>(rng.next_below(11));

    if (roll < 4) {  // install
      MapReply reply;
      reply.eid = eid;
      const bool negative = rng.chance(0.25);
      const auto rloc = Ipv4Address{0xC0A80000u + static_cast<std::uint32_t>(rng.next_below(4))};
      if (!negative) reply.rlocs = {Rloc{rloc}};
      reply.ttl_seconds = static_cast<std::uint32_t>(30 + rng.next_below(300));
      cache.install(eid, reply, now);
      reference.install(eid, negative, rloc, now + std::chrono::seconds{reply.ttl_seconds});
    } else if (roll < 8) {  // lookup
      const MapCacheEntry* got = cache.lookup(eid, now);
      const auto* expected = reference.lookup(eid, now);
      ASSERT_EQ(got != nullptr, expected != nullptr) << "op " << op;
      if (got) {
        EXPECT_EQ(got->negative(), expected->negative);
        if (!got->negative()) {
          EXPECT_EQ(got->primary_rloc(), expected->rloc);
        }
      }
    } else if (roll == 8) {  // invalidate
      const bool a = cache.invalidate(eid);
      bool b = false;
      for (auto it = reference.recency.begin(); it != reference.recency.end(); ++it) {
        if (it->eid == eid) {
          reference.recency.erase(it);
          b = true;
          break;
        }
      }
      EXPECT_EQ(a, b);
    } else if (roll == 9) {  // sweep
      cache.sweep(now);
      reference.recency.remove_if([now](const auto& e) { return e.expires <= now; });
    } else {  // invalidate_rloc (RLOC probe failure purge)
      const auto rloc = Ipv4Address{0xC0A80000u + static_cast<std::uint32_t>(rng.next_below(4))};
      const std::size_t purged = cache.invalidate_rloc(rloc);
      std::size_t expected_purged = 0;
      reference.recency.remove_if([rloc, &expected_purged](const auto& e) {
        if (e.negative || e.rloc != rloc) return false;
        ++expected_purged;
        return true;
      });
      EXPECT_EQ(purged, expected_purged) << "op " << op;
    }

    ASSERT_EQ(cache.size(), reference.recency.size()) << "op " << op;
    ASSERT_EQ(cache.positive_size(), reference.positive()) << "op " << op;
    if (param.capacity != 0) {
      ASSERT_LE(cache.size(), param.capacity);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomWorkloads, MapCacheProperty,
                         ::testing::Values(CacheFuzzCase{1, 0, 3000},
                                           CacheFuzzCase{2, 8, 3000},
                                           CacheFuzzCase{3, 4, 3000},
                                           CacheFuzzCase{4, 16, 5000},
                                           CacheFuzzCase{5, 1, 2000}));

}  // namespace
}  // namespace sda::lisp
