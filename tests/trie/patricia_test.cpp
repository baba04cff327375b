#include "trie/patricia.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "sim/random.hpp"

namespace sda::trie {
namespace {

using net::Ipv4Address;
using net::Ipv4Prefix;

BitKey host(const char* ip) { return BitKey::from_ipv4(*Ipv4Address::parse(ip)); }
BitKey pfx(const char* cidr) { return BitKey::from_ipv4_prefix(*Ipv4Prefix::parse(cidr)); }

TEST(PatriciaTrie, EmptyBehaviour) {
  PatriciaTrie<int> trie;
  EXPECT_TRUE(trie.empty());
  EXPECT_EQ(trie.find_exact(host("10.0.0.1")), nullptr);
  EXPECT_FALSE(trie.longest_match(host("10.0.0.1")).has_value());
  EXPECT_FALSE(trie.erase(host("10.0.0.1")));
}

TEST(PatriciaTrie, InsertAndExactMatch) {
  PatriciaTrie<int> trie;
  EXPECT_TRUE(trie.insert(host("10.0.0.1"), 1));
  EXPECT_TRUE(trie.insert(host("10.0.0.2"), 2));
  EXPECT_EQ(trie.size(), 2u);
  ASSERT_NE(trie.find_exact(host("10.0.0.1")), nullptr);
  EXPECT_EQ(*trie.find_exact(host("10.0.0.1")), 1);
  EXPECT_EQ(*trie.find_exact(host("10.0.0.2")), 2);
  EXPECT_EQ(trie.find_exact(host("10.0.0.3")), nullptr);
}

TEST(PatriciaTrie, InsertReplacesValue) {
  PatriciaTrie<int> trie;
  EXPECT_TRUE(trie.insert(host("10.0.0.1"), 1));
  EXPECT_FALSE(trie.insert(host("10.0.0.1"), 9));
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_EQ(*trie.find_exact(host("10.0.0.1")), 9);
}

TEST(PatriciaTrie, PrefixAndHostCoexist) {
  PatriciaTrie<int> trie;
  trie.insert(pfx("10.0.0.0/8"), 8);
  trie.insert(pfx("10.1.0.0/16"), 16);
  trie.insert(host("10.1.2.3"), 32);
  EXPECT_EQ(*trie.find_exact(pfx("10.0.0.0/8")), 8);
  EXPECT_EQ(*trie.find_exact(pfx("10.1.0.0/16")), 16);
  EXPECT_EQ(*trie.find_exact(host("10.1.2.3")), 32);
  // Same bits, different length: distinct entries.
  EXPECT_EQ(trie.find_exact(pfx("10.0.0.0/9")), nullptr);
}

TEST(PatriciaTrie, LongestMatchPicksMostSpecific) {
  PatriciaTrie<int> trie;
  trie.insert(pfx("0.0.0.0/0"), 0);
  trie.insert(pfx("10.0.0.0/8"), 8);
  trie.insert(pfx("10.1.0.0/16"), 16);
  trie.insert(host("10.1.2.3"), 32);

  EXPECT_EQ(*trie.longest_match(host("10.1.2.3"))->second, 32);
  EXPECT_EQ(*trie.longest_match(host("10.1.9.9"))->second, 16);
  EXPECT_EQ(*trie.longest_match(host("10.200.0.1"))->second, 8);
  EXPECT_EQ(*trie.longest_match(host("192.168.0.1"))->second, 0);
}

TEST(PatriciaTrie, LongestMatchReturnsCoveringPrefixKey) {
  PatriciaTrie<int> trie;
  trie.insert(pfx("10.1.0.0/16"), 16);
  const auto match = trie.longest_match(host("10.1.42.42"));
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->first, pfx("10.1.0.0/16"));
}

TEST(PatriciaTrie, NoMatchWithoutDefaultRoute) {
  PatriciaTrie<int> trie;
  trie.insert(pfx("10.0.0.0/8"), 8);
  EXPECT_FALSE(trie.longest_match(host("192.168.0.1")).has_value());
}

TEST(PatriciaTrie, EraseLeafAndCollapse) {
  PatriciaTrie<int> trie;
  trie.insert(host("10.0.0.1"), 1);
  trie.insert(host("10.0.0.2"), 2);
  trie.insert(host("10.0.0.3"), 3);
  EXPECT_TRUE(trie.erase(host("10.0.0.2")));
  EXPECT_EQ(trie.size(), 2u);
  EXPECT_EQ(trie.find_exact(host("10.0.0.2")), nullptr);
  EXPECT_EQ(*trie.find_exact(host("10.0.0.1")), 1);
  EXPECT_EQ(*trie.find_exact(host("10.0.0.3")), 3);
  EXPECT_FALSE(trie.erase(host("10.0.0.2")));
}

TEST(PatriciaTrie, EraseInternalValueKeepsChildren) {
  PatriciaTrie<int> trie;
  trie.insert(pfx("10.0.0.0/8"), 8);
  trie.insert(host("10.0.0.1"), 1);
  trie.insert(host("10.0.0.2"), 2);
  EXPECT_TRUE(trie.erase(pfx("10.0.0.0/8")));
  EXPECT_EQ(trie.size(), 2u);
  EXPECT_EQ(*trie.find_exact(host("10.0.0.1")), 1);
  EXPECT_FALSE(trie.longest_match(host("10.9.9.9")).has_value());
}

TEST(PatriciaTrie, WalkVisitsInKeyOrder) {
  PatriciaTrie<int> trie;
  trie.insert(host("10.0.0.9"), 9);
  trie.insert(host("10.0.0.1"), 1);
  trie.insert(pfx("10.0.0.0/24"), 24);
  trie.insert(host("10.0.0.5"), 5);
  std::vector<int> seen;
  trie.walk([&](const BitKey&, const int& v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<int>{24, 1, 5, 9}));  // prefix first, then hosts ascending
}

TEST(PatriciaTrie, EraseIf) {
  PatriciaTrie<int> trie;
  for (int i = 0; i < 10; ++i) {
    trie.insert(host(("10.0.0." + std::to_string(i)).c_str()), i);
  }
  const std::size_t removed = trie.erase_if([](const BitKey&, const int& v) { return v % 2 == 0; });
  EXPECT_EQ(removed, 5u);
  EXPECT_EQ(trie.size(), 5u);
  EXPECT_EQ(trie.find_exact(host("10.0.0.4")), nullptr);
  EXPECT_NE(trie.find_exact(host("10.0.0.5")), nullptr);
}

TEST(PatriciaTrie, ClearAndReuse) {
  PatriciaTrie<int> trie;
  for (int i = 0; i < 100; ++i) trie.insert(host(("10.1.0." + std::to_string(i)).c_str()), i);
  trie.clear();
  EXPECT_TRUE(trie.empty());
  EXPECT_TRUE(trie.insert(host("10.0.0.1"), 1));
  EXPECT_EQ(trie.size(), 1u);
}

TEST(PatriciaTrie, MoveSemantics) {
  PatriciaTrie<int> a;
  a.insert(host("10.0.0.1"), 1);
  PatriciaTrie<int> b = std::move(a);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_NE(b.find_exact(host("10.0.0.1")), nullptr);
}

// Property test: the trie must agree with a reference std::map on a random
// workload of inserts, erases, exact lookups, LPM queries and walks, for
// every key family. BitKey's ordering (canonical bytes, then length) is the
// trie's walk order: a prefix before its extensions, 0-branch before 1.
struct TrieFuzzCase {
  std::uint64_t seed;
  int operations;
  std::uint16_t width = 32;  // 32 (IPv4), 128 (IPv6) or 48 (MAC)
};

// Test names carry this printout; gtest's default dumps the raw bytes,
// padding included, which differ from one test discovery to the next.
void PrintTo(const TrieFuzzCase& c, std::ostream* os) {
  if (c.width == 128) *os << "v6_";
  if (c.width == 48) *os << "mac_";
  *os << "seed" << c.seed << "_ops" << c.operations;
}

/// A key in a concentrated space, so keys share prefixes and force splits:
/// 12 random bits, for IPv6 spread over both 64-bit halves.
BitKey random_key(sim::Rng& rng, std::uint16_t width, std::uint16_t len) {
  std::array<std::uint8_t, 16> bytes{};
  const auto r = static_cast<std::uint32_t>(rng.next_below(1 << 12));
  if (width == 32) {
    bytes = {10, 0, static_cast<std::uint8_t>(r >> 8), static_cast<std::uint8_t>(r)};
  } else if (width == 48) {
    bytes = {0x02, 0, 0, 0, static_cast<std::uint8_t>(r >> 8), static_cast<std::uint8_t>(r)};
  } else {
    bytes[0] = 0xfd;
    bytes[7] = static_cast<std::uint8_t>(r >> 8);  // bits 60-63: the high word
    bytes[15] = static_cast<std::uint8_t>(r);      // bits 120-127: the low word
  }
  return BitKey{bytes, width, len};
}

/// Whether `prefix` covers `probe`, bit by bit (independent of the trie's
/// word compare).
bool covers(const BitKey& prefix, const BitKey& probe) {
  if (prefix.prefix_len() > probe.prefix_len()) return false;
  for (std::uint16_t i = 0; i < prefix.prefix_len(); ++i) {
    if (prefix.bit(i) != probe.bit(i)) return false;
  }
  return true;
}

class PatriciaFuzz : public ::testing::TestWithParam<TrieFuzzCase> {};

TEST_P(PatriciaFuzz, AgreesWithReferenceModel) {
  const std::uint16_t width = GetParam().width;
  sim::Rng rng{GetParam().seed};
  PatriciaTrie<int> trie;
  std::map<BitKey, int> reference;
  std::size_t peak = 0;

  const auto key_length = [&] {
    // Nested prefixes from 8 bits up, a third of the time; else a host.
    return rng.chance(0.3) ? static_cast<std::uint16_t>(8 + rng.next_below(width - 8u)) : width;
  };

  for (int op = 0; op < GetParam().operations; ++op) {
    const BitKey key = random_key(rng, width, key_length());
    const int roll = static_cast<int>(rng.next_below(20));

    if (roll < 10) {  // insert
      const int value = static_cast<int>(rng.next_below(1000));
      const bool was_new = trie.insert(key, value);
      EXPECT_EQ(was_new, reference.find(key) == reference.end());
      reference[key] = value;
    } else if (roll < 14) {  // erase
      const bool erased = trie.erase(key);
      EXPECT_EQ(erased, reference.erase(key) > 0);
    } else if (roll < 17) {  // exact lookup
      const int* found = trie.find_exact(key);
      const auto it = reference.find(key);
      if (it == reference.end()) {
        EXPECT_EQ(found, nullptr);
      } else {
        ASSERT_NE(found, nullptr);
        EXPECT_EQ(*found, it->second);
      }
    } else if (roll < 19) {  // longest-prefix match vs brute force
      const BitKey probe = random_key(rng, width, width);
      const BitKey* best = nullptr;
      for (const auto& [k, v] : reference) {
        if (covers(k, probe) && (best == nullptr || k.prefix_len() > best->prefix_len())) {
          best = &k;
        }
      }
      const auto match = trie.longest_match(probe);
      ASSERT_EQ(match.has_value(), best != nullptr);
      if (match) {
        EXPECT_EQ(match->first, *best);
        EXPECT_EQ(*match->second, reference.at(*best));
      }
    } else {  // walk order
      std::vector<std::pair<BitKey, int>> walked;
      trie.walk([&](const BitKey& k, const int& v) { walked.emplace_back(k, v); });
      ASSERT_EQ(walked, (std::vector<std::pair<BitKey, int>>{reference.begin(), reference.end()}));
    }
    ASSERT_EQ(trie.size(), reference.size());
    peak = std::max(peak, reference.size());
  }
  // Every fork has two children, so live nodes stay under twice the live
  // keys, and recycled slots keep the storage at the peak.
  EXPECT_LE(trie.node_slots(), 2 * peak);
}

INSTANTIATE_TEST_SUITE_P(RandomWorkloads, PatriciaFuzz,
                         ::testing::Values(TrieFuzzCase{1, 2000}, TrieFuzzCase{2, 2000},
                                           TrieFuzzCase{3, 5000}, TrieFuzzCase{4, 5000},
                                           TrieFuzzCase{99, 10000}, TrieFuzzCase{5, 5000, 128},
                                           TrieFuzzCase{6, 5000, 128}, TrieFuzzCase{7, 5000, 48},
                                           TrieFuzzCase{8, 5000, 48}));

TEST(PatriciaTrie, DescentEndingOnAnEarlyDivergingLeafFallsBackToTheCoveringPrefix) {
  // 10.2.0.1 follows 10.1.2.3's bits down to that leaf, but leaves its path
  // at bit 14: the answer is the deepest ancestor no longer than that.
  PatriciaTrie<int> trie;
  trie.insert(pfx("10.0.0.0/8"), 8);
  trie.insert(pfx("10.1.0.0/16"), 16);
  trie.insert(host("10.1.2.3"), 32);
  const auto match = trie.longest_match(host("10.2.0.1"));
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->first, pfx("10.0.0.0/8"));
  EXPECT_EQ(*match->second, 8);
  EXPECT_EQ(trie.find_exact(host("10.2.0.1")), nullptr);
}

TEST(PatriciaTrie, NodeStorageStaysBoundedUnderChurn) {
  PatriciaTrie<int> trie;
  sim::Rng rng{7};
  std::vector<std::uint32_t> hosts(256);
  for (std::uint32_t i = 0; i < hosts.size(); ++i) hosts[i] = 0x0A000000u + i * 37;
  for (int round = 0; round < 20; ++round) {
    for (std::size_t i = hosts.size(); i > 1; --i) {  // a fresh insertion order each round
      std::swap(hosts[i - 1], hosts[rng.next_below(i)]);
    }
    for (const std::uint32_t h : hosts) trie.insert(BitKey::from_ipv4(Ipv4Address{h}), 1);
    ASSERT_EQ(trie.size(), hosts.size());
    for (const std::uint32_t h : hosts) ASSERT_TRUE(trie.erase(BitKey::from_ipv4(Ipv4Address{h})));
    ASSERT_TRUE(trie.empty());
  }
  EXPECT_LE(trie.node_slots(), 2 * hosts.size());
}

TEST(PatriciaTrie, HandlesLargeHostPopulation) {
  PatriciaTrie<int> trie;
  for (std::uint32_t i = 0; i < 20000; ++i) {
    trie.insert(BitKey::from_ipv4(Ipv4Address{0x0A000000u + i}), static_cast<int>(i));
  }
  EXPECT_EQ(trie.size(), 20000u);
  for (std::uint32_t i = 0; i < 20000; i += 997) {
    const int* v = trie.find_exact(BitKey::from_ipv4(Ipv4Address{0x0A000000u + i}));
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, static_cast<int>(i));
  }
}

TEST(PatriciaTrie, MacKeyedTrie) {
  PatriciaTrie<int> trie;
  trie.insert(BitKey::from_mac(net::MacAddress::from_u64(0x02AA)), 1);
  trie.insert(BitKey::from_mac(net::MacAddress::from_u64(0x02AB)), 2);
  EXPECT_EQ(*trie.find_exact(BitKey::from_mac(net::MacAddress::from_u64(0x02AB))), 2);
  EXPECT_EQ(trie.find_exact(BitKey::from_mac(net::MacAddress::from_u64(0x02AC))), nullptr);
}

}  // namespace
}  // namespace sda::trie
