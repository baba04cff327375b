#include "trie/patricia.hpp"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <unordered_map>

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
// workload of inserts, erases, exact lookups and LPM queries.
struct TrieFuzzCase {
  std::uint64_t seed;
  int operations;
};

// Test names carry this printout; gtest's default dumps the raw bytes,
// padding included, which differ from one test discovery to the next.
void PrintTo(const TrieFuzzCase& c, std::ostream* os) {
  *os << "seed" << c.seed << "_ops" << c.operations;
}

class PatriciaFuzz : public ::testing::TestWithParam<TrieFuzzCase> {};

TEST_P(PatriciaFuzz, AgreesWithReferenceModel) {
  sim::Rng rng{GetParam().seed};
  PatriciaTrie<int> trie;
  std::map<std::pair<std::uint32_t, std::uint8_t>, int> reference;  // (addr, len) -> value

  auto random_key = [&rng] {
    // Concentrated key space to force shared prefixes and splits.
    const auto addr = static_cast<std::uint32_t>(0x0A000000u | rng.next_below(1 << 12));
    const auto len = static_cast<std::uint8_t>(rng.chance(0.3) ? 8 + rng.next_below(24) : 32);
    return Ipv4Prefix{Ipv4Address{addr}, len};
  };

  for (int op = 0; op < GetParam().operations; ++op) {
    const Ipv4Prefix prefix = random_key();
    const BitKey key = BitKey::from_ipv4_prefix(prefix);
    const auto ref_key = std::make_pair(prefix.address().value(), prefix.length());
    const int roll = static_cast<int>(rng.next_below(10));

    if (roll < 5) {  // insert
      const int value = static_cast<int>(rng.next_below(1000));
      const bool was_new = trie.insert(key, value);
      EXPECT_EQ(was_new, reference.find(ref_key) == reference.end());
      reference[ref_key] = value;
    } else if (roll < 7) {  // erase
      const bool erased = trie.erase(key);
      EXPECT_EQ(erased, reference.erase(ref_key) > 0);
    } else if (roll < 9) {  // exact lookup
      const int* found = trie.find_exact(key);
      const auto it = reference.find(ref_key);
      if (it == reference.end()) {
        EXPECT_EQ(found, nullptr);
      } else {
        ASSERT_NE(found, nullptr);
        EXPECT_EQ(*found, it->second);
      }
    } else {  // longest-prefix match vs brute force
      const auto addr = static_cast<std::uint32_t>(0x0A000000u | rng.next_below(1 << 12));
      const BitKey probe = BitKey::from_ipv4(Ipv4Address{addr});
      std::optional<int> best;
      int best_len = -1;
      for (const auto& [k, v] : reference) {
        const Ipv4Prefix p{Ipv4Address{k.first}, k.second};
        if (p.contains(Ipv4Address{addr}) && k.second > best_len) {
          best = v;
          best_len = k.second;
        }
      }
      const auto match = trie.longest_match(probe);
      EXPECT_EQ(match.has_value(), best.has_value());
      if (match && best) {
        EXPECT_EQ(*match->second, *best);
        EXPECT_EQ(match->first.prefix_len(), best_len);
      }
    }
    ASSERT_EQ(trie.size(), reference.size());
  }
}

INSTANTIATE_TEST_SUITE_P(RandomWorkloads, PatriciaFuzz,
                         ::testing::Values(TrieFuzzCase{1, 2000}, TrieFuzzCase{2, 2000},
                                           TrieFuzzCase{3, 5000}, TrieFuzzCase{4, 5000},
                                           TrieFuzzCase{99, 10000}));

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
