// FlatIndex / FlatMap against a std::unordered_map reference model.
//
// The hashers are deliberately weak, so every structural case the table
// has is exercised on every seed: long probe clusters, distinct keys with
// equal stored hashes (the key compare must still decide), clusters that
// wrap around the end of the table (backward-shift erase across the
// wrap), and growth rehash from the stored hashes alone.
#include "lisp/flat_index.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/eid.hpp"
#include "sim/random.hpp"

namespace sda::lisp {
namespace {

/// Eight distinct hashes in all, each just below 2^32: keys crowd into
/// the last home positions of any table size and wrap round to its start.
struct WrapHash {
  std::size_t operator()(std::uint64_t key) const noexcept { return 0xFFFFFFFFull - key % 8; }
};

/// Distinct full hashes whose low 32 bits, the part the index stores,
/// collide in pairs: the stored hash alone cannot tell these keys apart.
struct TruncatedHash {
  std::size_t operator()(std::uint64_t key) const noexcept {
    return (std::size_t{key} << 32) | (key / 2 % 16);
  }
};

template <typename Hash>
void run_against_model(std::uint64_t seed) {
  sim::Rng rng{seed};
  FlatMap<std::uint64_t, std::uint64_t, Hash> table;
  std::unordered_map<std::uint64_t, std::uint64_t> model;
  constexpr std::uint64_t kKeys = 400;  // enough live keys to force growth

  const auto check_all = [&] {
    ASSERT_EQ(table.size(), model.size());
    for (std::uint64_t key = 0; key < kKeys; ++key) {
      const std::uint64_t* found = table.find(key);
      const auto it = model.find(key);
      if (it == model.end()) {
        ASSERT_EQ(found, nullptr) << "key " << key;
      } else {
        ASSERT_NE(found, nullptr) << "key " << key;
        ASSERT_EQ(*found, it->second) << "key " << key;
      }
    }
    std::size_t visited = 0;
    table.for_each([&](std::uint64_t key, std::uint64_t value) {
      ++visited;
      ASSERT_EQ(model.at(key), value);
    });
    ASSERT_EQ(visited, model.size());
  };

  for (int op = 0; op < 4000; ++op) {
    // Insert-heavy for the first half (growth), erase-heavy after (churn).
    const std::uint64_t key = rng.next_below(kKeys);
    const std::uint64_t roll = rng.next_below(100);
    const std::uint64_t insert_share = op < 2000 ? 55 : 35;
    if (roll < insert_share) {
      if (roll % 2 == 0) {  // the one-probe upsert
        const auto [value, inserted] = table.find_or_insert_reused(key);
        ASSERT_EQ(inserted, !model.contains(key)) << "op " << op;
        *value = static_cast<std::uint64_t>(op);
        model[key] = static_cast<std::uint64_t>(op);
      } else if (model.contains(key)) {
        *table.find(key) = static_cast<std::uint64_t>(op);  // a hit is writable in place
        model[key] = static_cast<std::uint64_t>(op);
      } else {
        table.insert(key, static_cast<std::uint64_t>(op));
        model.emplace(key, static_cast<std::uint64_t>(op));
      }
    } else if (roll < 90) {
      if (roll % 2 == 0) {  // erase that hands back the value
        const std::uint64_t* taken = table.take(key);
        const auto it = model.find(key);
        ASSERT_EQ(taken != nullptr, it != model.end()) << "op " << op;
        if (taken != nullptr) {
          ASSERT_EQ(*taken, it->second);
          model.erase(it);
        }
      } else {
        ASSERT_EQ(table.erase(key), model.erase(key) == 1) << "op " << op;
      }
    } else if (roll < 99) {
      const std::uint64_t* found = table.find(key);
      const auto it = model.find(key);
      ASSERT_EQ(found != nullptr, it != model.end()) << "op " << op;
      if (found != nullptr) {
        ASSERT_EQ(*found, it->second);
      }
    } else {
      // Bulk erase, as the SGACL drops a destination group's rules.
      const std::uint64_t residue = rng.next_below(7);
      table.erase_if([&](std::uint64_t k, std::uint64_t) { return k % 7 == residue; });
      std::erase_if(model, [&](const auto& entry) { return entry.first % 7 == residue; });
    }
    if (op % 97 == 0) check_all();
  }
  check_all();
  table.clear();
  model.clear();
  check_all();
}

TEST(FlatIndex, MatchesModelWithWrappingClusters) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_against_model<WrapHash>(seed);
    if (HasFatalFailure()) return;
  }
}

TEST(FlatIndex, MatchesModelWhenStoredHashesCollide) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_against_model<TruncatedHash>(seed);
    if (HasFatalFailure()) return;
  }
}

TEST(FlatIndex, MatchesModelWithVnEidHasher) {
  // The one-mix hasher the packet path uses, on a (VN, EID) key space that
  // mixes families, so the same address bits recur under distinct tags.
  sim::Rng rng{20261016};
  FlatMap<net::VnEid, int, net::VnEidHash> table;
  std::unordered_map<net::VnEid, int> model;
  const auto key_of = [](std::uint64_t k) {
    const net::VnId vn{static_cast<std::uint32_t>(k % 3)};
    switch (k / 3 % 3) {
      case 0: return net::VnEid{vn, net::Eid{net::Ipv4Address{static_cast<std::uint32_t>(k)}}};
      case 1: return net::VnEid{vn, net::Eid{net::MacAddress::from_u64(k)}};
      default: {
        net::Ipv6Address::Bytes bytes{};
        bytes[7] = static_cast<std::uint8_t>(k);
        bytes[15] = static_cast<std::uint8_t>(k >> 8);
        return net::VnEid{vn, net::Eid{net::Ipv6Address{bytes}}};
      }
    }
  };
  for (int op = 0; op < 4000; ++op) {
    const net::VnEid key = key_of(rng.next_below(600));
    if (rng.chance(0.5)) {
      if (!model.contains(key)) {
        table.insert(key, op);
        model.emplace(key, op);
      }
    } else {
      ASSERT_EQ(table.erase(key), model.erase(key) == 1);
    }
  }
  ASSERT_EQ(table.size(), model.size());
  for (std::uint64_t k = 0; k < 600; ++k) {
    const net::VnEid key = key_of(k);
    const int* found = table.find(key);
    const auto it = model.find(key);
    ASSERT_EQ(found != nullptr, it != model.end()) << key.to_string();
    if (found != nullptr) {
      EXPECT_EQ(*found, it->second);
    }
  }
}

TEST(FlatIndex, ReserveThenInsertNeedsNoKeys) {
  // insert() and reserve() place entries by stored hash alone; only find
  // and erase read keys back.
  std::vector<std::uint64_t> keys;
  FlatIndex<std::uint64_t, WrapHash> index;
  index.reserve(64);
  const auto key_of = [&keys](std::uint32_t slot) -> const std::uint64_t& { return keys[slot]; };
  for (std::uint64_t k = 0; k < 200; ++k) {
    keys.push_back(k * 3);
    index.insert(k * 3, static_cast<std::uint32_t>(k));
  }
  EXPECT_EQ(index.size(), 200u);
  for (std::uint64_t k = 0; k < 200; ++k) {
    EXPECT_EQ(index.find(k * 3, key_of), k);
    EXPECT_EQ(index.find(k * 3 + 1, key_of), FlatIndex<std::uint64_t>::kNone);
  }
  for (std::uint64_t k = 0; k < 200; k += 2) EXPECT_EQ(index.erase(k * 3, key_of), k);
  for (std::uint64_t k = 0; k < 200; ++k) {
    EXPECT_EQ(index.find(k * 3, key_of), k % 2 == 0 ? FlatIndex<std::uint64_t>::kNone : k);
  }
}

}  // namespace
}  // namespace sda::lisp
