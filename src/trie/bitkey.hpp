// Fixed-width bit-string keys for Patricia tries.
//
// A BitKey is up to 128 bits of address material plus a significant-bit
// count (prefix length). Bit 0 is the most significant bit of byte 0, i.e.
// the natural network-order interpretation of an address.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <compare>
#include <cstdint>
#include <string>

#include "net/eid.hpp"
#include "net/ip_address.hpp"
#include "net/mac_address.hpp"
#include "net/prefix.hpp"

namespace sda::trie {

class BitKey {
 public:
  static constexpr std::uint16_t kMaxBits = 128;

  constexpr BitKey() = default;

  /// Builds a key from raw network-order bytes. Bits past `prefix_len` are
  /// zeroed so equal prefixes are bitwise equal.
  BitKey(std::span<const std::uint8_t> bytes, std::uint16_t width, std::uint16_t prefix_len);

  [[nodiscard]] static BitKey from_ipv4(net::Ipv4Address a, std::uint16_t prefix_len = 32);
  [[nodiscard]] static BitKey from_ipv4_prefix(const net::Ipv4Prefix& p);
  [[nodiscard]] static BitKey from_ipv6(const net::Ipv6Address& a, std::uint16_t prefix_len = 128);
  [[nodiscard]] static BitKey from_ipv6_prefix(const net::Ipv6Prefix& p);
  [[nodiscard]] static BitKey from_mac(const net::MacAddress& m);
  [[nodiscard]] static BitKey from_eid(const net::Eid& e);

  /// Total bits of the address family (32, 48 or 128).
  [[nodiscard]] constexpr std::uint16_t width() const { return width_; }
  /// Number of significant (prefix) bits.
  [[nodiscard]] constexpr std::uint16_t prefix_len() const { return prefix_len_; }
  /// True when every bit of the family is significant (a host key).
  [[nodiscard]] constexpr bool is_host() const { return prefix_len_ == width_; }

  /// The i-th bit (0 = MSB). `i` must be < width().
  [[nodiscard]] bool bit(std::uint16_t i) const {
    return (bytes_[i >> 3] >> (7 - (i & 7))) & 1;
  }

  /// Length of the longest common prefix with `other`, capped at
  /// min(prefix_len(), other.prefix_len()): the 128 bits compare as two
  /// big-endian words, one XOR and one leading-zero count each.
  [[nodiscard]] std::uint16_t common_prefix_len(const BitKey& other) const {
    const std::uint64_t high = word(0) ^ other.word(0);
    const std::uint64_t low = word(8) ^ other.word(8);
    const int matched = high != 0 ? std::countl_zero(high) : 64 + std::countl_zero(low);
    return static_cast<std::uint16_t>(
        std::min(matched, int{std::min(prefix_len_, other.prefix_len_)}));
  }

  /// True when this prefix covers `other` (other's first prefix_len() bits
  /// equal ours and other is at least as long). Families must match.
  [[nodiscard]] bool contains(const BitKey& other) const;

  /// A copy truncated to `len` bits.
  [[nodiscard]] BitKey truncated(std::uint16_t len) const;

  [[nodiscard]] const std::array<std::uint8_t, 16>& bytes() const { return bytes_; }

  [[nodiscard]] std::string to_string() const;  // hex bits, for diagnostics

  friend auto operator<=>(const BitKey&, const BitKey&) = default;

 private:
  /// Bytes [at, at + 8) as a big-endian word (the compiler folds the loop
  /// into one load and a byte swap).
  [[nodiscard]] std::uint64_t word(std::size_t at) const {
    std::uint64_t w = 0;
    for (std::size_t i = at; i < at + 8; ++i) w = (w << 8) | bytes_[i];
    return w;
  }

  std::array<std::uint8_t, 16> bytes_{};
  std::uint16_t width_ = 0;
  std::uint16_t prefix_len_ = 0;
};

}  // namespace sda::trie

template <>
struct std::hash<sda::trie::BitKey> {
  std::size_t operator()(const sda::trie::BitKey& k) const noexcept {
    std::size_t h = 0xcbf29ce484222325ull ^ (std::size_t{k.width()} << 32) ^ k.prefix_len();
    for (auto b : k.bytes()) h = (h ^ b) * 0x100000001b3ull;
    return h;
  }
};
