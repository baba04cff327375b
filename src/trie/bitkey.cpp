#include "trie/bitkey.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace sda::trie {

BitKey::BitKey(std::span<const std::uint8_t> bytes, std::uint16_t width,
               std::uint16_t prefix_len)
    : width_(width), prefix_len_(std::min(prefix_len, width)) {
  assert(width <= kMaxBits);
  assert(bytes.size() * 8 >= width);
  std::copy_n(bytes.begin(), (width + 7) / 8, bytes_.begin());
  // Zero bits beyond the prefix for canonical equality.
  const std::uint16_t full = prefix_len_ / 8;
  const std::uint16_t rem = prefix_len_ % 8;
  if (full < bytes_.size()) {
    if (rem != 0 && full < 16) {
      bytes_[full] &= static_cast<std::uint8_t>(0xFF << (8 - rem));
      for (std::size_t i = full + 1u; i < bytes_.size(); ++i) bytes_[i] = 0;
    } else {
      for (std::size_t i = full; i < bytes_.size(); ++i) bytes_[i] = 0;
    }
  }
}

BitKey BitKey::from_ipv4(net::Ipv4Address a, std::uint16_t prefix_len) {
  const auto b = a.bytes();
  return BitKey{{b.data(), b.size()}, 32, prefix_len};
}

BitKey BitKey::from_ipv4_prefix(const net::Ipv4Prefix& p) {
  return from_ipv4(p.address(), p.length());
}

BitKey BitKey::from_ipv6(const net::Ipv6Address& a, std::uint16_t prefix_len) {
  const auto& b = a.bytes();
  return BitKey{{b.data(), b.size()}, 128, prefix_len};
}

BitKey BitKey::from_ipv6_prefix(const net::Ipv6Prefix& p) {
  return from_ipv6(p.address(), p.length());
}

BitKey BitKey::from_mac(const net::MacAddress& m) {
  const auto& b = m.bytes();
  return BitKey{{b.data(), b.size()}, 48, 48};
}

BitKey BitKey::from_eid(const net::Eid& e) {
  switch (e.family()) {
    case net::EidFamily::Ipv4: return from_ipv4(e.ipv4());
    case net::EidFamily::Ipv6: return from_ipv6(e.ipv6());
    case net::EidFamily::Mac: return from_mac(e.mac());
  }
  return {};
}

bool BitKey::contains(const BitKey& other) const {
  if (width_ != other.width_ || other.prefix_len_ < prefix_len_) return false;
  return common_prefix_len(other) >= prefix_len_;
}

BitKey BitKey::truncated(std::uint16_t len) const {
  return BitKey{{bytes_.data(), bytes_.size()}, width_, std::min(len, prefix_len_)};
}

std::string BitKey::to_string() const {
  std::string out;
  out.reserve(40);
  char buf[4];
  for (std::uint16_t i = 0; i < (width_ + 7) / 8; ++i) {
    std::snprintf(buf, sizeof(buf), "%02x", bytes_[i]);
    out += buf;
  }
  out += "/" + std::to_string(prefix_len_);
  return out;
}

}  // namespace sda::trie
