// Endpoint identifiers (EIDs) and routing locators (RLOCs).
//
// The routing server indexes endpoints by (VN, EID) where the EID is an
// IPv4 address, an IPv6 address, or — for L2 service support — a MAC
// address. The value side of a mapping is an RLOC: the underlay IPv4
// address of the edge router currently serving the endpoint.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <variant>

#include "net/buffer.hpp"
#include "net/ip_address.hpp"
#include "net/mac_address.hpp"
#include "net/types.hpp"

namespace sda::net {

/// Address family of an EID, matching LISP AFI semantics.
enum class EidFamily : std::uint8_t { Ipv4 = 1, Ipv6 = 2, Mac = 6 };

/// An overlay endpoint identifier: IPv4, IPv6, or MAC address.
class Eid {
 public:
  constexpr Eid() : value_(Ipv4Address{}) {}
  constexpr explicit Eid(Ipv4Address a) : value_(a) {}
  constexpr explicit Eid(Ipv6Address a) : value_(a) {}
  constexpr explicit Eid(MacAddress a) : value_(a) {}

  [[nodiscard]] constexpr EidFamily family() const {
    if (std::holds_alternative<Ipv4Address>(value_)) return EidFamily::Ipv4;
    if (std::holds_alternative<Ipv6Address>(value_)) return EidFamily::Ipv6;
    return EidFamily::Mac;
  }

  [[nodiscard]] constexpr bool is_ipv4() const { return family() == EidFamily::Ipv4; }
  [[nodiscard]] constexpr bool is_ipv6() const { return family() == EidFamily::Ipv6; }
  [[nodiscard]] constexpr bool is_mac() const { return family() == EidFamily::Mac; }

  [[nodiscard]] constexpr Ipv4Address ipv4() const { return std::get<Ipv4Address>(value_); }
  [[nodiscard]] constexpr const Ipv6Address& ipv6() const { return std::get<Ipv6Address>(value_); }
  [[nodiscard]] constexpr const MacAddress& mac() const { return std::get<MacAddress>(value_); }

  /// Bit width of this EID family's key (32 / 128 / 48).
  [[nodiscard]] constexpr std::uint16_t bit_width() const {
    switch (family()) {
      case EidFamily::Ipv4: return 32;
      case EidFamily::Ipv6: return 128;
      case EidFamily::Mac: return 48;
    }
    return 0;
  }

  [[nodiscard]] std::string to_string() const;

  /// Wire form: family byte followed by the address bytes.
  void encode(ByteWriter& w) const;
  [[nodiscard]] static std::optional<Eid> decode(ByteReader& r);

  friend constexpr auto operator<=>(const Eid&, const Eid&) = default;

 private:
  std::variant<Ipv4Address, Ipv6Address, MacAddress> value_;
};

/// A routing locator: the underlay address of an edge/border router, with
/// LISP-style priority/weight for multihoming.
struct Rloc {
  Ipv4Address address;
  std::uint8_t priority = 1;  // lower preferred
  std::uint8_t weight = 100;  // load-balance share among equal priority

  [[nodiscard]] std::string to_string() const { return address.to_string(); }

  void encode(ByteWriter& w) const {
    w.write_array(address.bytes());
    w.write_u8(priority);
    w.write_u8(weight);
  }
  [[nodiscard]] static std::optional<Rloc> decode(ByteReader& r) {
    const auto bytes = r.read_array<4>();
    const auto priority = r.read_u8();
    const auto weight = r.read_u8();
    if (!bytes || !priority || !weight) return std::nullopt;
    return Rloc{Ipv4Address::from_bytes(*bytes), *priority, *weight};
  }

  friend constexpr auto operator<=>(const Rloc&, const Rloc&) = default;
};

/// A fully-qualified EID: the (VN, EID) pair the routing server keys on.
struct VnEid {
  VnId vn;
  Eid eid;

  [[nodiscard]] std::string to_string() const { return vn.to_string() + "/" + eid.to_string(); }

  void encode(ByteWriter& w) const {
    w.write_u24(vn.value());
    eid.encode(w);
  }
  [[nodiscard]] static std::optional<VnEid> decode(ByteReader& r) {
    const auto vn = r.read_u24();
    if (!vn) return std::nullopt;
    auto eid = Eid::decode(r);
    if (!eid) return std::nullopt;
    return VnEid{VnId{*vn}, *eid};
  }

  friend constexpr auto operator<=>(const VnEid&, const VnEid&) = default;
};

/// 64-bit avalanche (splitmix64 finalizer): every input bit flips each
/// output bit with ~1/2 probability, so nearby keys land in distant buckets.
constexpr std::size_t hash_mix(std::size_t x) noexcept {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

/// Order-sensitive combiner (boost-style, 64-bit constants). The previous
/// `hash(vn) ^ (hash(eid) << 1)` collided systematically: both operands were
/// structured multiplies, so related (VN, EID) pairs cancelled each other.
constexpr std::size_t hash_combine(std::size_t seed, std::size_t value) noexcept {
  return seed ^ (hash_mix(value) + 0x9E3779B97F4A7C15ull + (seed << 6) + (seed >> 2));
}

/// One-mix hasher for the flat (VN, EID) tables on the packet path (the
/// VRF, the map-cache index, the edge's per-EID tables). It packs the VN,
/// the family and the address (IPv6 folds its two halves) into one word and
/// avalanches it once, where std::hash<VnEid> chains two hash_combine
/// steps, each a full mix. Only for tables never iterated in hash order:
/// std::hash<VnEid> orders unordered containers whose iteration feeds the
/// simulation, and stays as it is.
struct VnEidHash {
  std::size_t operator()(const VnEid& v) const noexcept {
    std::uint64_t address = 0;
    switch (v.eid.family()) {
      case EidFamily::Ipv4: address = v.eid.ipv4().value(); break;
      case EidFamily::Mac: address = v.eid.mac().to_u64(); break;
      case EidFamily::Ipv6: {
        const auto& bytes = v.eid.ipv6().bytes();
        std::uint64_t high = 0;
        std::uint64_t low = 0;
        for (std::size_t i = 0; i < 8; ++i) {
          high = (high << 8) | bytes[i];
          low = (low << 8) | bytes[i + 8];
        }
        address = high ^ (low * 0xC2B2AE3D27D4EB4Full);
        break;
      }
    }
    // (VN, family) scaled by an odd constant: distinct tags land far apart
    // for any two addresses under 2^48.
    const std::uint64_t tag = (std::uint64_t{v.vn.value()} << 3) |
                              static_cast<std::uint64_t>(v.eid.family());
    return hash_mix(address + tag * 0x9E3779B97F4A7C15ull);
  }
};

}  // namespace sda::net

template <>
struct std::hash<sda::net::Eid> {
  std::size_t operator()(const sda::net::Eid& e) const noexcept {
    const std::size_t family = static_cast<std::size_t>(e.family());
    switch (e.family()) {
      case sda::net::EidFamily::Ipv4:
        return sda::net::hash_combine(family, std::hash<sda::net::Ipv4Address>{}(e.ipv4()));
      case sda::net::EidFamily::Ipv6:
        return sda::net::hash_combine(family, std::hash<sda::net::Ipv6Address>{}(e.ipv6()));
      case sda::net::EidFamily::Mac:
        return sda::net::hash_combine(family, std::hash<sda::net::MacAddress>{}(e.mac()));
    }
    return sda::net::hash_mix(family);
  }
};

template <>
struct std::hash<sda::net::VnEid> {
  std::size_t operator()(const sda::net::VnEid& v) const noexcept {
    return sda::net::hash_combine(std::size_t{v.vn.value()},
                                  std::hash<sda::net::Eid>{}(v.eid));
  }
};
