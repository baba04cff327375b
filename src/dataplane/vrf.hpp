// The endpoints attached to one edge router, and its per-VN VRFs over them.
//
// Each attached endpoint is one record in a recycled sim::Slab with dense
// u32 slots, in the flat preallocated per-port state idiom of software NFs:
// no node per endpoint, and a steady population attaches and detaches
// without allocating. Two lisp::FlatIndex views key into the slab:
//   * every identity of an endpoint (IPv4, IPv6 and MAC EID, within its
//     VN) -> slot. This is the VRF of paper Fig. 4: an exact host match on
//     the combined (VN, EID) key yields the record, whose (port, GroupId)
//     feed the egress pipeline's SGACL stage (§5.3). VN isolation is part
//     of the key, not a table of tables;
//   * MAC -> slot, for the access port's side of the edge.
// Both views delete by backward shift, so roaming churn leaves no
// tombstones for later probes to walk past. A slot handed out by install()
// lets a caller that already knows the endpoint reach it without a probe.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "lisp/flat_index.hpp"
#include "net/eid.hpp"
#include "net/types.hpp"
#include "sim/slab.hpp"

namespace sda::dataplane {

using PortId = std::uint16_t;

/// A fully onboarded endpoint as the edge sees it.
struct AttachedEndpoint {
  net::MacAddress mac;
  net::Ipv4Address ip;
  std::optional<net::Ipv6Address> ipv6;  // SLAAC identity, when the VN has one
  net::VnId vn;
  net::GroupId group;
  PortId port = 0;
  std::string credential;
  bool register_mac = false;  // also index by MAC for L2 services (§3.5)
  /// Access VLAN on the edge port, if the port is tagged. VLANs never
  /// stretch across the fabric (§3.5 element i): the tag is validated and
  /// stripped at ingress and re-applied at egress.
  std::optional<std::uint16_t> vlan;
};

/// Visits the endpoint's identities: IPv4, then IPv6 and MAC when present.
template <typename F>
void for_each_identity(const AttachedEndpoint& endpoint, F visit) {
  visit(net::VnEid{endpoint.vn, net::Eid{endpoint.ip}});
  if (endpoint.ipv6) visit(net::VnEid{endpoint.vn, net::Eid{*endpoint.ipv6}});
  if (endpoint.register_mac) visit(net::VnEid{endpoint.vn, net::Eid{endpoint.mac}});
}

/// All VRFs of one router over its attached endpoints. Returned pointers
/// stay valid until the next install() or remove().
class VrfSet {
 public:
  using Slot = std::uint32_t;
  static constexpr Slot kNoSlot = lisp::FlatIndex<net::MacAddress>::kNone;

  /// Attaches `endpoint`, replacing any endpoint with its MAC, and indexes
  /// it under each of its identities (an identity another endpoint held
  /// moves to this one). Returns the endpoint's slot.
  Slot install(const AttachedEndpoint& endpoint);

  /// Removes the endpoint with `mac`. Returns its record, readable until
  /// the next install(), or nullptr if no such endpoint is attached.
  const AttachedEndpoint* remove(const net::MacAddress& mac);

  /// VRF lookup: exact host match on any identity within the VN.
  [[nodiscard]] const AttachedEndpoint* lookup(const net::VnEid& eid) const;

  /// The endpoint attached with `mac`.
  [[nodiscard]] const AttachedEndpoint* find(const net::MacAddress& mac) const;

  /// The endpoint in `slot`, if that slot still holds `mac`: no probe.
  [[nodiscard]] const AttachedEndpoint* at(Slot slot, const net::MacAddress& mac) const {
    const bool held = records_.is_live(slot) && records_[slot].endpoint.mac == mac;
    return held ? &records_[slot].endpoint : nullptr;
  }

  /// Updates the GroupId of the endpoint with `mac` (re-authentication
  /// after a policy change); true if it is attached.
  bool retag(const net::MacAddress& mac, net::GroupId group);

  /// Identities indexed, across every VN.
  [[nodiscard]] std::size_t size() const { return by_eid_.size(); }
  [[nodiscard]] std::size_t endpoint_count() const { return by_mac_.size(); }

  /// Visits every attached endpoint in slot order.
  template <typename F>
  void for_each(F visit) const {
    records_.for_each([&](Slot slot) { visit(records_[slot].endpoint); });
  }

  void clear();

 private:
  /// IPv4, IPv6 and MAC. An identity's index entry is
  /// slot * kMaxIdentities + its position in the record.
  static constexpr std::uint32_t kMaxIdentities = 3;

  struct Record {
    std::array<net::VnEid, kMaxIdentities> identities;  // the keys by_eid_ reads
    std::uint32_t identity_count = 0;
    AttachedEndpoint endpoint;
  };

  [[nodiscard]] auto eid_of() const {
    return [this](std::uint32_t e) -> const net::VnEid& {
      return records_[e / kMaxIdentities].identities[e % kMaxIdentities];
    };
  }
  [[nodiscard]] auto mac_of() const {
    return [this](Slot slot) -> const net::MacAddress& { return records_[slot].endpoint.mac; };
  }

  sim::Slab<Record> records_;
  lisp::FlatIndex<net::VnEid, net::VnEidHash> by_eid_;
  lisp::FlatIndex<net::MacAddress> by_mac_;
};

// Inline: both run on every packet.
inline const AttachedEndpoint* VrfSet::lookup(const net::VnEid& eid) const {
  const std::uint32_t e = by_eid_.find(eid, eid_of());
  return e == kNoSlot ? nullptr : &records_[e / kMaxIdentities].endpoint;
}

inline const AttachedEndpoint* VrfSet::find(const net::MacAddress& mac) const {
  const Slot slot = by_mac_.find(mac, mac_of());
  return slot == kNoSlot ? nullptr : &records_[slot].endpoint;
}

}  // namespace sda::dataplane
