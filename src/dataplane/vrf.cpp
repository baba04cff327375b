#include "dataplane/vrf.hpp"

namespace sda::dataplane {

VrfSet::Slot VrfSet::install(const AttachedEndpoint& endpoint) {
  remove(endpoint.mac);
  const Slot slot = records_.acquire();
  Record& record = records_[slot];
  record.endpoint = endpoint;
  record.identity_count = 0;
  for_each_identity(endpoint, [&](const net::VnEid& eid) {
    by_eid_.erase(eid, eid_of());  // the latest attachment owns the identity
    const std::uint32_t k = record.identity_count++;
    (k == 0 ? record.ipv4 : record.more[k - 1]) = eid;
    by_eid_.insert(eid, slot * kMaxIdentities + k);
  });
  by_mac_.insert(endpoint.mac, slot);
  return slot;
}

const AttachedEndpoint* VrfSet::remove(const net::MacAddress& mac) {
  const Slot slot = by_mac_.erase(mac, mac_of());
  if (slot == kNoSlot) return nullptr;
  Record& record = records_[slot];
  for (std::uint32_t k = 0; k < record.identity_count; ++k) {
    // Unindex only what is still ours: a later attachment may hold it.
    const std::uint32_t e = slot * kMaxIdentities + k;
    if (by_eid_.find(eid_of()(e), eid_of()) == e) by_eid_.erase(eid_of()(e), eid_of());
  }
  record.identity_count = 0;
  records_.release(slot);
  return &record.endpoint;
}

bool VrfSet::retag(const net::MacAddress& mac, net::GroupId group) {
  const Slot slot = by_mac_.find(mac, mac_of());
  if (slot == kNoSlot) return false;
  records_[slot].endpoint.group = group;
  return true;
}

void VrfSet::clear() {
  records_.clear();
  by_eid_.clear();
  by_mac_.clear();
}

}  // namespace sda::dataplane
