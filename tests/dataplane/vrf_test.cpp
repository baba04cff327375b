#include "dataplane/vrf.hpp"

#include <gtest/gtest.h>

namespace sda::dataplane {
namespace {

using net::Eid;
using net::GroupId;
using net::Ipv4Address;
using net::MacAddress;
using net::VnEid;
using net::VnId;

VnEid ip_eid(std::uint32_t vn, const char* ip) {
  return VnEid{VnId{vn}, Eid{*Ipv4Address::parse(ip)}};
}

AttachedEndpoint endpoint(std::uint64_t mac, std::uint32_t vn, const char* ip, PortId port,
                          std::uint16_t group) {
  AttachedEndpoint e;
  e.mac = MacAddress::from_u64(0x02AA00 + mac);
  e.ip = *Ipv4Address::parse(ip);
  e.vn = VnId{vn};
  e.group = GroupId{group};
  e.port = port;
  return e;
}

TEST(VrfSet, InstallLookupRemove) {
  VrfSet vrf;
  const AttachedEndpoint e = endpoint(1, 1, "10.1.0.5", 3, 10);
  const VrfSet::Slot slot = vrf.install(e);
  const AttachedEndpoint* found = vrf.lookup(ip_eid(1, "10.1.0.5"));
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->port, 3);
  EXPECT_EQ(found->group, GroupId{10});
  EXPECT_EQ(vrf.find(e.mac), found);
  EXPECT_EQ(vrf.at(slot, e.mac), found);
  EXPECT_EQ(vrf.at(slot, MacAddress::from_u64(0x0299)), nullptr);  // slot holds another MAC
  EXPECT_NE(vrf.remove(e.mac), nullptr);
  EXPECT_EQ(vrf.remove(e.mac), nullptr);
  EXPECT_EQ(vrf.lookup(ip_eid(1, "10.1.0.5")), nullptr);
  EXPECT_EQ(vrf.find(e.mac), nullptr);
  EXPECT_EQ(vrf.at(slot, e.mac), nullptr);
}

TEST(VrfSet, VnIsolation) {
  VrfSet vrf;
  vrf.install(endpoint(1, 1, "10.1.0.5", 1, 10));
  vrf.install(endpoint(2, 2, "10.1.0.5", 2, 20));
  EXPECT_EQ(vrf.lookup(ip_eid(1, "10.1.0.5"))->port, 1);
  EXPECT_EQ(vrf.lookup(ip_eid(2, "10.1.0.5"))->port, 2);
  EXPECT_EQ(vrf.lookup(ip_eid(3, "10.1.0.5")), nullptr);
  EXPECT_EQ(vrf.size(), 2u);
  EXPECT_EQ(vrf.endpoint_count(), 2u);
}

TEST(VrfSet, MacAndIpEidsCoexist) {
  VrfSet vrf;
  AttachedEndpoint e = endpoint(1, 1, "10.1.0.5", 1, 10);
  e.register_mac = true;
  e.ipv6 = *net::Ipv6Address::parse("2001:db8::1");
  vrf.install(e);
  const VnEid mac_eid{VnId{1}, Eid{e.mac}};
  const VnEid v6_eid{VnId{1}, Eid{*e.ipv6}};
  EXPECT_EQ(vrf.size(), 3u);
  EXPECT_EQ(vrf.endpoint_count(), 1u);
  EXPECT_EQ(vrf.lookup(mac_eid), vrf.lookup(ip_eid(1, "10.1.0.5")));
  EXPECT_EQ(vrf.lookup(v6_eid), vrf.lookup(ip_eid(1, "10.1.0.5")));
  EXPECT_EQ((vrf.lookup(VnEid{VnId{2}, Eid{e.mac}})), nullptr);
  vrf.remove(e.mac);
  EXPECT_EQ(vrf.size(), 0u);
  EXPECT_EQ(vrf.lookup(mac_eid), nullptr);
  EXPECT_EQ(vrf.lookup(v6_eid), nullptr);
}

TEST(VrfSet, RetagUpdatesGroupInPlace) {
  VrfSet vrf;
  const AttachedEndpoint e = endpoint(1, 1, "10.1.0.5", 1, 10);
  vrf.install(e);
  EXPECT_TRUE(vrf.retag(e.mac, GroupId{15}));
  EXPECT_EQ(vrf.lookup(ip_eid(1, "10.1.0.5"))->group, GroupId{15});
  EXPECT_FALSE(vrf.retag(MacAddress::from_u64(0x0299), GroupId{15}));
}

TEST(VrfSet, InstallReplacesExisting) {
  VrfSet vrf;
  vrf.install(endpoint(1, 1, "10.1.0.5", 1, 10));
  vrf.install(endpoint(1, 1, "10.1.0.6", 7, 12));  // same MAC, new port and address
  EXPECT_EQ(vrf.endpoint_count(), 1u);
  EXPECT_EQ(vrf.size(), 1u);
  EXPECT_EQ(vrf.lookup(ip_eid(1, "10.1.0.5")), nullptr);
  EXPECT_EQ(vrf.lookup(ip_eid(1, "10.1.0.6"))->port, 7);

  // An identity another endpoint held moves to the newcomer, and stays
  // with it when the previous holder leaves.
  vrf.install(endpoint(2, 1, "10.1.0.6", 9, 12));
  EXPECT_EQ(vrf.lookup(ip_eid(1, "10.1.0.6"))->port, 9);
  vrf.remove(MacAddress::from_u64(0x02AA01));
  EXPECT_EQ(vrf.lookup(ip_eid(1, "10.1.0.6"))->port, 9);
}

TEST(VrfSet, ClearEmptiesEverything) {
  VrfSet vrf;
  vrf.install(endpoint(1, 1, "10.1.0.5", 1, 10));
  vrf.install(endpoint(2, 2, "10.1.0.6", 2, 20));
  vrf.clear();
  EXPECT_EQ(vrf.size(), 0u);
  EXPECT_EQ(vrf.endpoint_count(), 0u);
  EXPECT_EQ(vrf.lookup(ip_eid(1, "10.1.0.5")), nullptr);
  EXPECT_EQ(vrf.find(MacAddress::from_u64(0x02AA02)), nullptr);
}

}  // namespace
}  // namespace sda::dataplane
