// Access VLANs scoped to edge ports (§3.5 element i), end to end.
#include <gtest/gtest.h>

#include "fabric/fabric.hpp"

namespace sda::fabric {
namespace {

using net::GroupId;
using net::MacAddress;
using net::VnId;

constexpr VnId kVn{100};

MacAddress mac(std::uint64_t i) { return MacAddress::from_u64(0x0200'0000'0000ull | i); }

TEST(FabricVlan, TagValidatedStrippedInOverlayReappliedAtEgress) {
  sim::Simulator sim;
  SdaFabric fabric{sim, FabricConfig{}};
  fabric.add_border("b0");
  fabric.add_edge("e0");
  fabric.add_edge("e1");
  fabric.link("e0", "b0");
  fabric.link("e1", "b0");
  fabric.finalize();
  fabric.define_vn({kVn, "corp", *net::Ipv4Prefix::parse("10.100.0.0/16")});

  EndpointDefinition voice;
  voice.credential = "phone";
  voice.secret = "pw";
  voice.mac = mac(1);
  voice.vn = kVn;
  voice.group = GroupId{10};
  voice.access_vlan = 120;  // voice VLAN on the access port
  fabric.provision_endpoint(voice);
  EndpointDefinition pc;
  pc.credential = "pc";
  pc.secret = "pw";
  pc.mac = mac(2);
  pc.vn = kVn;
  pc.group = GroupId{10};
  pc.access_vlan = 130;
  fabric.provision_endpoint(pc);

  net::Ipv4Address pc_ip;
  fabric.connect_endpoint("phone", "e0", 1);
  fabric.connect_endpoint("pc", "e1", 1, [&](const OnboardResult& r) { pc_ip = r.ip; });
  sim.run();

  std::optional<std::uint16_t> delivered_vlan;
  int delivered = 0;
  fabric.set_delivery_listener([&](const dataplane::AttachedEndpoint&,
                                   const net::OverlayFrame& f, sim::SimTime) {
    ++delivered;
    delivered_vlan = f.vlan_id;
  });

  ASSERT_TRUE(fabric.endpoint_send_udp(mac(1), pc_ip, 5060, 160));
  sim.run();
  ASSERT_EQ(delivered, 1);
  // Delivered with the *destination* port's VLAN (130), not the source's.
  EXPECT_EQ(delivered_vlan, 130);
  // VLANs never stretched: both edges saw only their own tags and the
  // fabric carried none (validated inside the edge pipelines).
  EXPECT_EQ(fabric.edge("e0").counters().vlan_drops, 0u);
}

// A host on a tagged port ARPs for a host on the same edge. The L2 gateway
// answers locally: the request reaches the target once, tagged with the
// target port's VLAN, and the source port's VLAN check runs only once.
TEST(FabricVlan, SameEdgeArpFromTaggedPortIsAnsweredLocally) {
  sim::Simulator sim;
  SdaFabric fabric{sim, FabricConfig{}};
  fabric.add_border("b0");
  fabric.add_edge("e0");
  fabric.link("e0", "b0");
  fabric.finalize();
  fabric.define_vn({kVn, "corp", *net::Ipv4Prefix::parse("10.100.0.0/16")});

  EndpointDefinition phone;
  phone.credential = "phone";
  phone.secret = "pw";
  phone.mac = mac(1);
  phone.vn = kVn;
  phone.group = GroupId{10};
  phone.l2_services = true;
  phone.access_vlan = 120;
  fabric.provision_endpoint(phone);
  EndpointDefinition printer = phone;
  printer.credential = "printer";
  printer.mac = mac(2);
  printer.access_vlan = 130;
  fabric.provision_endpoint(printer);

  net::Ipv4Address printer_ip;
  fabric.connect_endpoint("phone", "e0", 1);
  fabric.connect_endpoint("printer", "e0", 2,
                          [&](const OnboardResult& r) { printer_ip = r.ip; });
  sim.run();

  std::optional<std::uint16_t> delivered_vlan;
  int delivered = 0;
  fabric.set_delivery_listener([&](const dataplane::AttachedEndpoint& to,
                                   const net::OverlayFrame& f, sim::SimTime) {
    ++delivered;
    EXPECT_EQ(to.mac, mac(2));
    delivered_vlan = f.vlan_id;
  });
  const auto before = fabric.edge("e0").counters();
  ASSERT_TRUE(fabric.endpoint_send_arp(mac(1), printer_ip));
  sim.run();
  const auto& after = fabric.edge("e0").counters();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(delivered_vlan, 130);
  EXPECT_EQ(after.vlan_drops - before.vlan_drops, 0u);
  EXPECT_EQ(after.frames_from_endpoints - before.frames_from_endpoints, 1u);
}

}  // namespace
}  // namespace sda::fabric
