// End-to-end integration tests of the SDA fabric: onboarding (Fig. 3),
// reactive packet flow (Fig. 4), mobility (Figs. 5-6), segmentation, and
// border synchronization.
#include "fabric/fabric.hpp"

#include <gtest/gtest.h>

namespace sda::fabric {
namespace {

using net::GroupId;
using net::Ipv4Address;
using net::MacAddress;
using net::VnId;

constexpr VnId kCorp{100};
constexpr GroupId kEmployees{10};
constexpr GroupId kIot{20};

MacAddress mac(std::uint64_t i) { return MacAddress::from_u64(0x0200'0000'0000ull | i); }

struct FabricFixture : ::testing::Test {
  void SetUp() override {
    fabric = std::make_unique<SdaFabric>(sim, FabricConfig{});
    fabric->add_border("b0");
    fabric->add_edge("e0");
    fabric->add_edge("e1");
    fabric->add_edge("e2");
    fabric->link("e0", "b0");
    fabric->link("e1", "b0");
    fabric->link("e2", "b0");
    fabric->finalize();

    fabric->define_vn({kCorp, "corp", *net::Ipv4Prefix::parse("10.100.0.0/16")});
    fabric->set_rule({kCorp, kEmployees, kIot, policy::Action::Deny});
    fabric->add_external_prefix(kCorp, *net::Ipv4Prefix::parse("0.0.0.0/0"));

    provision("alice", mac(1), kEmployees);
    provision("bob", mac(2), kEmployees);
    provision("camera", mac(3), kIot);

    fabric->set_delivery_listener([this](const dataplane::AttachedEndpoint& e,
                                         const net::OverlayFrame&, sim::SimTime) {
      deliveries.push_back(e.credential);
    });
  }

  void provision(const std::string& credential, MacAddress m, GroupId group,
                 bool l2 = false) {
    EndpointDefinition def;
    def.credential = credential;
    def.secret = "pw";
    def.mac = m;
    def.vn = kCorp;
    def.group = group;
    def.l2_services = l2;
    fabric->provision_endpoint(def);
  }

  OnboardResult connect(const std::string& credential, const std::string& edge) {
    OnboardResult result;
    fabric->connect_endpoint(credential, edge, 1,
                             [&](const OnboardResult& r) { result = r; });
    sim.run();
    return result;
  }

  sim::Simulator sim;
  std::unique_ptr<SdaFabric> fabric;
  std::vector<std::string> deliveries;
};

TEST_F(FabricFixture, OnboardingCompletesAndRegisters) {
  const OnboardResult r = connect("alice", "e0");
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.vn, kCorp);
  EXPECT_EQ(r.group, kEmployees);
  EXPECT_FALSE(r.ip.is_unspecified());
  EXPECT_GT(r.elapsed.count(), 0);
  EXPECT_EQ(fabric->edge("e0").endpoint_count(), 1u);
  EXPECT_EQ(fabric->map_server().mapping_count(kCorp), 1u);
  EXPECT_EQ(fabric->location_of(mac(1)), "e0");
  // Border pub/sub picked up the registration.
  EXPECT_EQ(fabric->border("b0").fib_size(), 1u);
}

TEST_F(FabricFixture, OnboardingFailsWithBadCredential) {
  provision("eve", mac(9), kEmployees);
  fabric->policy_server().provision_endpoint("eve", "different-secret",
                                             {kCorp, kEmployees});
  const OnboardResult r = connect("eve", "e0");
  EXPECT_FALSE(r.success);
  EXPECT_EQ(fabric->edge("e0").endpoint_count(), 0u);
}

TEST_F(FabricFixture, UnknownCredentialThrows) {
  EXPECT_THROW(fabric->connect_endpoint("ghost", "e0", 1), std::invalid_argument);
}

TEST_F(FabricFixture, ProvisioningDuringOnboardingKeepsItsRecord) {
  // The endpoint table grows while an onboarding is in flight: the flow's
  // later steps must still find the endpoint's record (under ASan a moved
  // record would be a use-after-free).
  const auto bob = connect("bob", "e1");
  OnboardResult alice;
  fabric->connect_endpoint("alice", "e0", 1, [&](const OnboardResult& r) { alice = r; });
  for (std::uint64_t i = 0; i < 1000; ++i) {
    provision("extra" + std::to_string(i), mac(0x1000 + i), kEmployees);
  }
  sim.run();
  ASSERT_TRUE(alice.success);
  EXPECT_EQ(fabric->location_of(mac(1)), "e0");
  EXPECT_EQ(fabric->location_of(mac(0x1000)), std::nullopt);  // provisioned only
  EXPECT_TRUE(fabric->endpoint_send_udp(mac(1), bob.ip, 443, 100));
  sim.run();
  EXPECT_EQ(deliveries, std::vector<std::string>{"bob"});
}

TEST_F(FabricFixture, CrossEdgeTrafficResolvesThenFlowsDirect) {
  const auto alice = connect("alice", "e0");
  const auto bob = connect("bob", "e1");

  // First packet: cache miss -> default-routed via the border, and a
  // Map-Request fires. The packet still arrives (hairpinned).
  EXPECT_TRUE(fabric->endpoint_send_udp(mac(1), bob.ip, 443, 100));
  sim.run();
  EXPECT_EQ(deliveries, std::vector<std::string>{"bob"});
  EXPECT_EQ(fabric->edge("e0").counters().default_routed, 1u);
  EXPECT_GE(fabric->border("b0").counters().hairpinned, 1u);
  EXPECT_EQ(fabric->edge("e0").fib_size(), 1u);  // reply cached

  // Second packet: direct encapsulation, no extra default-routing.
  fabric->endpoint_send_udp(mac(1), bob.ip, 443, 100);
  sim.run();
  EXPECT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(fabric->edge("e0").counters().default_routed, 1u);
}

TEST_F(FabricFixture, SameEdgeTrafficStaysLocal) {
  connect("alice", "e0");
  const auto bob = connect("bob", "e0");
  fabric->endpoint_send_udp(mac(1), bob.ip, 443, 100);
  sim.run();
  EXPECT_EQ(deliveries, std::vector<std::string>{"bob"});
  EXPECT_EQ(fabric->edge("e0").counters().locally_switched, 1u);
  EXPECT_EQ(fabric->edge("e0").counters().encapsulated, 0u);
}

TEST_F(FabricFixture, MicroSegmentationDropsOnEgress) {
  connect("alice", "e0");
  const auto camera = connect("camera", "e1");
  fabric->endpoint_send_udp(mac(1), camera.ip, 554, 100);  // employee -> iot: deny
  sim.run();
  EXPECT_TRUE(deliveries.empty());
  EXPECT_EQ(fabric->edge("e1").counters().policy_drops, 1u);

  // IoT -> employee is not denied.
  const auto alice_ip = *fabric->dhcp_server().lease_of(kCorp, mac(1));
  fabric->endpoint_send_udp(mac(3), alice_ip, 80, 100);
  sim.run();
  EXPECT_EQ(deliveries, std::vector<std::string>{"alice"});
}

TEST_F(FabricFixture, MacroSegmentationIsolatesVns) {
  fabric->define_vn({VnId{200}, "guest", *net::Ipv4Prefix::parse("10.200.0.0/16")});
  provision("guest-1", mac(7), kEmployees);
  fabric->policy_server().provision_endpoint("guest-1", "pw", {VnId{200}, kEmployees});
  connect("alice", "e0");
  const auto guest = connect("guest-1", "e1");
  ASSERT_TRUE(guest.success);
  EXPECT_EQ(guest.vn, VnId{200});

  // Alice (VN 100) sends to the guest's IP: different VN, no mapping, so it
  // ends at the border and is dropped (no external prefix covers VN 100's
  // view of 10.200/16... actually 0/0 covers it: it leaves as external).
  fabric->endpoint_send_udp(mac(1), guest.ip, 80, 100);
  sim.run();
  EXPECT_TRUE(deliveries.empty());  // never delivered inside the fabric
}

TEST_F(FabricFixture, OverlappingAddressSpacesStayIsolated) {
  // The VRF selling point: two VNs may use the *same* IP space, and even
  // identical addresses never bleed across (paper §2 "Segmentation").
  fabric->define_vn({VnId{201}, "tenant-a", *net::Ipv4Prefix::parse("10.200.0.0/16")});
  fabric->define_vn({VnId{202}, "tenant-b", *net::Ipv4Prefix::parse("10.200.0.0/16")});
  provision("ta-1", mac(21), kEmployees);
  provision("tb-1", mac(22), kEmployees);
  provision("tb-2", mac(23), kEmployees);
  fabric->policy_server().provision_endpoint("ta-1", "pw", {VnId{201}, kEmployees});
  fabric->policy_server().provision_endpoint("tb-1", "pw", {VnId{202}, kEmployees});
  fabric->policy_server().provision_endpoint("tb-2", "pw", {VnId{202}, kEmployees});

  const auto ta1 = connect("ta-1", "e0");
  const auto tb1 = connect("tb-1", "e1");
  const auto tb2 = connect("tb-2", "e2");
  ASSERT_TRUE(ta1.success && tb1.success && tb2.success);
  // Same pool, independent allocators: the first host of each VN gets the
  // same address.
  EXPECT_EQ(ta1.ip, tb1.ip);

  // tb-2 sends to that shared address: only its own VN's owner receives.
  fabric->endpoint_send_udp(mac(23), tb1.ip, 443, 100);
  sim.run();
  EXPECT_EQ(deliveries, std::vector<std::string>{"tb-1"});
  // And the routing server holds one mapping per (VN, EID).
  EXPECT_EQ(fabric->map_server().mapping_count(VnId{201}), 1u);
  EXPECT_EQ(fabric->map_server().mapping_count(VnId{202}), 2u);
}

TEST_F(FabricFixture, ExternalTrafficExitsViaBorder) {
  connect("alice", "e0");
  fabric->endpoint_send_udp(mac(1), *Ipv4Address::parse("198.51.100.9"), 443, 200);
  sim.run();
  EXPECT_EQ(fabric->border("b0").counters().external_out, 1u);
  // The external mapping is cached: second packet goes straight to border
  // as a cache *hit* (not via default route).
  const auto before = fabric->edge("e0").counters().default_routed;
  fabric->endpoint_send_udp(mac(1), *Ipv4Address::parse("198.51.100.9"), 443, 200);
  sim.run();
  EXPECT_EQ(fabric->edge("e0").counters().default_routed, before);
  EXPECT_EQ(fabric->border("b0").counters().external_out, 2u);
}

TEST_F(FabricFixture, InboundExternalTrafficReachesEndpoint) {
  const auto alice = connect("alice", "e0");
  fabric->external_send_udp("b0", kCorp, *Ipv4Address::parse("8.8.8.8"), alice.ip, 100);
  sim.run();
  EXPECT_EQ(deliveries, std::vector<std::string>{"alice"});
}

TEST_F(FabricFixture, RoamUpdatesLocationAndNotifiesOldEdge) {
  const auto alice = connect("alice", "e0");
  connect("bob", "e1");

  // Bob talks to alice so e1 holds a cached mapping to e0.
  fabric->endpoint_send_udp(mac(2), alice.ip, 443, 100);
  sim.run();
  ASSERT_EQ(deliveries, std::vector<std::string>{"alice"});
  deliveries.clear();

  // Alice roams e0 -> e1's neighbour... roam to e1 itself.
  OnboardResult roamed;
  fabric->roam_endpoint(mac(1), "e1", 2, [&](const OnboardResult& r) { roamed = r; });
  sim.run();
  EXPECT_TRUE(roamed.success);
  EXPECT_EQ(roamed.ip, alice.ip);  // sticky DHCP lease survives the move
  EXPECT_EQ(fabric->location_of(mac(1)), "e1");
  EXPECT_EQ(fabric->edge("e0").endpoint_count(), 0u);
  EXPECT_EQ(fabric->edge("e1").endpoint_count(), 2u);
  // Fig. 5: the old edge received a Map-Notify with the new location.
  const auto* stale = fabric->edge("e0").map_cache().lookup(
      net::VnEid{kCorp, net::Eid{alice.ip}}, sim.now());
  ASSERT_NE(stale, nullptr);
  EXPECT_EQ(stale->primary_rloc(), fabric->edge("e1").rloc());

  // Bob can still reach alice (same edge now).
  fabric->endpoint_send_udp(mac(2), alice.ip, 443, 100);
  sim.run();
  EXPECT_EQ(deliveries, std::vector<std::string>{"alice"});
}

TEST_F(FabricFixture, StaleSenderRefreshedByDataTriggeredSmr) {
  const auto alice = connect("alice", "e0");
  connect("bob", "e1");

  // Bob caches alice@e0.
  fabric->endpoint_send_udp(mac(2), alice.ip, 443, 100);
  sim.run();
  deliveries.clear();

  // Alice roams to e2. Bob's (e1) cache is now stale: it points at e0.
  fabric->roam_endpoint(mac(1), "e2", 2);
  sim.run();

  // Bob sends again: e1 encaps to e0 using the stale entry; e0 forwards to
  // the new location (Fig. 6 step 3) and SMRs the sender's edge (step 2).
  fabric->endpoint_send_udp(mac(2), alice.ip, 443, 100);
  sim.run();
  EXPECT_EQ(deliveries, std::vector<std::string>{"alice"});  // not lost
  EXPECT_GE(fabric->edge("e0").counters().stale_forwards, 1u);
  EXPECT_GE(fabric->edge("e1").counters().smr_received, 1u);

  // After the SMR-triggered re-resolution, e1 encapsulates straight to e2.
  deliveries.clear();
  const auto stale_before = fabric->edge("e0").counters().stale_forwards;
  fabric->endpoint_send_udp(mac(2), alice.ip, 443, 100);
  sim.run();
  EXPECT_EQ(deliveries, std::vector<std::string>{"alice"});
  EXPECT_EQ(fabric->edge("e0").counters().stale_forwards, stale_before);
}

TEST_F(FabricFixture, DisconnectWithdrawsEverywhere) {
  const auto alice = connect("alice", "e0");
  connect("bob", "e1");
  fabric->endpoint_send_udp(mac(2), alice.ip, 443, 100);
  sim.run();
  EXPECT_EQ(fabric->border("b0").fib_size(), 2u);

  fabric->disconnect_endpoint(mac(1));
  sim.run();
  EXPECT_EQ(fabric->location_of(mac(1)), std::nullopt);
  EXPECT_EQ(fabric->map_server().mapping_count(kCorp), 1u);
  EXPECT_EQ(fabric->border("b0").fib_size(), 1u);  // withdrawal synced
  EXPECT_EQ(fabric->edge("e0").endpoint_count(), 0u);
}

TEST_F(FabricFixture, GroupReassignmentRetagsLiveEndpoint) {
  const auto camera = connect("camera", "e1");
  connect("alice", "e0");

  // employee->iot denied; after moving the camera to the employees group
  // the same traffic is allowed (policy freshness via re-auth, §5.3).
  fabric->endpoint_send_udp(mac(1), camera.ip, 554, 100);
  sim.run();
  EXPECT_TRUE(deliveries.empty());

  EXPECT_TRUE(fabric->reassign_endpoint_group("camera", kEmployees));
  sim.run();
  EXPECT_EQ(
      fabric->edge("e1").vrf().lookup(net::VnEid{kCorp, net::Eid{camera.ip}})->group,
      kEmployees);

  fabric->endpoint_send_udp(mac(1), camera.ip, 554, 100);
  sim.run();
  EXPECT_EQ(deliveries, std::vector<std::string>{"camera"});
}

TEST_F(FabricFixture, RuleUpdatePushedToHostingEdge) {
  connect("camera", "e1");
  EXPECT_EQ(fabric->edge("e1").sgacl().rule_count(), 1u);  // deny employees->iot
  fabric->update_rule({kCorp, GroupId{15}, kIot, policy::Action::Deny});
  sim.run();
  EXPECT_EQ(fabric->edge("e1").sgacl().rule_count(), 2u);
  EXPECT_EQ(fabric->policy_server().stats().rule_push_messages, 1u);
}

TEST_F(FabricFixture, ReconnectElsewhereDetachesOldAttachment) {
  connect("alice", "e0");
  ASSERT_EQ(fabric->edge("e0").endpoint_count(), 1u);
  // Fresh connect on another edge (cable moved without a clean roam).
  const auto r = connect("alice", "e1");
  ASSERT_TRUE(r.success);
  EXPECT_EQ(fabric->edge("e0").endpoint_count(), 0u);
  EXPECT_EQ(fabric->edge("e1").endpoint_count(), 1u);
  EXPECT_EQ(fabric->location_of(mac(1)), "e1");
  // Exactly one mapping, pointing at the new edge.
  EXPECT_EQ(fabric->map_server().mapping_count(kCorp), 1u);
  EXPECT_EQ(fabric->map_server()
                .resolve(net::VnEid{kCorp, net::Eid{r.ip}})
                ->primary_rloc(),
            fabric->edge("e1").rloc());
}

TEST_F(FabricFixture, OnboardingElapsedIsFasterOnRoam) {
  const auto fresh = connect("alice", "e0");
  OnboardResult roamed;
  fabric->roam_endpoint(mac(1), "e1", 1, [&](const OnboardResult& r) { roamed = r; });
  sim.run();
  EXPECT_TRUE(roamed.success);
  EXPECT_LT(roamed.elapsed, fresh.elapsed);  // fast re-auth, no DHCP round
}

}  // namespace
}  // namespace sda::fabric
