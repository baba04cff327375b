#include "dataplane/edge_router.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace sda::dataplane {
namespace {

using net::Eid;
using net::GroupId;
using net::Ipv4Address;
using net::MacAddress;
using net::OverlayFrame;
using net::VnEid;
using net::VnId;
using policy::Action;

constexpr VnId kVn{100};

struct EdgeFixture : ::testing::Test {
  EdgeFixture() : router(sim, make_config()) {
    router.set_send_data([this](const net::FabricFrame& f) { sent.push_back(f); });
    router.set_send_map_request([this](const lisp::MapRequest& r) { requests.push_back(r); });
    router.set_send_map_register([this](const lisp::MapRegister& r) { registers.push_back(r); });
    router.set_send_smr([this](Ipv4Address to, const lisp::SolicitMapRequest& s) {
      smrs.emplace_back(to, s);
    });
    router.set_deliver_local([this](const AttachedEndpoint& e, const OverlayFrame& f) {
      delivered.emplace_back(e, f);
    });
    router.set_download_rules([this](VnId, GroupId dst) {
      ++rule_downloads;
      if (dst == GroupId{20}) {
        return std::vector<policy::Rule>{{{GroupId{10}, GroupId{20}}, Action::Deny}};
      }
      return std::vector<policy::Rule>{};
    });
    router.set_release_group([this](VnId, GroupId g) { released.push_back(g); });
  }

  static EdgeRouterConfig make_config() {
    EdgeRouterConfig cfg;
    cfg.name = "edge-0";
    cfg.rloc = *Ipv4Address::parse("10.0.0.10");
    cfg.border_rloc = *Ipv4Address::parse("10.0.0.1");
    return cfg;
  }

  AttachedEndpoint make_endpoint(std::uint64_t mac, const char* ip, std::uint16_t group) {
    AttachedEndpoint e;
    e.mac = MacAddress::from_u64(mac);
    e.ip = *Ipv4Address::parse(ip);
    e.vn = kVn;
    e.group = GroupId{group};
    e.port = 1;
    e.credential = "ep-" + std::to_string(mac);
    return e;
  }

  OverlayFrame udp_to(const AttachedEndpoint& from, const char* dst_ip) {
    OverlayFrame frame;
    frame.source_mac = from.mac;
    frame.destination_mac = MacAddress::from_u64(0x020000000099ull);
    net::Ipv4Datagram dgram;
    dgram.source = from.ip;
    dgram.destination = *Ipv4Address::parse(dst_ip);
    dgram.payload_size = 100;
    frame.l3 = dgram;
    return frame;
  }

  void install_remote(const char* ip, const char* rloc, std::uint16_t group = 0) {
    lisp::MapReply reply;
    reply.eid = VnEid{kVn, Eid{*Ipv4Address::parse(ip)}};
    reply.rlocs = {net::Rloc{*Ipv4Address::parse(rloc)}};
    reply.ttl_seconds = 3600;
    reply.group = group;
    router.receive_map_reply(reply);
  }

  sim::Simulator sim;
  EdgeRouter router;
  std::vector<net::FabricFrame> sent;
  std::vector<lisp::MapRequest> requests;
  std::vector<lisp::MapRegister> registers;
  std::vector<std::pair<Ipv4Address, lisp::SolicitMapRequest>> smrs;
  std::vector<std::pair<AttachedEndpoint, OverlayFrame>> delivered;
  std::vector<GroupId> released;
  int rule_downloads = 0;
};

TEST_F(EdgeFixture, AttachRegistersAndDownloadsRules) {
  router.attach_endpoint(make_endpoint(1, "10.1.0.5", 20));
  ASSERT_EQ(registers.size(), 1u);
  EXPECT_EQ(registers[0].eid, (VnEid{kVn, Eid{*Ipv4Address::parse("10.1.0.5")}}));
  EXPECT_EQ(registers[0].rlocs[0].address, router.rloc());
  EXPECT_EQ(registers[0].group, 20);
  EXPECT_EQ(rule_downloads, 1);
  EXPECT_EQ(router.endpoint_count(), 1u);
  EXPECT_EQ(router.vrf().size(), 1u);
  EXPECT_EQ(router.sgacl().rule_count(), 1u);
}

TEST_F(EdgeFixture, AttachWithL2RegistersMacToo) {
  AttachedEndpoint e = make_endpoint(1, "10.1.0.5", 20);
  e.register_mac = true;
  router.attach_endpoint(e);
  ASSERT_EQ(registers.size(), 2u);
  EXPECT_TRUE(registers[1].eid.eid.is_mac());
  EXPECT_EQ(router.vrf().size(), 2u);
}

TEST_F(EdgeFixture, SecondEndpointSameGroupDownloadsOnce) {
  router.attach_endpoint(make_endpoint(1, "10.1.0.5", 20));
  router.attach_endpoint(make_endpoint(2, "10.1.0.6", 20));
  EXPECT_EQ(rule_downloads, 1);
}

TEST_F(EdgeFixture, DetachLastGroupMemberReleasesRules) {
  router.attach_endpoint(make_endpoint(1, "10.1.0.5", 20));
  router.attach_endpoint(make_endpoint(2, "10.1.0.6", 20));
  router.detach_endpoint(MacAddress::from_u64(1));
  EXPECT_TRUE(released.empty());
  router.detach_endpoint(MacAddress::from_u64(2));
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0], GroupId{20});
  EXPECT_EQ(router.sgacl().rule_count(), 0u);
}

TEST_F(EdgeFixture, DetachWithDeregisterSendsZeroTtl) {
  router.attach_endpoint(make_endpoint(1, "10.1.0.5", 20));
  router.detach_endpoint(MacAddress::from_u64(1), /*deregister=*/true);
  ASSERT_EQ(registers.size(), 2u);
  EXPECT_EQ(registers[1].ttl_seconds, 0u);
}

TEST_F(EdgeFixture, CacheMissDefaultRoutesToBorderAndResolves) {
  const auto e = make_endpoint(1, "10.1.0.5", 20);
  router.attach_endpoint(e);
  router.endpoint_transmit(e.mac, udp_to(e, "10.1.7.7"));
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].outer_destination, *Ipv4Address::parse("10.0.0.1"));
  EXPECT_EQ(sent[0].vn, kVn);
  EXPECT_EQ(sent[0].source_group, GroupId{20});
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].eid, (VnEid{kVn, Eid{*Ipv4Address::parse("10.1.7.7")}}));
  EXPECT_EQ(router.counters().default_routed, 1u);

  // A second packet while the request is pending must not duplicate it.
  router.endpoint_transmit(e.mac, udp_to(e, "10.1.7.7"));
  EXPECT_EQ(requests.size(), 1u);
  EXPECT_EQ(sent.size(), 2u);
}

TEST_F(EdgeFixture, CacheHitEncapsulatesDirectly) {
  const auto e = make_endpoint(1, "10.1.0.5", 20);
  router.attach_endpoint(e);
  install_remote("10.1.7.7", "10.0.0.20");
  router.endpoint_transmit(e.mac, udp_to(e, "10.1.7.7"));
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].outer_destination, *Ipv4Address::parse("10.0.0.20"));
  EXPECT_EQ(router.counters().default_routed, 0u);
  EXPECT_EQ(router.fib_size(), 1u);
}

TEST_F(EdgeFixture, UnauthenticatedSourceDropped) {
  const auto ghost = make_endpoint(66, "10.1.0.66", 20);
  router.endpoint_transmit(ghost.mac, udp_to(ghost, "10.1.7.7"));
  EXPECT_TRUE(sent.empty());
  EXPECT_EQ(router.counters().no_route_drops, 1u);
}

TEST_F(EdgeFixture, LocalDeliveryRunsEgressPipeline) {
  const auto a = make_endpoint(1, "10.1.0.5", 10);
  const auto b = make_endpoint(2, "10.1.0.6", 20);  // dst group 20: deny from 10
  router.attach_endpoint(a);
  router.attach_endpoint(b);
  router.endpoint_transmit(a.mac, udp_to(a, "10.1.0.6"));
  EXPECT_TRUE(delivered.empty());  // denied by SGACL
  EXPECT_EQ(router.counters().policy_drops, 1u);
  EXPECT_EQ(router.counters().locally_switched, 1u);

  // Reverse direction (20 -> 10) has no deny rule.
  router.endpoint_transmit(b.mac, udp_to(b, "10.1.0.5"));
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].first.mac, a.mac);
}

TEST_F(EdgeFixture, EgressPipelineEnforcesOnDecap) {
  const auto b = make_endpoint(2, "10.1.0.6", 20);
  router.attach_endpoint(b);

  net::FabricFrame frame;
  frame.outer_source = *Ipv4Address::parse("10.0.0.30");
  frame.outer_destination = router.rloc();
  frame.vn = kVn;
  frame.source_group = GroupId{10};  // denied towards 20
  frame.inner = udp_to(make_endpoint(9, "10.1.9.9", 10), "10.1.0.6");
  router.receive_fabric_frame(frame);
  EXPECT_TRUE(delivered.empty());
  EXPECT_EQ(router.counters().policy_drops, 1u);

  frame.source_group = GroupId{30};  // allowed
  router.receive_fabric_frame(frame);
  EXPECT_EQ(delivered.size(), 1u);
}

TEST_F(EdgeFixture, PolicyAppliedBitSkipsEgressSgacl) {
  const auto b = make_endpoint(2, "10.1.0.6", 20);
  router.attach_endpoint(b);
  net::FabricFrame frame;
  frame.outer_source = *Ipv4Address::parse("10.0.0.30");
  frame.outer_destination = router.rloc();
  frame.vn = kVn;
  frame.source_group = GroupId{10};
  frame.policy_applied = true;  // ingress already enforced (§5.3 ablation)
  frame.inner = udp_to(make_endpoint(9, "10.1.9.9", 10), "10.1.0.6");
  router.receive_fabric_frame(frame);
  EXPECT_EQ(delivered.size(), 1u);
  EXPECT_EQ(router.counters().policy_drops, 0u);
}

TEST_F(EdgeFixture, RoamedTrafficTriggersSmrAndForward) {
  // A frame arrives for an endpoint that is not here; we know (via
  // Map-Notify) that it moved to 10.0.0.30.
  lisp::MapNotify notify;
  notify.eid = VnEid{kVn, Eid{*Ipv4Address::parse("10.1.0.5")}};
  notify.rlocs = {net::Rloc{*Ipv4Address::parse("10.0.0.30")}};
  router.receive_map_notify(notify);

  net::FabricFrame frame;
  frame.outer_source = *Ipv4Address::parse("10.0.0.40");
  frame.outer_destination = router.rloc();
  frame.vn = kVn;
  frame.source_group = GroupId{10};
  frame.inner = udp_to(make_endpoint(9, "10.1.9.9", 10), "10.1.0.5");
  router.receive_fabric_frame(frame);

  ASSERT_EQ(smrs.size(), 1u);
  EXPECT_EQ(smrs[0].first, *Ipv4Address::parse("10.0.0.40"));
  EXPECT_EQ(smrs[0].second.eid, notify.eid);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].outer_destination, *Ipv4Address::parse("10.0.0.30"));
  EXPECT_EQ(router.counters().stale_forwards, 1u);
  // TTL must have been decremented on the stale-forward hop.
  EXPECT_EQ(sent[0].inner.ip().ttl, 63);
}

TEST_F(EdgeFixture, SmrIsRateLimitedPerEid) {
  lisp::MapNotify notify;
  notify.eid = VnEid{kVn, Eid{*Ipv4Address::parse("10.1.0.5")}};
  notify.rlocs = {net::Rloc{*Ipv4Address::parse("10.0.0.30")}};
  router.receive_map_notify(notify);

  net::FabricFrame frame;
  frame.outer_source = *Ipv4Address::parse("10.0.0.40");
  frame.outer_destination = router.rloc();
  frame.vn = kVn;
  frame.inner = udp_to(make_endpoint(9, "10.1.9.9", 10), "10.1.0.5");
  for (int i = 0; i < 5; ++i) router.receive_fabric_frame(frame);
  EXPECT_EQ(smrs.size(), 1u);
  EXPECT_EQ(router.counters().smr_sent, 1u);
}

// Fig. 6 order: an EID that left for a roam is not solicited until the
// Map-Notify says where it went; a sender re-resolving earlier would get
// this edge back.
TEST_F(EdgeFixture, RoamedAwayEidHoldsSmrUntilMapNotify) {
  const auto e = make_endpoint(1, "10.1.0.5", 20);
  router.attach_endpoint(e);
  router.detach_endpoint(e.mac, /*deregister=*/false);

  net::FabricFrame frame;
  frame.outer_source = *Ipv4Address::parse("10.0.0.40");
  frame.outer_destination = router.rloc();
  frame.vn = kVn;
  frame.inner = udp_to(make_endpoint(9, "10.1.9.9", 10), "10.1.0.5");
  router.receive_fabric_frame(frame);
  EXPECT_TRUE(smrs.empty());
  ASSERT_EQ(sent.size(), 1u);  // default-routed meanwhile
  EXPECT_EQ(sent[0].outer_destination, *Ipv4Address::parse("10.0.0.1"));
  EXPECT_EQ(router.mobility_record_count(), 1u);

  lisp::MapNotify notify;
  notify.eid = VnEid{kVn, Eid{e.ip}};
  notify.rlocs = {net::Rloc{*Ipv4Address::parse("10.0.0.30")}};
  router.receive_map_notify(notify);
  EXPECT_EQ(router.mobility_record_count(), 0u);
  router.receive_fabric_frame(frame);
  ASSERT_EQ(smrs.size(), 1u);
  EXPECT_EQ(smrs[0].first, *Ipv4Address::parse("10.0.0.40"));
  EXPECT_EQ(sent.back().outer_destination, *Ipv4Address::parse("10.0.0.30"));
}

// A lost Map-Notify must not leave the senders stale for good: the hold
// lapses after kSmrMinInterval and data-triggered SMRs resume.
TEST_F(EdgeFixture, SmrHoldLapsesWhenNoMapNotifyArrives) {
  const auto e = make_endpoint(1, "10.1.0.5", 20);
  router.attach_endpoint(e);
  router.detach_endpoint(e.mac, /*deregister=*/false);
  net::FabricFrame frame;
  frame.outer_source = *Ipv4Address::parse("10.0.0.40");
  frame.outer_destination = router.rloc();
  frame.vn = kVn;
  frame.inner = udp_to(make_endpoint(9, "10.1.9.9", 10), "10.1.0.5");
  router.receive_fabric_frame(frame);
  EXPECT_TRUE(smrs.empty());
  sim.run_until(sim.now() + EdgeRouter::kSmrMinInterval);
  router.receive_fabric_frame(frame);
  EXPECT_EQ(smrs.size(), 1u);
}

// A mapping cached while the EID lived elsewhere dies when the EID attaches
// here; otherwise its next departure would stale-forward to the older edge.
TEST_F(EdgeFixture, AttachInvalidatesCachedRemoteMapping) {
  install_remote("10.1.0.5", "10.0.0.20");
  const VnEid eid{kVn, Eid{*Ipv4Address::parse("10.1.0.5")}};
  ASSERT_NE(router.map_cache().lookup(eid, sim.now()), nullptr);
  router.attach_endpoint(make_endpoint(1, "10.1.0.5", 20));
  EXPECT_EQ(router.map_cache().lookup(eid, sim.now()), nullptr);
  EXPECT_EQ(router.fib_size(), 0u);
}

// The SMR throttle is about one location: a Map-Notify with a newer one
// lets the next stale frame solicit at once.
TEST_F(EdgeFixture, MapNotifyResetsSmrThrottle) {
  lisp::MapNotify notify;
  notify.eid = VnEid{kVn, Eid{*Ipv4Address::parse("10.1.0.5")}};
  notify.rlocs = {net::Rloc{*Ipv4Address::parse("10.0.0.30")}};
  router.receive_map_notify(notify);

  net::FabricFrame frame;
  frame.outer_source = *Ipv4Address::parse("10.0.0.40");
  frame.outer_destination = router.rloc();
  frame.vn = kVn;
  frame.inner = udp_to(make_endpoint(9, "10.1.9.9", 10), "10.1.0.5");
  router.receive_fabric_frame(frame);
  router.receive_fabric_frame(frame);
  ASSERT_EQ(smrs.size(), 1u);  // throttled

  notify.rlocs = {net::Rloc{*Ipv4Address::parse("10.0.0.31")}};
  router.receive_map_notify(notify);
  router.receive_fabric_frame(frame);
  EXPECT_EQ(smrs.size(), 2u);
  EXPECT_EQ(sent.back().outer_destination, *Ipv4Address::parse("10.0.0.31"));
}

// Settled records (notify applied, throttle expired) are swept before the
// table grows, so it holds only EIDs still in motion.
TEST_F(EdgeFixture, SettledMobilityRecordsAreSwept) {
  net::FabricFrame frame;
  frame.outer_source = *Ipv4Address::parse("10.0.0.40");
  frame.outer_destination = router.rloc();
  frame.vn = kVn;
  frame.inner = udp_to(make_endpoint(9, "10.1.9.9", 10), "10.1.7.7");
  router.receive_fabric_frame(frame);  // never hosted here: solicited at once
  ASSERT_EQ(smrs.size(), 1u);
  EXPECT_EQ(router.mobility_record_count(), 1u);  // its throttle

  sim.run_until(sim.now() + EdgeRouter::kSmrMinInterval);
  const auto e = make_endpoint(1, "10.1.0.5", 20);
  router.attach_endpoint(e);
  router.detach_endpoint(e.mac, /*deregister=*/false);
  EXPECT_EQ(router.mobility_record_count(), 1u);  // the hold; the throttle swept
  router.reboot();
  EXPECT_EQ(router.mobility_record_count(), 0u);
}

TEST_F(EdgeFixture, UnknownTrafficFromBorderIsDroppedNotBounced) {
  net::FabricFrame frame;
  frame.outer_source = *Ipv4Address::parse("10.0.0.1");  // the border
  frame.outer_destination = router.rloc();
  frame.vn = kVn;
  frame.inner = udp_to(make_endpoint(9, "10.1.9.9", 10), "10.1.0.5");
  router.receive_fabric_frame(frame);
  EXPECT_TRUE(sent.empty());  // no bounce-back loop (§5.2)
  EXPECT_EQ(router.counters().no_route_drops, 1u);
}

TEST_F(EdgeFixture, TtlExhaustionDropsLoopingFrame) {
  net::FabricFrame frame;
  frame.outer_source = *Ipv4Address::parse("10.0.0.40");
  frame.outer_destination = router.rloc();
  frame.vn = kVn;
  frame.inner = udp_to(make_endpoint(9, "10.1.9.9", 10), "10.1.0.5");
  frame.inner.ip().ttl = 1;
  router.receive_fabric_frame(frame);
  EXPECT_TRUE(sent.empty());
  EXPECT_EQ(router.counters().ttl_drops, 1u);
}

TEST_F(EdgeFixture, SmrInvalidatesCacheAndReResolves) {
  install_remote("10.1.7.7", "10.0.0.20");
  EXPECT_EQ(router.fib_size(), 1u);
  router.receive_smr(lisp::SolicitMapRequest{
      VnEid{kVn, Eid{*Ipv4Address::parse("10.1.7.7")}}, *Ipv4Address::parse("10.0.0.20")});
  EXPECT_EQ(router.fib_size(), 0u);
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_TRUE(requests[0].smr_invoked);
  EXPECT_EQ(router.counters().smr_received, 1u);
}

TEST_F(EdgeFixture, RlocOutagePurgesAffectedEntries) {
  install_remote("10.1.7.7", "10.0.0.20");
  install_remote("10.1.7.8", "10.0.0.20");
  install_remote("10.1.7.9", "10.0.0.30");
  router.on_rloc_reachability(*Ipv4Address::parse("10.0.0.20"), false);
  EXPECT_EQ(router.fib_size(), 1u);
  EXPECT_EQ(router.counters().rloc_fallbacks, 2u);
  // Reachability restoration alone changes nothing (re-registration does).
  router.on_rloc_reachability(*Ipv4Address::parse("10.0.0.20"), true);
  EXPECT_EQ(router.fib_size(), 1u);
}

TEST_F(EdgeFixture, AccessVlanValidatedStrippedAndReapplied) {
  // Sender on VLAN 100, receiver on VLAN 200, same edge.
  AttachedEndpoint a = make_endpoint(1, "10.1.0.5", 30);
  a.vlan = 100;
  AttachedEndpoint b = make_endpoint(2, "10.1.0.6", 30);
  b.vlan = 200;
  router.attach_endpoint(a);
  router.attach_endpoint(b);

  net::OverlayFrame frame = udp_to(a, "10.1.0.6");
  frame.vlan_id = 100;  // correctly tagged for a's port
  router.endpoint_transmit(a.mac, frame);
  ASSERT_EQ(delivered.size(), 1u);
  // Delivered with the *destination* port's VLAN, not the source's.
  EXPECT_EQ(delivered[0].second.vlan_id, 200);

  // Mis-tagged and untagged frames on a tagged port are dropped.
  frame.vlan_id = 999;
  router.endpoint_transmit(a.mac, frame);
  frame.vlan_id.reset();
  router.endpoint_transmit(a.mac, frame);
  EXPECT_EQ(router.counters().vlan_drops, 2u);
  EXPECT_EQ(delivered.size(), 1u);

  // A tagged frame on an untagged port is dropped too.
  const auto c = make_endpoint(3, "10.1.0.7", 30);
  router.attach_endpoint(c);
  net::OverlayFrame from_c = udp_to(c, "10.1.0.5");
  from_c.vlan_id = 100;
  router.endpoint_transmit(c.mac, from_c);
  EXPECT_EQ(router.counters().vlan_drops, 3u);
}

TEST_F(EdgeFixture, VlanTagNeverEntersTheOverlay) {
  AttachedEndpoint a = make_endpoint(1, "10.1.0.5", 20);
  a.vlan = 100;
  router.attach_endpoint(a);
  install_remote("10.1.7.7", "10.0.0.20");
  net::OverlayFrame frame = udp_to(a, "10.1.7.7");
  frame.vlan_id = 100;
  router.endpoint_transmit(a.mac, frame);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_FALSE(sent[0].inner.vlan_id.has_value());  // stripped at ingress
}

TEST_F(EdgeFixture, MapRequestRetransmitsUntilAnswered) {
  const auto e = make_endpoint(1, "10.1.0.5", 20);
  router.attach_endpoint(e);
  router.endpoint_transmit(e.mac, udp_to(e, "10.1.7.7"));
  ASSERT_EQ(requests.size(), 1u);

  // No reply: one retransmission per timeout, with fresh nonces.
  sim.run_until(sim.now() + std::chrono::milliseconds{1100});
  ASSERT_EQ(requests.size(), 2u);
  EXPECT_NE(requests[1].nonce, requests[0].nonce);
  EXPECT_EQ(requests[1].eid, requests[0].eid);
  sim.run();  // drain all retries (config default: 3)
  EXPECT_EQ(requests.size(), 4u);
  EXPECT_EQ(router.counters().map_request_retries, 3u);

  // Retries exhausted: a later packet can retrigger resolution.
  router.endpoint_transmit(e.mac, udp_to(e, "10.1.7.7"));
  EXPECT_EQ(requests.size(), 5u);
}

TEST_F(EdgeFixture, MapReplyCancelsRetransmission) {
  const auto e = make_endpoint(1, "10.1.0.5", 20);
  router.attach_endpoint(e);
  router.endpoint_transmit(e.mac, udp_to(e, "10.1.7.7"));
  ASSERT_EQ(requests.size(), 1u);
  install_remote("10.1.7.7", "10.0.0.20");  // the reply arrives
  sim.run();
  EXPECT_EQ(requests.size(), 1u);  // timer found nothing pending
  EXPECT_EQ(router.counters().map_request_retries, 0u);
}

// A Map-Request and a Map-Register that go unanswered through every retry.
// The gaps between sends are the RTOs: each starts at 1 s, never passes its
// cap (8 s for a request, 16 s for a register) and grows by at most 3x a
// step.
TEST_F(EdgeFixture, UnansweredRetransmitsStayWithinTheirBounds) {
  EdgeRouterConfig cfg = make_config();
  cfg.map_request_retries = 24;
  cfg.map_register_retries = 24;
  EdgeRouter edge{sim, cfg};
  std::vector<sim::SimTime> request_at;
  std::vector<sim::SimTime> register_at;
  edge.set_send_data([](const net::FabricFrame&) {});
  edge.set_send_map_request([&](const lisp::MapRequest&) { request_at.push_back(sim.now()); });
  edge.set_send_map_register([&](const lisp::MapRegister&) { register_at.push_back(sim.now()); });
  edge.set_download_rules([](VnId, GroupId) { return std::vector<policy::Rule>{}; });
  const auto e = make_endpoint(1, "10.1.0.5", 20);
  edge.attach_endpoint(e);
  edge.endpoint_transmit(e.mac, udp_to(e, "10.1.7.7"));
  sim.run();

  const auto check = [](const std::vector<sim::SimTime>& sends, sim::Duration cap,
                        const char* what) {
    ASSERT_EQ(sends.size(), 25u) << what;
    sim::Duration previous{0};
    for (std::size_t i = 1; i < sends.size(); ++i) {
      const sim::Duration rto = sends[i] - sends[i - 1];
      EXPECT_GE(rto, std::chrono::seconds{1}) << what << " RTO " << i;
      EXPECT_LE(rto, cap) << what << " RTO " << i;
      if (i > 1) {
        EXPECT_LE(rto, previous * 3) << what << " RTO " << i;
      }
      previous = rto;
    }
  };
  check(request_at, std::chrono::seconds{8}, "Map-Request");
  check(register_at, std::chrono::seconds{16}, "Map-Register");
}

TEST_F(EdgeFixture, NoDefaultRouteModeDropsWhileResolving) {
  EdgeRouterConfig cfg = make_config();
  cfg.default_route_fallback = false;
  EdgeRouter classic{sim, cfg};
  std::vector<net::FabricFrame> out;
  std::vector<lisp::MapRequest> reqs;
  classic.set_send_data([&](const net::FabricFrame& f) { out.push_back(f); });
  classic.set_send_map_request([&](const lisp::MapRequest& r) { reqs.push_back(r); });
  const auto e = make_endpoint(1, "10.1.0.5", 20);
  classic.attach_endpoint(e);

  classic.endpoint_transmit(e.mac, udp_to(e, "10.1.7.7"));
  EXPECT_TRUE(out.empty());  // dropped, not default-routed
  EXPECT_EQ(classic.counters().resolution_drops, 1u);
  EXPECT_EQ(reqs.size(), 1u);

  // Once resolved, traffic flows directly.
  lisp::MapReply reply;
  reply.eid = VnEid{kVn, Eid{*Ipv4Address::parse("10.1.7.7")}};
  reply.rlocs = {net::Rloc{*Ipv4Address::parse("10.0.0.20")}};
  classic.receive_map_reply(reply);
  classic.endpoint_transmit(e.mac, udp_to(e, "10.1.7.7"));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].outer_destination, *Ipv4Address::parse("10.0.0.20"));
}

TEST_F(EdgeFixture, DeadRlocMappingBypassedViaBorder) {
  const auto e = make_endpoint(1, "10.1.0.5", 20);
  router.attach_endpoint(e);
  router.on_rloc_reachability(*Ipv4Address::parse("10.0.0.20"), false);
  // A (re-)resolution may still hand back the dead RLOC until the endpoint
  // re-registers; the edge must not blackhole into it.
  install_remote("10.1.7.7", "10.0.0.20");
  router.endpoint_transmit(e.mac, udp_to(e, "10.1.7.7"));
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].outer_destination, *Ipv4Address::parse("10.0.0.1"));  // border
  EXPECT_EQ(router.counters().default_routed, 1u);

  // Once the IGP reports the RLOC back, the mapping is usable again.
  router.on_rloc_reachability(*Ipv4Address::parse("10.0.0.20"), true);
  router.endpoint_transmit(e.mac, udp_to(e, "10.1.7.7"));
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(sent[1].outer_destination, *Ipv4Address::parse("10.0.0.20"));
}

TEST_F(EdgeFixture, IngressEnforcementAblation) {
  EdgeRouterConfig cfg = make_config();
  cfg.enforce_on_ingress = true;
  EdgeRouter ingress_router{sim, cfg};
  std::vector<net::FabricFrame> out;
  ingress_router.set_send_data([&](const net::FabricFrame& f) { out.push_back(f); });
  ingress_router.set_download_rules([](VnId, GroupId dst) {
    if (dst == GroupId{20}) {
      return std::vector<policy::Rule>{{{GroupId{10}, GroupId{20}}, Action::Deny}};
    }
    return std::vector<policy::Rule>{};
  });

  const auto a = make_endpoint(1, "10.1.0.5", 10);
  ingress_router.attach_endpoint(a);
  // Remote destination known to be group 20 via the map reply.
  lisp::MapReply reply;
  reply.eid = VnEid{kVn, Eid{*Ipv4Address::parse("10.1.7.7")}};
  reply.rlocs = {net::Rloc{*Ipv4Address::parse("10.0.0.20")}};
  reply.group = 20;
  ingress_router.receive_map_reply(reply);
  // Ingress needs the rule for destination group 20 even though no local
  // endpoint belongs to it — that is exactly the §5.3 state-cost argument.
  ingress_router.install_rules(kVn, GroupId{20},
                               {{{GroupId{10}, GroupId{20}}, Action::Deny}});

  ingress_router.endpoint_transmit(a.mac, udp_to(a, "10.1.7.7"));
  EXPECT_TRUE(out.empty());  // dropped at ingress: bandwidth saved
  EXPECT_EQ(ingress_router.counters().policy_drops, 1u);
}

TEST_F(EdgeFixture, RetagEndpointUpdatesVrfAndReregisters) {
  router.attach_endpoint(make_endpoint(1, "10.1.0.5", 20));
  const auto before = registers.size();
  EXPECT_TRUE(router.retag_endpoint(MacAddress::from_u64(1), GroupId{25}));
  const VnEid eid{kVn, Eid{*Ipv4Address::parse("10.1.0.5")}};
  EXPECT_EQ(router.vrf().lookup(eid)->group, GroupId{25});
  EXPECT_EQ(registers.size(), before + 1);
  EXPECT_EQ(registers.back().group, 25);
  ASSERT_EQ(released.size(), 1u);  // old group 20 freed
  EXPECT_EQ(released[0], GroupId{20});
  EXPECT_FALSE(router.retag_endpoint(MacAddress::from_u64(9), GroupId{25}));
}

TEST_F(EdgeFixture, RebootLosesAllState) {
  const auto e = make_endpoint(1, "10.1.0.5", 20);
  router.attach_endpoint(e);
  install_remote("10.1.7.7", "10.0.0.20");
  router.reboot();
  EXPECT_EQ(router.endpoint_count(), 0u);
  EXPECT_EQ(router.fib_size(), 0u);
  EXPECT_EQ(router.vrf().size(), 0u);
  EXPECT_EQ(router.sgacl().rule_count(), 0u);
  // Traffic for its former endpoint now triggers the §5.2 recovery path.
  net::FabricFrame frame;
  frame.outer_source = *Ipv4Address::parse("10.0.0.40");
  frame.outer_destination = router.rloc();
  frame.vn = kVn;
  frame.inner = udp_to(make_endpoint(9, "10.1.9.9", 10), "10.1.0.5");
  router.receive_fabric_frame(frame);
  EXPECT_EQ(smrs.size(), 1u);
}

TEST_F(EdgeFixture, NegativeCacheEntryStillDefaultRoutes) {
  const auto e = make_endpoint(1, "10.1.0.5", 20);
  router.attach_endpoint(e);
  lisp::MapReply negative;
  negative.eid = VnEid{kVn, Eid{*Ipv4Address::parse("10.1.7.7")}};
  negative.action = lisp::MapReplyAction::NativelyForward;
  negative.ttl_seconds = 60;
  router.receive_map_reply(negative);

  router.endpoint_transmit(e.mac, udp_to(e, "10.1.7.7"));
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].outer_destination, *Ipv4Address::parse("10.0.0.1"));
  EXPECT_TRUE(requests.empty());  // negative entry suppresses re-resolution
}

TEST(RetryJitter, ShedRetriesSpreadAcrossEdges) {
  // Eight edges shed at the same instant with the same retry-after hint
  // must not retry in lockstep — the whole point of shedding was to break
  // up the stampede, and synchronized retries would rebuild it. The
  // decorrelated jitter spreads retransmits across [hint, 3*hint), never
  // earlier than the server asked.
  sim::Simulator sim;
  constexpr auto kHint = std::chrono::milliseconds{100};
  constexpr int kEdges = 8;
  std::vector<std::unique_ptr<EdgeRouter>> routers;
  std::vector<int> sends(kEdges, 0);
  std::vector<sim::SimTime> retry_at(kEdges);
  for (int i = 0; i < kEdges; ++i) {
    EdgeRouterConfig cfg;
    cfg.name = "edge-" + std::to_string(i);
    cfg.rloc = *Ipv4Address::parse(("10.0.0." + std::to_string(10 + i)).c_str());
    cfg.border_rloc = *Ipv4Address::parse("10.0.0.1");
    cfg.map_register_retries = 3;
    auto r = std::make_unique<EdgeRouter>(sim, cfg);
    r->set_send_data([](const net::FabricFrame&) {});
    r->set_send_map_register([&sim, &sends, &retry_at, i](const lisp::MapRegister&) {
      if (++sends[static_cast<std::size_t>(i)] == 2) {
        retry_at[static_cast<std::size_t>(i)] = sim.now();  // the jittered retry
      }
    });
    r->set_download_rules([](VnId, GroupId) { return std::vector<policy::Rule>{}; });
    routers.push_back(std::move(r));
  }
  for (int i = 0; i < kEdges; ++i) {
    AttachedEndpoint e;
    e.mac = MacAddress::from_u64(static_cast<std::uint64_t>(i + 1));
    e.ip = *Ipv4Address::parse(("10.1.0." + std::to_string(i + 1)).c_str());
    e.vn = kVn;
    e.group = GroupId{10};
    e.port = 1;
    e.credential = "ep-" + std::to_string(i);
    routers[static_cast<std::size_t>(i)]->attach_endpoint(e);
    // The fanned-out shed: every edge hears the same retry-after at t=0.
    routers[static_cast<std::size_t>(i)]->receive_map_register_busy(
        VnEid{kVn, net::Eid{e.ip}}, kHint);
  }
  sim.run_until(sim.now() + std::chrono::seconds{1});

  std::set<sim::SimTime> distinct;
  for (int i = 0; i < kEdges; ++i) {
    ASSERT_GE(sends[static_cast<std::size_t>(i)], 2) << "edge " << i << " never retried";
    const auto delay = retry_at[static_cast<std::size_t>(i)] - sim::SimTime{};
    EXPECT_GE(delay, sim::Duration{kHint}) << "edge " << i << " retried before the hint";
    EXPECT_LT(delay, sim::Duration{kHint} * 3) << "edge " << i << " over-delayed";
    distinct.insert(retry_at[static_cast<std::size_t>(i)]);
  }
  // Spread, not lockstep: the retry instants must actually differ.
  EXPECT_GE(distinct.size(), 4u) << "shed retries re-synchronized";
}

}  // namespace
}  // namespace sda::dataplane
