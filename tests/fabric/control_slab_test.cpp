// Control-slab accounting: every Map-Request (an edge's, or the L2
// gateway's MAC lookup) holds a control-slab slot from its send until its
// Map-Reply reaches the requester, or until the request or reply is lost,
// swallowed by an offline server, or shed by bounded admission. The
// fabric.control_in_flight gauge and the no-control-slot-leak invariant
// must read zero at quiesce after each of those endings.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fabric/fabric.hpp"
#include "faults/fault_plane.hpp"

namespace sda::fabric {
namespace {

using namespace std::chrono_literals;

constexpr net::VnId kVn{100};
constexpr std::size_t kHosts = 6;  // two per edge

class ControlSlab : public ::testing::Test {
 protected:
  void build(FabricConfig config) {
    config.seed = 29;
    fabric_ = std::make_unique<SdaFabric>(sim_, config);
    fabric_->add_border("b0");
    for (int e = 0; e < 3; ++e) {
      fabric_->add_edge("e" + std::to_string(e));
      fabric_->link("e" + std::to_string(e), "b0");
    }
    fabric_->finalize();
    fabric_->define_vn({kVn, "corp", *net::Ipv4Prefix::parse("10.100.0.0/16")});
    for (std::size_t h = 0; h < kHosts; ++h) {
      macs_.push_back(net::MacAddress::from_u64(0x0200 + h));
      const std::string credential = "host" + std::to_string(h);
      EndpointDefinition endpoint{credential, "pw", macs_[h], kVn, net::GroupId{10}};
      endpoint.l2_services = true;
      fabric_->provision_endpoint(endpoint);
      fabric_->connect_endpoint(credential, "e" + std::to_string(h / 2), 1,
                                [this, h](const OnboardResult& r) { ips_[h] = r.ip; });
    }
    sim_.run();
  }

  /// Every host sends to every host on another edge: 24 first packets.
  /// Both hosts of an edge share its map-cache, so each edge resolves its
  /// 4 remote EIDs once: 12 Map-Requests.
  void send_all_pairs() {
    for (std::size_t a = 0; a < kHosts; ++a) {
      for (std::size_t b = 0; b < kHosts; ++b) {
        if (a / 2 != b / 2) fabric_->endpoint_send_udp(macs_[a], ips_[b], 443, 100);
      }
    }
  }

  [[nodiscard]] double gauge() const {
    return fabric_->metrics().snapshot().gauges.at("fabric.control_in_flight");
  }

  void expect_no_leak() {
    EXPECT_EQ(fabric_->control_in_flight(), 0u);
    EXPECT_EQ(gauge(), 0.0);
    bool checked = false;
    for (const auto& verdict : fabric_->telemetry().assurance.evaluate_invariants()) {
      if (verdict.name != "no-control-slot-leak") continue;
      checked = true;
      EXPECT_TRUE(verdict.pass) << verdict.detail;
    }
    EXPECT_TRUE(checked);
  }

  sim::Simulator sim_;
  std::unique_ptr<SdaFabric> fabric_;
  std::vector<net::MacAddress> macs_;
  net::Ipv4Address ips_[kHosts];
};

TEST_F(ControlSlab, GaugeCountsRequestsUntilTheirRepliesArrive) {
  build({});
  send_all_pairs();
  EXPECT_EQ(gauge(), 12.0);  // 3 edges x 4 remote EIDs, all unresolved
  sim_.run();
  EXPECT_EQ(fabric_->map_server().stats().requests, 12u);
  expect_no_leak();
}

TEST_F(ControlSlab, OfflineServerSwallowsRequestsAndFreesSlots) {
  build({});
  fabric_->map_server_node().set_online(false);
  send_all_pairs();
  sim_.run();  // every attempt and retransmit is swallowed
  EXPECT_GT(fabric_->map_server_node().dropped_submissions(), 12u);
  expect_no_leak();
}

TEST_F(ControlSlab, ShedRequestsFreeSlots) {
  FabricConfig config;
  config.map_server.admission_limit = 2;
  build(config);
  send_all_pairs();
  sim_.run();
  EXPECT_GT(fabric_->map_server_node().shed_submissions(), 0u);
  expect_no_leak();
}

TEST_F(ControlSlab, RebootWithRequestsInFlightFreesSlots) {
  build({});
  send_all_pairs();
  ASSERT_GT(fabric_->control_in_flight(), 0u);
  fabric_->reboot_edge("e1", 50ms);  // e1's requests and replies are in the air
  sim_.run();
  expect_no_leak();
}

TEST_F(ControlSlab, ControlLossFreesSlots) {
  build({});
  faults::FaultPlane faults(sim_, fabric_->underlay(), 0xC5);
  faults.set_control_loss({0.5});
  for (int i = 0; i < 4; ++i) {
    send_all_pairs();
    sim_.run();
  }
  EXPECT_GT(fabric_->underlay().fault_drops(), 0u);
  expect_no_leak();
}

TEST_F(ControlSlab, L2GatewayLookupsFreeSlots) {
  // An ARP for a host on another edge is answered through the L2 gateway:
  // its MAC -> RLOC lookup is a Map-Request for the MAC EID riding the
  // same slab (the only Map-Request the routing server answers here).
  build({});
  fabric_->endpoint_send_arp(macs_[0], ips_[5]);
  sim_.run();
  EXPECT_EQ(fabric_->map_server().stats().requests, 1u);
  expect_no_leak();
}

}  // namespace
}  // namespace sda::fabric
