// Frame-slab accounting: every data frame handed to the underlay holds a
// slab slot until it arrives or is dropped at send time. The
// fabric.frames_in_flight gauge and the no-frame-slot-leak invariant must
// read zero at quiesce after underlay loss, an edge reboot with frames in
// flight, and a link going down under traffic.
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

class FrameSlab : public ::testing::Test {
 protected:
  void SetUp() override {
    FabricConfig config;
    config.seed = 23;
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
      fabric_->provision_endpoint({credential, "pw", macs_[h], kVn, net::GroupId{10}});
      fabric_->connect_endpoint(credential, "e" + std::to_string(h / 2), 1,
                                [this, h](const OnboardResult& r) { ips_[h] = r.ip; });
    }
    sim_.run();
    send_all_pairs();  // resolve every destination
    sim_.run();
  }

  void send_all_pairs() {
    for (std::size_t a = 0; a < kHosts; ++a) {
      for (std::size_t b = 0; b < kHosts; ++b) {
        if (a / 2 != b / 2) fabric_->endpoint_send_udp(macs_[a], ips_[b], 443, 100);
      }
    }
  }

  [[nodiscard]] double gauge() const {
    return fabric_->metrics().snapshot().gauges.at("fabric.frames_in_flight");
  }

  void expect_no_leak() {
    EXPECT_EQ(fabric_->frames_in_flight(), 0u);
    EXPECT_EQ(gauge(), 0.0);
    bool checked = false;
    for (const auto& verdict : fabric_->telemetry().assurance.evaluate_invariants()) {
      if (verdict.name != "no-frame-slot-leak") continue;
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

TEST_F(FrameSlab, GaugeCountsFramesInFlight) {
  send_all_pairs();
  EXPECT_EQ(gauge(), 24.0);  // 6 hosts x 4 remote peers, none arrived yet
  sim_.run();
  expect_no_leak();
}

TEST_F(FrameSlab, UnderlayLossFreesSlots) {
  faults::FaultPlane faults(sim_, fabric_->underlay(), 0xF5);
  faults.set_data_loss({0.5});
  for (int i = 0; i < 20; ++i) send_all_pairs();
  sim_.run();
  EXPECT_GT(fabric_->underlay().fault_drops(), 0u);
  expect_no_leak();
}

TEST_F(FrameSlab, RebootWithFramesInFlightFreesSlots) {
  send_all_pairs();
  ASSERT_GT(fabric_->frames_in_flight(), 0u);
  fabric_->reboot_edge("e1", 50ms);  // frames to and from e1 are in the air
  send_all_pairs();                  // e1's hosts are detached; the rest send
  sim_.run();
  expect_no_leak();
}

TEST_F(FrameSlab, LinkDownUnderTrafficFreesSlots) {
  send_all_pairs();
  fabric_->set_link_state("e2", "b0", false);
  send_all_pairs();  // e2 is unreachable: dropped at send time
  sim_.run();
  EXPECT_GT(fabric_->underlay().unreachable_drops(), 0u);
  expect_no_leak();
  fabric_->set_link_state("e2", "b0", true);
  sim_.run();
  send_all_pairs();
  sim_.run();
  expect_no_leak();
}

}  // namespace
}  // namespace sda::fabric
