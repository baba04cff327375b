// Each sending node's delay row, checked against an independent SPF: for
// every ordered node pair of a ring, the delay deliver() schedules and the
// one transit_delay() reports equal SPF latency + hops × per-hop processing
// + hops × serialization, before, during and after a link flap.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "underlay/network.hpp"
#include "underlay/spf.hpp"

namespace sda::underlay {
namespace {

constexpr std::size_t kRingSize = 6;
constexpr std::size_t kBytes = 1500;
constexpr sim::Duration kPerHop = std::chrono::microseconds{5};

net::Ipv4Address loopback(NodeId node) { return net::Ipv4Address{0x0A000001u + node}; }

struct RingFixture : ::testing::Test {
  void SetUp() override {
    for (NodeId n = 0; n < kRingSize; ++n) topo.add_node("n" + std::to_string(n), loopback(n));
    for (NodeId n = 0; n < kRingSize; ++n) {
      // Unequal latencies, so equal-cost paths around the ring differ.
      const auto latency = std::chrono::microseconds{10 * (n + 1)};
      links.push_back(topo.add_link(n, static_cast<NodeId>((n + 1) % kRingSize), latency));
    }
    net = std::make_unique<UnderlayNetwork>(sim, topo);
  }

  /// SPF latency + hops × (per-hop processing + 10 Gb/s serialization),
  /// from a fresh SPF; nullopt when unreachable.
  std::optional<sim::Duration> expected(NodeId from, NodeId to) const {
    if (from == to) return sim::Duration{0};
    const SpfTable table = compute_spf(topo, from);
    const SpfRoute* route = table.route(to);
    if (route == nullptr) return std::nullopt;
    const sim::Duration serialization{static_cast<std::int64_t>(kBytes * 8 / 10)};
    return route->latency + (kPerHop + serialization) * route->hop_count;
  }

  /// The delay deliver() schedules from `from` to `to`, or nullopt if it drops.
  std::optional<sim::Duration> delivered(NodeId from, NodeId to) {
    const sim::SimTime sent = sim.now();
    std::optional<sim::SimTime> arrived;
    if (!net->deliver(from, to, kBytes, [&] { arrived = sim.now(); })) return std::nullopt;
    sim.run();
    EXPECT_TRUE(arrived.has_value());
    return *arrived - sent;
  }

  /// Every ordered pair: deliver() and transit_delay() match the reference.
  void expect_every_pair_matches() {
    for (NodeId from = 0; from < kRingSize; ++from) {
      for (NodeId to = 0; to < kRingSize; ++to) {
        const std::optional<sim::Duration> want = expected(from, to);
        EXPECT_EQ(delivered(from, to), want) << from << " -> " << to;
        EXPECT_EQ(net->transit_delay(from, loopback(to), 0, kBytes), want) << from << " -> " << to;
      }
    }
  }

  sim::Simulator sim;
  Topology topo;
  std::vector<LinkId> links;
  std::unique_ptr<UnderlayNetwork> net;
};

TEST_F(RingFixture, EveryPairMatchesSpfBeforeDuringAndAfterALinkFlap) {
  expect_every_pair_matches();
  topo.set_link_state(links[2], false);  // the ring becomes a line
  expect_every_pair_matches();
  topo.set_link_state(links[2], true);
  expect_every_pair_matches();
  EXPECT_EQ(net->unreachable_drops(), 0u);
}

TEST_F(RingFixture, FaultInjectorSeesTheRowsHopCount) {
  std::vector<std::uint32_t> hops;
  net->set_fault_injector([&](NodeId, NodeId, std::size_t, std::uint32_t h, TrafficClass) {
    hops.push_back(h);
    return FaultDecision{};
  });
  for (NodeId to = 0; to < kRingSize; ++to) ASSERT_TRUE(delivered(0, to).has_value());
  const SpfTable table = compute_spf(topo, 0);
  std::vector<std::uint32_t> want;
  for (NodeId to = 0; to < kRingSize; ++to) {
    const SpfRoute* route = table.route(to);
    want.push_back(route == nullptr ? 0 : route->hop_count);
  }
  EXPECT_EQ(hops, want);
}

TEST_F(RingFixture, UnreachablePairCountsAsADrop) {
  // Cutting both of node 3's links leaves it up but unreachable.
  topo.set_link_state(links[2], false);
  topo.set_link_state(links[3], false);
  EXPECT_EQ(delivered(0, 3), std::nullopt);
  EXPECT_EQ(net->transit_delay(0, loopback(3), 0, kBytes), std::nullopt);
  EXPECT_EQ(delivered(3, 0), std::nullopt);
  EXPECT_EQ(net->unreachable_drops(), 2u);
  // A node still reaches itself, and the rest of the ring still matches.
  EXPECT_EQ(delivered(3, 3), sim::Duration{0});
  expect_every_pair_matches();
  EXPECT_EQ(net->unreachable_drops(), 2u + 2 * (kRingSize - 1));
}

}  // namespace
}  // namespace sda::underlay
