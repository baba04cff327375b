#include "underlay/linkstate.hpp"

#include <gtest/gtest.h>

namespace sda::underlay {
namespace {

net::Ipv4Address rloc(std::uint32_t i) { return net::Ipv4Address{0x0A000000u + i}; }
constexpr auto us100 = std::chrono::microseconds{100};

/// Line a - b - c - d plus a redundant a - d link.
struct LinkStateFixture : ::testing::Test {
  void SetUp() override {
    a = topo.add_node("a", rloc(1));
    b = topo.add_node("b", rloc(2));
    c = topo.add_node("c", rloc(3));
    d = topo.add_node("d", rloc(4));
    ab = topo.add_link(a, b, us100);
    bc = topo.add_link(b, c, us100);
    cd = topo.add_link(c, d, us100);
    ad = topo.add_link(a, d, us100, 5);  // backup, higher cost
    protocol = std::make_unique<LinkStateProtocol>(sim, topo);
    protocol->start();
    sim.run();
  }

  sim::Simulator sim;
  Topology topo;
  NodeId a{}, b{}, c{}, d{};
  LinkId ab{}, bc{}, cd{}, ad{};
  std::unique_ptr<LinkStateProtocol> protocol;
};

TEST_F(LinkStateFixture, InitialFloodConvergesAllViews) {
  for (const NodeId who : {a, b, c, d}) {
    EXPECT_EQ(protocol->lsdb(who).size(), 4u) << who;
    for (const NodeId target : {a, b, c, d}) {
      EXPECT_TRUE(protocol->view_reachable(who, target)) << who << "->" << target;
    }
  }
  // Views agree with the true topology's costs.
  EXPECT_EQ(protocol->view(a).route(c)->cost, 2u);
  EXPECT_EQ(protocol->view(a).route(d)->cost, 3u);  // via b-c, cheaper than the 5-cost direct
}

TEST_F(LinkStateFixture, StaleSequenceIgnored) {
  const auto installed_before = protocol->stats().lsps_installed;
  // Re-originate b: every node sees one newer LSP; duplicates are dropped.
  topo.set_link_state(bc, false);
  topo.set_link_state(bc, true);
  protocol->notify_link_change(bc);
  sim.run();
  EXPECT_GT(protocol->stats().lsps_installed, installed_before);
  EXPECT_GT(protocol->stats().lsps_ignored, 0u);  // redundant flood copies
}

TEST_F(LinkStateFixture, LinkFailureConvergesNearFirst) {
  std::vector<std::pair<NodeId, double>> view_changes;  // (node, seconds)
  protocol->set_view_change_callback([&](NodeId node) {
    view_changes.emplace_back(node, sim.now().seconds());
  });

  topo.set_link_state(cd, false);
  protocol->notify_link_change(cd);
  sim.run();

  // All views converged: d now only reachable via the backup a-d link.
  for (const NodeId who : {a, b, c}) {
    EXPECT_TRUE(protocol->view_reachable(who, d)) << who;
  }
  EXPECT_EQ(protocol->view(c).route(d)->cost, 2u + 5u);  // c-b-a-d
  EXPECT_EQ(protocol->view(a).route(d)->cost, 5u);       // direct backup

  // The failure's endpoints (c, d) hear about it strictly before the far
  // node (b hears via flooding from c).
  double c_time = 0, b_time = 0;
  for (const auto& [node, when] : view_changes) {
    if (node == c && c_time == 0) c_time = when;
    if (node == b && b_time == 0) b_time = when;
  }
  ASSERT_GT(c_time, 0);
  ASSERT_GT(b_time, 0);
  EXPECT_LT(c_time, b_time);
}

TEST_F(LinkStateFixture, PartitionSplitsViews) {
  topo.set_link_state(bc, false);
  topo.set_link_state(ad, false);
  protocol->notify_link_change(bc);
  protocol->notify_link_change(ad);
  sim.run();
  // {a, b} and {c, d} are now separate islands.
  EXPECT_TRUE(protocol->view_reachable(a, b));
  EXPECT_FALSE(protocol->view_reachable(a, c));
  EXPECT_FALSE(protocol->view_reachable(a, d));
  EXPECT_TRUE(protocol->view_reachable(c, d));
  EXPECT_FALSE(protocol->view_reachable(c, b));
}

TEST_F(LinkStateFixture, NodeDeathRemovedByTwoWayCheck) {
  topo.set_node_state(c, false);
  protocol->notify_node_change(c);
  sim.run();
  // c's stale LSP may linger in LSDBs, but its neighbors no longer report
  // it, so the two-way check erases its links everywhere.
  EXPECT_FALSE(protocol->view_reachable(a, c));
  EXPECT_FALSE(protocol->view_reachable(b, c));
  // d stays reachable via the backup link.
  EXPECT_TRUE(protocol->view_reachable(b, d));
  EXPECT_EQ(protocol->view(b).route(d)->cost, 1u + 5u);  // b-a-d
}

TEST_F(LinkStateFixture, NodeRecoveryReconverges) {
  topo.set_node_state(c, false);
  protocol->notify_node_change(c);
  sim.run();
  ASSERT_FALSE(protocol->view_reachable(a, c));

  topo.set_node_state(c, true);
  protocol->notify_node_change(c);
  sim.run();
  for (const NodeId who : {a, b, d}) {
    EXPECT_TRUE(protocol->view_reachable(who, c)) << who;
  }
  // The recovered node itself relearns the full topology.
  for (const NodeId target : {a, b, d}) {
    EXPECT_TRUE(protocol->view_reachable(c, target)) << target;
  }
}

TEST_F(LinkStateFixture, ConvergenceTimingBounds) {
  // For a failure at c-d, node b's view updates no earlier than
  // kFailureDetection + one flood hop + kSpfDelay, and not much later.
  double b_time = -1;
  protocol->set_view_change_callback([&](NodeId node) {
    if (node == b && b_time < 0) b_time = sim.now().seconds();
  });
  const double t0 = sim.now().seconds();
  topo.set_link_state(cd, false);
  protocol->notify_link_change(cd);
  sim.run();
  ASSERT_GE(b_time, 0);
  const double elapsed = b_time - t0;
  const double lower = 0.300 + 0.001 + 0.050;          // detect + 1 hop + spf
  const double upper = 0.300 + 3 * 0.002 + 0.050 + 0.1;  // generous slack
  EXPECT_GE(elapsed, lower);
  EXPECT_LE(elapsed, upper);
}

TEST(LinkStateScale, WarehouseStarConverges) {
  // 200 spokes + hub: the flood settles and every spoke sees every other.
  sim::Simulator sim;
  Topology topo;
  const NodeId hub = topo.add_node("hub", rloc(1000));
  std::vector<NodeId> spokes;
  for (int i = 0; i < 200; ++i) {
    spokes.push_back(topo.add_node("s" + std::to_string(i), rloc(static_cast<std::uint32_t>(i))));
    topo.add_link(hub, spokes.back(), us100);
  }
  LinkStateProtocol protocol{sim, topo};
  protocol.start();
  sim.run();
  EXPECT_TRUE(protocol.view_reachable(spokes[0], spokes[199]));
  EXPECT_EQ(protocol.view(spokes[0]).route(spokes[199])->hop_count, 2u);
  EXPECT_EQ(protocol.lsdb(spokes[7]).size(), 201u);
}

}  // namespace
}  // namespace sda::underlay
