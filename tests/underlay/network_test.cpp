#include "underlay/network.hpp"

#include <gtest/gtest.h>

namespace sda::underlay {
namespace {

net::Ipv4Address rloc(std::uint32_t i) { return net::Ipv4Address{0x0A000000u + i}; }
constexpr auto us50 = std::chrono::microseconds{50};

struct NetworkFixture : ::testing::Test {
  void SetUp() override {
    a = topo.add_node("a", rloc(1));
    b = topo.add_node("b", rloc(2));
    c = topo.add_node("c", rloc(3));
    ab = topo.add_link(a, b, us50);
    bc = topo.add_link(b, c, us50);
    net = std::make_unique<UnderlayNetwork>(sim, topo);
  }

  sim::Simulator sim;
  Topology topo;
  NodeId a{}, b{}, c{};
  LinkId ab{}, bc{};
  std::unique_ptr<UnderlayNetwork> net;
};

TEST_F(NetworkFixture, ReachabilityOverPath) {
  EXPECT_TRUE(net->reachable(a, rloc(3)));
  EXPECT_FALSE(net->reachable(a, rloc(99)));
}

TEST_F(NetworkFixture, TransitDelayIncludesHopsAndSerialization) {
  const auto d = net->transit_delay(a, rloc(3), 0, 0);
  ASSERT_TRUE(d.has_value());
  // 2 links * 50us + 2 hops * 5us processing.
  EXPECT_EQ(*d, us50 * 2 + std::chrono::microseconds{10});
  const auto with_bytes = net->transit_delay(a, rloc(3), 0, 1500);
  EXPECT_GT(*with_bytes, *d);
}

TEST_F(NetworkFixture, TransitDelayToSelfIsZero) {
  EXPECT_EQ(net->transit_delay(a, rloc(1), 0, 100), sim::Duration{0});
}

TEST_F(NetworkFixture, DeliverSchedulesArrival) {
  bool arrived = false;
  EXPECT_TRUE(net->deliver(a, c, 100, [&] { arrived = true; }));
  EXPECT_FALSE(arrived);
  sim.run();
  EXPECT_TRUE(arrived);
  EXPECT_GT(sim.now(), sim::SimTime::zero());
}

TEST_F(NetworkFixture, DeliverDropsWhenUnreachable) {
  topo.set_link_state(ab, false);
  bool arrived = false;
  EXPECT_FALSE(net->deliver(a, c, 100, [&] { arrived = true; }));
  sim.run();
  EXPECT_FALSE(arrived);
  EXPECT_EQ(net->unreachable_drops(), 1u);
}

TEST_F(NetworkFixture, DeliverDropsWhenDestinationIsNoNode) {
  bool arrived = false;
  EXPECT_FALSE(net->deliver(a, kInvalidNode, 100, [&] { arrived = true; }));
  sim.run();
  EXPECT_FALSE(arrived);
  EXPECT_EQ(net->unreachable_drops(), 1u);
}

TEST_F(NetworkFixture, TablesRefreshAfterTopologyChange) {
  EXPECT_TRUE(net->reachable(a, rloc(3)));
  topo.set_link_state(bc, false);
  EXPECT_FALSE(net->reachable(a, rloc(3)));
  topo.set_link_state(bc, true);
  EXPECT_TRUE(net->reachable(a, rloc(3)));
}

TEST_F(NetworkFixture, WatcherNotifiedAfterConvergenceDelay) {
  std::vector<std::pair<net::Ipv4Address, bool>> events;
  net->watch(a, [&](net::Ipv4Address r, bool up) { events.emplace_back(r, up); });

  topo.set_link_state(bc, false);
  net->topology_changed();
  EXPECT_TRUE(events.empty());  // not yet: IGP needs to converge
  sim.run();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].first, rloc(3));
  EXPECT_FALSE(events[0].second);

  topo.set_link_state(bc, true);
  net->topology_changed();
  sim.run();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_TRUE(events[1].second);
}

TEST_F(NetworkFixture, WatcherOnlySeesTransitions) {
  int count = 0;
  net->watch(a, [&](net::Ipv4Address, bool) { ++count; });
  net->topology_changed();  // nothing actually changed
  sim.run();
  EXPECT_EQ(count, 0);
}

TEST_F(NetworkFixture, MultipleChangesCoalesceIntoOneNotification) {
  int count = 0;
  net->watch(a, [&](net::Ipv4Address, bool) { ++count; });
  topo.set_link_state(bc, false);
  net->topology_changed();
  net->topology_changed();
  net->topology_changed();
  sim.run();
  EXPECT_EQ(count, 1);
}

TEST_F(NetworkFixture, RapidFlapsEndingUpProduceNoStaleCallbacks) {
  std::vector<std::pair<net::Ipv4Address, bool>> events;
  net->watch(a, [&](net::Ipv4Address r, bool up) {
    // Every callback must agree with the network's view at delivery time.
    EXPECT_EQ(up, net->reachable(a, r));
    events.emplace_back(r, up);
  });

  // Four transitions packed inside one igp_convergence window (200ms),
  // ending back in the up state the watcher started from.
  const auto step = std::chrono::milliseconds{10};
  for (int i = 0; i < 4; ++i) {
    sim.schedule_at(sim::SimTime{step * (i + 1)}, [this, i] {
      topo.set_link_state(bc, i % 2 != 0);
      net->topology_changed();
    });
  }
  sim.run();
  // Net-zero change: a watcher that reported anything saw a stale snapshot.
  EXPECT_TRUE(events.empty());
}

TEST_F(NetworkFixture, RapidFlapsEndingDownReportOneAccurateTransition) {
  std::vector<std::pair<net::Ipv4Address, bool>> events;
  net->watch(a, [&](net::Ipv4Address r, bool up) {
    EXPECT_EQ(up, net->reachable(a, r));
    events.emplace_back(r, up);
  });

  const auto step = std::chrono::milliseconds{10};
  for (int i = 0; i < 5; ++i) {  // odd transition count: link ends down
    sim.schedule_at(sim::SimTime{step * (i + 1)}, [this, i] {
      topo.set_link_state(bc, i % 2 != 0);
      net->topology_changed();
    });
  }
  sim.run();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].first, rloc(3));
  EXPECT_FALSE(events[0].second);
  EXPECT_FALSE(net->reachable(a, rloc(3)));
}

TEST_F(NetworkFixture, NodeFlapsAcrossWindowsAlternateStrictly) {
  std::vector<bool> states;
  net->watch(a, [&](net::Ipv4Address r, bool up) {
    if (r == rloc(3)) states.push_back(up);
  });
  // Down/up transitions spaced wider than igp_convergence so each lands in
  // its own notification window: the reported sequence must alternate with
  // no duplicated (stale) state.
  const auto spacing = std::chrono::milliseconds{250};
  for (int i = 0; i < 6; ++i) {
    sim.schedule_at(sim::SimTime{spacing * (i + 1)}, [this, i] {
      topo.set_node_state(c, i % 2 != 0);
      net->topology_changed();
    });
  }
  sim.run();
  ASSERT_EQ(states.size(), 6u);
  for (std::size_t i = 0; i < states.size(); ++i) {
    EXPECT_EQ(states[i], i % 2 != 0) << "callback " << i;
  }
}

TEST_F(NetworkFixture, NodeDownReportsItsRlocUnreachable) {
  std::vector<net::Ipv4Address> down;
  net->watch(a, [&](net::Ipv4Address r, bool up) {
    if (!up) down.push_back(r);
  });
  topo.set_node_state(c, false);
  net->topology_changed();
  sim.run();
  ASSERT_EQ(down.size(), 1u);
  EXPECT_EQ(down[0], rloc(3));
}

}  // namespace
}  // namespace sda::underlay
