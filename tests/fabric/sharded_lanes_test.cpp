#include "fabric/lanes.hpp"

#include <gtest/gtest.h>

#include <string>

#include "fabric/fabric.hpp"
#include "fabric/sharding.hpp"

namespace sda::fabric {
namespace {

LaneFabricConfig small_config(std::size_t workers) {
  LaneFabricConfig cfg;
  cfg.lanes = 4;
  cfg.workers = workers;
  cfg.edges_per_lane = 8;
  cfg.hops_per_packet = 48;
  cfg.packets_per_edge = 2;
  cfg.cross_lane_fraction = 0.4;  // force heavy cross-shard traffic
  cfg.seed = 12345;
  cfg.record_log = true;
  return cfg;
}

TEST(LaneFabricTest, PlanHomesLanesAndDerivesLookahead) {
  LaneFabric fabric(small_config(1));
  const ShardPlan& plan = fabric.plan();
  EXPECT_EQ(plan.shards, 4u);
  // 4 hubs fully meshed: 6 cross-lane links, and nothing else crosses.
  EXPECT_EQ(plan.cross_links, 6u);
  EXPECT_EQ(plan.lookahead, std::chrono::microseconds{200});
  for (const auto& members : plan.members) {
    EXPECT_EQ(members.size(), 9u);  // hub + 8 edges
  }
  EXPECT_EQ(fabric.core().lookahead(), plan.lookahead);
}

TEST(LaneFabricTest, TrafficCrossesShardsAndStaysConservative) {
  LaneFabric fabric(small_config(2));
  fabric.run();
  // 64 packets x 49 arrivals each (48 hops + the injection arrival).
  EXPECT_EQ(fabric.hops_delivered(), 64u * 49u);
  EXPECT_GT(fabric.cross_lane_posts(), 0u);
  // The lookahead bound is honored: nothing ever arrived below a shard's
  // clock, so the conservative window never clamped an event forward.
  EXPECT_EQ(fabric.late_posts(), 0u);
}

// The tentpole oracle: a seeded run must produce a byte-identical flight
// log no matter how many workers execute it.
TEST(LaneFabricDeterminismTest, FlightLogByteIdenticalAcrossWorkerCounts) {
  LaneFabric w1(small_config(1));
  LaneFabric w4(small_config(4));
  w1.run();
  w4.run();
  ASSERT_GT(w1.cross_lane_posts(), 0u);  // the comparison must be non-trivial
  EXPECT_EQ(w1.log_digest(), w4.log_digest());
  const std::string log1 = w1.flight_log();
  const std::string log4 = w4.flight_log();
  ASSERT_FALSE(log1.empty());
  EXPECT_EQ(log1, log4);
}

TEST(LaneFabricDeterminismTest, HoldsUnderFaultInjection) {
  auto chaos = [](std::size_t workers) {
    LaneFabricConfig cfg = small_config(workers);
    cfg.fault_drop_per_million = 50'000;  // 5% in-transit drops
    cfg.record_log = true;
    return cfg;
  };
  LaneFabric w1(chaos(1));
  LaneFabric w4(chaos(4));
  w1.run();
  w4.run();
  EXPECT_GT(w1.fault_drops(), 0u);
  EXPECT_EQ(w1.fault_drops(), w4.fault_drops());
  EXPECT_EQ(w1.hops_delivered(), w4.hops_delivered());
  EXPECT_EQ(w1.flight_log(), w4.flight_log());
}

TEST(LaneFabricTest, MergedMetricsFoldAcrossLanes) {
  LaneFabric fabric(small_config(2));
  fabric.run();
  const telemetry::Snapshot merged = fabric.merged_metrics();
  ASSERT_TRUE(merged.counters.contains("lane.delivered"));
  EXPECT_EQ(merged.counters.at("lane.delivered"), fabric.hops_delivered());
  ASSERT_TRUE(merged.counters.contains("underlay.remote_posts"));
  EXPECT_EQ(merged.counters.at("underlay.remote_posts"), fabric.cross_lane_posts());
  ASSERT_TRUE(merged.counters.contains("map_cache.hits"));
  EXPECT_GT(merged.counters.at("map_cache.hits"), 0u);
}

TEST(ShardPlanTest, EdgeGroupPlanHomesControlToLaneZero) {
  underlay::Topology topo;
  std::vector<underlay::NodeId> edges;
  const underlay::NodeId border =
      topo.add_node("border", net::Ipv4Address{0x0B000001u});
  for (std::uint32_t i = 0; i < 8; ++i) {
    const underlay::NodeId e =
        topo.add_node("edge" + std::to_string(i), net::Ipv4Address{0x0B000100u + i});
    topo.add_link(border, e, std::chrono::microseconds{30});
    edges.push_back(e);
  }
  const ShardPlan plan = compute_edge_group_plan(topo, 4, edges, {border});
  EXPECT_EQ(plan.shards, 4u);
  EXPECT_EQ(plan.shard_of(border), 0u);
  // Contiguous construction-order distribution: first two edges on lane 0.
  EXPECT_EQ(plan.shard_of(edges[0]), 0u);
  EXPECT_EQ(plan.shard_of(edges[1]), 0u);
  EXPECT_EQ(plan.shard_of(edges[7]), 3u);
  // Edges on lanes 1..3 reach the border over a cross-lane link.
  EXPECT_EQ(plan.cross_links, 6u);
  EXPECT_EQ(plan.lookahead, std::chrono::microseconds{30});
}

TEST(ShardPlanTest, SingleLanePlanIsTrivial) {
  underlay::Topology topo;
  const underlay::NodeId a = topo.add_node("a", net::Ipv4Address{0x0C000001u});
  const underlay::NodeId b = topo.add_node("b", net::Ipv4Address{0x0C000002u});
  topo.add_link(a, b, std::chrono::microseconds{10});
  const ShardPlan plan = compute_shard_plan(topo, {{a, b}});
  EXPECT_EQ(plan.shards, 1u);
  EXPECT_EQ(plan.cross_links, 0u);
  EXPECT_EQ(plan.lookahead.count(), 0);
}

}  // namespace
}  // namespace sda::fabric
