// The design-choice ablations' claims, asserted on the structs the runners
// return: one test per claim of EXPERIMENTS.md's §5 table, each with the
// bound the paper or that table states.
#include "workload/ablations.hpp"

#include <gtest/gtest.h>

#include <string>

#include "workload/warehouse.hpp"

namespace sda::workload {
namespace {

// §3.4: a roam costs the reactive plane 2K+2 messages whatever the fabric
// size, and the proactive plane E+1 whoever talks.
TEST(Ablations, SmrSignallingTracksCorrespondentsNotEdges) {
  const auto rows = run_smr_fanout_ablation();
  ASSERT_EQ(rows.size(), 10u);
  for (const SmrFanoutRow& r : rows) {
    SCOPED_TRACE("E=" + std::to_string(r.edges) + " K=" + std::to_string(r.senders));
    EXPECT_EQ(r.reactive, 2u * r.senders + 2u);
    EXPECT_EQ(r.proactive, r.edges + 1u);
  }
}

// §3.2.2: with the border default route no packet of a cold opening burst is
// lost, however slow the routing server.
TEST(Ablations, DefaultRouteLosesNoFirstPacket) {
  const FirstPacketAblation a = run_first_packet_ablation();
  ASSERT_EQ(a.rows.size(), 3u);
  for (const FirstPacketRow& row : a.rows) {
    SCOPED_TRACE("service " + std::to_string(row.service_us) + " us");
    EXPECT_EQ(row.sda.first_packets_lost, 0u);
    EXPECT_EQ(row.sda.flows_delivered, FirstPacketAblation::kColdFlows);
  }
}

// §3.2.2: the border absorbs the resolution delay, so the first packet takes
// the same border detour at every service time; drop-on-miss loses the head
// of every cold flow, and more of it the slower the server.
TEST(Ablations, DropOnMissLosesEveryColdFlowsHead) {
  const FirstPacketAblation a = run_first_packet_ablation();
  ASSERT_EQ(a.rows.size(), 3u);
  const double sda_median = a.rows.front().sda.first_packet_ms.median();
  std::uint64_t previous_lost = 0;
  for (const FirstPacketRow& row : a.rows) {
    SCOPED_TRACE("service " + std::to_string(row.service_us) + " us");
    EXPECT_DOUBLE_EQ(row.sda.first_packet_ms.median(), sda_median);
    EXPECT_EQ(row.classic.flows_lossy, FirstPacketAblation::kColdFlows)
        << "a cold flow lost nothing";
    EXPECT_GT(row.classic.first_packets_lost, previous_lost);
    previous_lost = row.classic.first_packets_lost;
  }
}

// §5.3: ingress enforcement installs 4x the SGACL state, keeps the denied
// frames off the fabric, and delivers exactly what egress delivers.
TEST(Ablations, IngressEnforcementQuadruplesRuleState) {
  const EnforcementPointAblation a = run_enforcement_point_ablation();
  EXPECT_GT(a.egress.total_rules, 0u);
  EXPECT_EQ(a.ingress.total_rules, 4 * a.egress.total_rules);
  EXPECT_EQ(a.ingress.delivered, a.egress.delivered);
  EXPECT_GT(a.egress.dropped_at_egress, 0u);
  EXPECT_EQ(a.ingress.dropped_at_ingress, a.egress.dropped_at_egress);
  EXPECT_GT(a.egress.wasted_fabric_bytes, 0u);
  EXPECT_EQ(a.ingress.wasted_fabric_bytes, 0u);
  EXPECT_LT(a.ingress.fabric_frames, a.egress.fabric_frames)
      << "ingress enforcement let the denied frames onto the fabric";
}

// §5.4: moving endpoints costs one signal per endpoint, rewriting ACLs one
// push per (source group, reachable group) rule, since one edge hosts each
// reachable group, and neither always wins.
TEST(Ablations, PolicyUpdateCheaperStrategyFlips) {
  const auto rows = run_policy_update_ablation();
  bool move_wins = false, rules_win = false;
  for (const PolicyUpdateRow& r : rows) {
    SCOPED_TRACE(r.scenario.name);
    EXPECT_EQ(r.move_signals, r.scenario.cohort);
    EXPECT_EQ(r.rule_pushes, std::uint64_t{r.scenario.groups} * r.scenario.reach);
    (r.move_cheaper() ? move_wins : rules_win) = true;
  }
  EXPECT_TRUE(move_wins);
  EXPECT_TRUE(rules_win);
}

// §1-2 CAPEX: shrinking the edge FIB never drops traffic; it only lowers the
// hit rate, which rises with every step of capacity.
TEST(Ablations, SmallFibNeverDropsTraffic) {
  const CacheCapacityAblation a = run_cache_capacity_ablation();
  ASSERT_EQ(a.rows.size(), 6u);
  double previous_hit_rate = 0;
  for (const CacheCapacityRow& r : a.rows) {
    SCOPED_TRACE("capacity " + std::to_string(r.capacity));
    EXPECT_EQ(r.delivered, CacheCapacityAblation::kPackets);
    EXPECT_GT(r.hit_rate, previous_hit_rate);
    previous_hit_rate = r.hit_rate;
    if (r.capacity != 0) {
      EXPECT_LE(r.max_fib, r.capacity);
    }
  }
}

// Conclusion's "large gatherings": onboarding is flat while the RADIUS pool
// keeps up and collapses once it is oversubscribed.
TEST(Ablations, OnboardingCollapsesPastUtilizationOne) {
  const OnboardingStormAblation a = run_onboarding_storm_ablation();
  ASSERT_EQ(a.rows.size(), 9u);
  bool saw_overload = false;
  for (const OnboardingStormRow& r : a.rows) {
    SCOPED_TRACE(std::to_string(r.arrivals_per_second) + "/s on " + std::to_string(r.workers));
    EXPECT_EQ(r.onboarding_ms.count(), OnboardingStormAblation::kDevices);
    if (r.utilization <= 0.4) {
      EXPECT_LT(r.onboarding_ms.percentile(99), 15.0);
    }
    if (r.utilization >= 1.6) {
      saw_overload = true;
      EXPECT_GT(r.onboarding_ms.percentile(99), 1000.0);
    }
  }
  EXPECT_TRUE(saw_overload);
}

// §5.1: the blackhole lasts until the IGP converges, so loss never falls as
// convergence slows, and 1 s of convergence at 1 kHz loses about 1,000.
TEST(Ablations, OutageLossGrowsWithIgpConvergence) {
  const UnderlayOutageAblation a = run_underlay_outage_ablation();
  ASSERT_EQ(a.rows.size(), 6u);
  std::uint64_t previous_lost = 0;
  for (const OutageRow& r : a.rows) {
    SCOPED_TRACE(std::to_string(r.convergence_ms) + " ms");
    EXPECT_EQ(r.sent, 3000u);
    EXPECT_GE(r.lost(), previous_lost);
    EXPECT_EQ(r.purged_entries, 1u) << "the watcher never purged the dead RLOC";
    previous_lost = r.lost();
  }
  EXPECT_GT(a.rows.back().lost(), a.rows.front().lost());
  EXPECT_EQ(a.rows.back().convergence_ms, 1000u);
  EXPECT_GE(a.rows.back().lost(), 1000u);
  EXPECT_LE(a.rows.back().lost(), 1010u);
}

// §5.1 addendum: the link-state module's view convergence is detection plus
// SPF delay plus a few flooding hops, nearly the same at every node.
TEST(Ablations, LinkStateConvergenceIsDetectFloodSpf) {
  const stats::Summary& view = run_underlay_outage_ablation().link_state_view_ms;
  EXPECT_EQ(view.count(), 15u) << "every surviving node must lose the dead edge";
  EXPECT_GE(view.min(), 350.0);  // 300 ms detection + 50 ms SPF
  EXPECT_LT(view.max() - view.min(), 2.0);
}

// §2, Table 1: the centralized WLAN at least doubles median data latency
// and tunnels every frame through its controller; it wins only on handover.
TEST(Ablations, CentralizedWlanWinsOnlyOnHandover) {
  const WlanDataplaneAblation a = run_wlan_dataplane_ablation();
  const WlanArm& dist = a.distributed;
  const WlanArm& cent = a.centralized;
  EXPECT_GE(cent.data_latency_ms.median(), 2 * dist.data_latency_ms.median());
  EXPECT_GT(cent.data_latency_ms.percentile(95), dist.data_latency_ms.percentile(95));
  EXPECT_LT(cent.handover_ms.median(), dist.handover_ms.median());
  EXPECT_EQ(dist.frames_tunneled, 0u);
  EXPECT_GT(cent.frames_tunneled, 0u);
  EXPECT_EQ(dist.controller_busy_us, 0u);
  EXPECT_GT(cent.controller_busy_us, 0u);
}

// Fig. 11 at the paper's scale: the proactive plane's median handover is at
// least 5x the reactive one's (the paper reports about 10x).
TEST(Ablations, Fig11PaperScale) {
  WarehouseWorkload warehouse{fig11_spec()};
  const stats::Summary lisp = warehouse.run_reactive();
  const stats::Summary bgp = warehouse.run_proactive();
  ASSERT_GT(lisp.count(), 0u);
  ASSERT_GT(bgp.count(), 0u);
  EXPECT_GE(bgp.median() / lisp.median(), 5.0);
}

}  // namespace
}  // namespace sda::workload
