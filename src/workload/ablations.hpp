// Design-choice ablations: the paper's §3 and §5 arguments, each re-run on a
// DrillFabric with the choice on and off.
//
// Each runner sweeps its knob, drives every arm to quiesce and returns a
// plain result struct. The bench_ablation_* binaries print them;
// tests/workload/ablations_test.cpp asserts every claim EXPERIMENTS.md
// draws from them. Seeded and deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "stats/summary.hpp"

namespace sda::workload {

// --- Cache capacity (§1-2 CAPEX): edge FIB size vs control and border load --
//
// Zipf(1.0)-skewed destinations over a star, the edge map-cache capacity
// swept. Misses ride the border default route, so a small FIB costs
// Map-Requests and border hairpins, never delivery.

struct CacheCapacityRow {
  std::size_t capacity = 0;  // 0 is unbounded
  double hit_rate = 0;
  std::uint64_t map_requests = 0;
  std::uint64_t default_routed = 0;
  std::uint64_t evictions = 0;
  std::size_t max_fib = 0;
  std::uint64_t delivered = 0;
};

struct CacheCapacityAblation {
  static constexpr unsigned kEdges = 8;
  static constexpr unsigned kHosts = 240;
  static constexpr unsigned kPackets = 40000;
  std::vector<CacheCapacityRow> rows;  // capacity 4, 8, 16, 32, 64, unbounded
};

[[nodiscard]] CacheCapacityAblation run_cache_capacity_ablation();

// --- Enforcement point (§5.3): ingress vs egress SGACL ----------------------
//
// The same policy (a quarter of the directed pairs of 12 groups denied) and
// uniform traffic, enforced at egress (SDA: each edge holds the rules of its
// local destination groups) or at ingress (the whole matrix everywhere).
// Each edge hosts 3 of the 12 groups, the locality egress exploits.

struct EnforcementArm {
  std::size_t total_rules = 0;
  std::size_t max_rules_per_edge = 0;
  // Every policy drop, counted at the arm's enforcement point.
  std::uint64_t dropped_at_ingress = 0;
  std::uint64_t dropped_at_egress = 0;
  std::uint64_t wasted_fabric_bytes = 0;  // dropped_at_egress × one encapsulated frame
  std::uint64_t fabric_frames = 0;        // frames the edges encapsulated
  std::uint64_t delivered = 0;
};

struct EnforcementPointAblation {
  static constexpr unsigned kEdges = 8;
  static constexpr unsigned kGroups = 12;
  static constexpr unsigned kEndpointsPerEdge = 12;
  static constexpr unsigned kFlows = 4000;
  EnforcementArm egress;
  EnforcementArm ingress;
};

[[nodiscard]] EnforcementPointAblation run_enforcement_point_ablation();

// --- First packet (§3.2.2): border default route vs drop-on-miss ------------
//
// Cold flows open with a 5-packet burst, 2 ms apart, then send one warm
// packet. No two flows share a (sender edge, destination) pair, so every
// burst starts on a map-cache miss. The routing server's service time is
// swept: 25 µs, 2,025 µs and 10,025 µs.

struct FirstPacketArm {
  std::uint64_t flows_delivered = 0;  // got at least one burst packet through
  std::uint64_t flows_lossy = 0;      // lost at least one burst packet
  std::uint64_t first_packets_sent = 0;
  std::uint64_t first_packets_lost = 0;
  stats::Summary first_packet_ms;  // burst start -> first delivery, delivered flows
  stats::Summary warm_packet_ms;
};

struct FirstPacketRow {
  unsigned service_us = 0;
  FirstPacketArm sda;      // border default route
  FirstPacketArm classic;  // drop on miss
};

struct FirstPacketAblation {
  static constexpr unsigned kEdges = 10;
  static constexpr unsigned kHostsPerEdge = 8;
  static constexpr unsigned kColdFlows = 300;
  static constexpr unsigned kBurst = 5;
  std::vector<FirstPacketRow> rows;
};

[[nodiscard]] FirstPacketAblation run_first_packet_ablation();

// --- Onboarding storm: flash-crowd authentication ---------------------------
//
// 2,000 devices arrive Poisson on 20 edges; each onboarding costs two EAP
// rounds of 2 ms RADIUS CPU. Arrival rate and worker count are swept.

struct OnboardingStormRow {
  double arrivals_per_second = 0;
  unsigned workers = 0;
  double utilization = 0;  // offered RADIUS CPU / workers
  stats::Summary onboarding_ms;
};

struct OnboardingStormAblation {
  static constexpr unsigned kEdges = 20;
  static constexpr unsigned kDevices = 2000;
  std::vector<OnboardingStormRow> rows;
};

[[nodiscard]] OnboardingStormAblation run_onboarding_storm_ablation();

// --- Policy update (§5.4): move endpoints vs rewrite group ACLs -------------
//
// Grant a cohort the access of a target group that may reach `reach`
// destination groups: either move each endpoint into the target group (one
// signal each) or extend the target's rules to every source group of the
// cohort (one push per rule to each edge hosting its destination group; one
// service endpoint hosts each destination group here).

struct PolicyUpdateScenario {
  std::string name;
  unsigned groups = 0;  // the cohort is split across this many source groups
  unsigned cohort = 0;  // endpoints being granted access
  unsigned edges = 0;   // edges hosting them
  unsigned reach = 0;   // destination groups the target group may reach
};

struct PolicyUpdateRow {
  PolicyUpdateScenario scenario;
  std::uint64_t move_signals = 0;  // strategy A: endpoint group moves
  std::uint64_t rule_pushes = 0;   // strategy B: matrix updates

  [[nodiscard]] bool move_cheaper() const { return move_signals <= rule_pushes; }
};

[[nodiscard]] std::vector<PolicyUpdateRow> run_policy_update_ablation();

// --- SMR fan-out (§3.4): mobility signalling vs traffic pattern -------------
//
// One host roams while K correspondents keep sending to it, in fabrics of E
// edges. Reactive: Map-Register, Map-Notify, pub/sub, data-triggered SMRs
// and re-requests. Proactive: the route reflected to every edge and border.

struct SmrFanoutRow {
  unsigned edges = 0;
  unsigned senders = 0;
  std::uint64_t reactive = 0;
  std::uint64_t proactive = 0;
};

/// E in {25, 50, 100, 200}, K in {4, 16, 64} with K < E.
[[nodiscard]] std::vector<SmrFanoutRow> run_smr_fanout_ablation();

// --- Underlay outage (§5.1): IGP convergence vs packets lost ----------------
//
// A 1 kHz flow; the destination edge dies at t = 1 s and its endpoint
// re-homes 100 ms later. The sender's cache blackholes until the IGP
// watcher purges it. The addendum runs the link-state module itself: the
// per-node view convergence after an edge dies in a three-tier campus.

struct OutageRow {
  unsigned convergence_ms = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t purged_entries = 0;

  [[nodiscard]] std::uint64_t lost() const { return sent - delivered; }
};

struct UnderlayOutageAblation {
  std::vector<OutageRow> rows;  // convergence 25, 50, 100, 200, 500, 1000 ms
  /// Per node of the link-state campus (2 borders, 2 distribution, 12
  /// edges; 300 ms detection, 1 ms per flooding hop, 50 ms SPF delay): ms
  /// from the edge's death until the node's view lost it.
  stats::Summary link_state_view_ms;
};

[[nodiscard]] UnderlayOutageAblation run_underlay_outage_ablation();

// --- WLAN data plane (§2, Table 1): distributed vs centralized --------------
//
// The same stations, traffic and roams through SDA's distributed data plane
// and through a legacy controller that every frame is tunnelled to.

struct WlanArm {
  stats::Summary data_latency_ms;  // one probe at a time, caches warm
  stats::Summary handover_ms;
  std::uint64_t frames_tunneled = 0;
  std::uint64_t controller_busy_us = 0;
  std::uint64_t delivered = 0;
};

struct WlanDataplaneAblation {
  static constexpr unsigned kEdges = 6;
  static constexpr unsigned kApsPerEdge = 2;
  static constexpr unsigned kStations = 120;
  WlanArm distributed;
  WlanArm centralized;
};

[[nodiscard]] WlanDataplaneAblation run_wlan_dataplane_ablation();

}  // namespace sda::workload
