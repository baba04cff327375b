#include "workload/ablations.hpp"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>

#include "bgp/route_reflector.hpp"
#include "sim/random.hpp"
#include "underlay/linkstate.hpp"
#include "wlan/controller.hpp"
#include "workload/drills.hpp"

namespace sda::workload {

namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;

/// The default config without an L2 gateway; every ablation starts here.
fabric::FabricConfig base_config(std::uint64_t seed = fabric::FabricConfig{}.seed) {
  fabric::FabricConfig config;
  config.l2_gateway = false;
  config.seed = seed;
  return config;
}

double ms_between(sim::SimTime from, sim::SimTime to) {
  return static_cast<double>((to - from).count()) / 1e6;
}

void count_deliveries(DrillFabric& d, std::uint64_t& delivered) {
  d.fabric.set_delivery_listener(
      [&delivered](const dataplane::AttachedEndpoint&, const net::OverlayFrame&, sim::SimTime) {
        ++delivered;
      });
}

// --- Cache capacity ---------------------------------------------------------

CacheCapacityRow run_cache_capacity(std::size_t capacity) {
  using A = CacheCapacityAblation;
  fabric::FabricConfig config = base_config(23);
  config.edge_map_cache_capacity = capacity;
  DrillFabric d{config, A::kEdges};
  d.provision(A::kHosts, A::kHosts);
  d.sim.run();

  CacheCapacityRow row;
  row.capacity = capacity;
  count_deliveries(d, row.delivered);

  // Zipf-skewed destinations (popular servers + long tail), Poisson sends.
  sim::Rng rng{41};
  sim::ZipfSampler popularity{A::kHosts, 1.0};
  sim::SimTime at;
  for (unsigned p = 0; p < A::kPackets; ++p) {
    at += rng.exp_interarrival(2000.0);
    const auto src = static_cast<int>(rng.next_below(A::kHosts));
    auto dst = popularity.sample(rng);
    if (dst == static_cast<std::size_t>(src)) dst = (dst + 1) % A::kHosts;
    d.sim.schedule_at(at, [&d, src, dst] {
      d.fabric.endpoint_send_udp(DrillFabric::mac(src), d.ips[dst], 443, 200);
    });
  }
  d.sim.run();

  std::uint64_t hits = 0, misses = 0;
  for (const auto& name : d.edges) {
    const auto& edge = d.fabric.edge(name);
    hits += edge.map_cache().stats().hits;
    misses += edge.map_cache().stats().misses;
    row.map_requests += edge.counters().map_requests_sent;
    row.default_routed += edge.counters().default_routed;
    row.evictions += edge.map_cache().stats().evictions;
    row.max_fib = std::max(row.max_fib, edge.fib_size());
  }
  row.hit_rate = static_cast<double>(hits) / static_cast<double>(hits + misses);
  return row;
}

// --- Enforcement point ------------------------------------------------------

EnforcementArm run_enforcement(bool enforce_on_ingress) {
  using A = EnforcementPointAblation;
  constexpr std::uint16_t kPayload = 400;
  fabric::FabricConfig config = base_config(17);
  config.enforce_on_ingress = enforce_on_ingress;
  DrillFabric d{config, A::kEdges};

  // Deny a quarter of the directed group pairs.
  sim::Rng policy_rng{3};
  std::vector<policy::Rule> all_rules;
  for (unsigned s = 1; s <= A::kGroups; ++s) {
    for (unsigned dst = 1; dst <= A::kGroups; ++dst) {
      if (s != dst && policy_rng.chance(0.25)) {
        const policy::Rule rule{{net::GroupId{static_cast<std::uint16_t>(s)},
                                 net::GroupId{static_cast<std::uint16_t>(dst)}},
                                policy::Action::Deny};
        all_rules.push_back(rule);
        d.fabric.set_rule({kDrillVn, rule.pair.source, rule.pair.destination, rule.action});
      }
    }
  }

  // Host id on edge id / kEndpointsPerEdge; each edge hosts only 3 of the 12
  // groups (deployments cluster device types, the locality egress
  // enforcement exploits to keep rule state small).
  constexpr int kHosts = A::kEdges * A::kEndpointsPerEdge;
  d.provision(kHosts, 0, {}, [](int id) {
    const auto e = static_cast<unsigned>(id) / A::kEndpointsPerEdge;
    const auto i = static_cast<unsigned>(id) % A::kEndpointsPerEdge;
    return net::GroupId{static_cast<std::uint16_t>(1 + (e * 3 + i % 3) % A::kGroups)};
  });
  std::vector<net::Ipv4Address> onboarded;  // in the order the onboardings finished
  for (int id = 0; id < kHosts; ++id) {
    d.connect(id, static_cast<std::size_t>(id) / A::kEndpointsPerEdge, 1,
              [&onboarded](const fabric::OnboardResult& r) {
                if (r.success) onboarded.push_back(r.ip);
              });
  }
  d.sim.run();

  // Ingress mode needs the *whole* matrix at every edge: any destination
  // group can be remote (the §5.3 state-cost argument, Fig. 13 top).
  if (enforce_on_ingress) {
    for (const auto& name : d.edges) {
      for (const auto& rule : all_rules) d.fabric.edge(name).sgacl().install_rule(kDrillVn, rule);
    }
  }

  EnforcementArm arm;
  count_deliveries(d, arm.delivered);

  // Uniform random traffic matrix.
  sim::Rng traffic_rng{29};
  for (unsigned f = 0; f < A::kFlows; ++f) {
    const auto src = traffic_rng.next_below(onboarded.size());
    auto dst = traffic_rng.next_below(onboarded.size());
    if (dst == src) dst = (dst + 1) % onboarded.size();
    d.sim.schedule_after(microseconds{f * 50}, [&d, &onboarded, src, dst] {
      d.fabric.endpoint_send_udp(DrillFabric::mac(static_cast<int>(src)), onboarded[dst], 443,
                                 kPayload);
    });
  }
  d.sim.run();

  std::uint64_t policy_drops = 0;
  for (const auto& name : d.edges) {
    const auto& edge = d.fabric.edge(name);
    arm.total_rules += edge.sgacl().rule_count();
    arm.max_rules_per_edge = std::max(arm.max_rules_per_edge, edge.sgacl().rule_count());
    arm.fabric_frames += edge.counters().encapsulated;
    policy_drops += edge.counters().policy_drops;
  }
  (enforce_on_ingress ? arm.dropped_at_ingress : arm.dropped_at_egress) = policy_drops;
  // Frames dropped at egress crossed the fabric once: inner + encap bytes.
  constexpr std::uint64_t kFrameBytes = kPayload + 14 + 20 + 8 + 36;
  arm.wasted_fabric_bytes = arm.dropped_at_egress * kFrameBytes;
  return arm;
}

// --- First packet -----------------------------------------------------------

FirstPacketArm run_first_packet(bool default_route_fallback, sim::Duration service) {
  using A = FirstPacketAblation;
  fabric::FabricConfig config = base_config(5);
  config.default_route_fallback = default_route_fallback;
  // A loaded routing server has a slower service time.
  config.map_server.request_service = std::chrono::duration_cast<microseconds>(service);
  // Short edge-to-edge ring links: between ring neighbours the direct
  // overlay path is cheaper than the border detour, so the default-route
  // fallback has a visible cost. Links cost the IGP the same, so edges
  // three or more ring hops apart still route through the border.
  DrillFabric d{config, [](fabric::SdaFabric& f) {
                  f.add_border("b0");
                  std::vector<std::string> names;
                  for (unsigned e = 0; e < A::kEdges; ++e) {
                    names.push_back("e" + std::to_string(e));
                    f.add_edge(names.back());
                    f.link(names.back(), "b0", microseconds{80});
                  }
                  for (unsigned e = 0; e < A::kEdges; ++e) {
                    f.link(names[e], names[(e + 1) % A::kEdges], microseconds{20});
                  }
                  return names;
                }};
  constexpr unsigned kHosts = A::kEdges * A::kHostsPerEdge;
  d.provision(kHosts, kHosts);
  d.sim.run();

  FirstPacketArm arm;
  std::uint64_t delivered = 0;
  std::uint64_t burst_baseline = 0;
  sim::SimTime last_delivery, first_in_burst;
  d.fabric.set_delivery_listener(
      [&](const dataplane::AttachedEndpoint&, const net::OverlayFrame&, sim::SimTime at) {
        ++delivered;
        last_delivery = at;
        if (delivered == burst_baseline + 1) first_in_burst = at;
      });

  sim::Rng rng{31};
  std::set<std::pair<unsigned, unsigned>> used;  // (sender edge, destination)
  for (unsigned f = 0; f < A::kColdFlows; ++f) {
    // Always a cross-edge pair (same-edge flows never touch the map cache)
    // that no earlier flow used, so the sender's edge has not cached it.
    unsigned src = 0, dst = 0;
    do {
      src = static_cast<unsigned>(rng.next_below(kHosts));
      dst = static_cast<unsigned>(rng.next_below(kHosts));
      while (dst % A::kEdges == src % A::kEdges) dst = (dst + 1) % kHosts;
    } while (!used.emplace(src % A::kEdges, dst).second);
    const net::MacAddress src_mac = DrillFabric::mac(static_cast<int>(src));
    const net::Ipv4Address dst_ip = d.ips[dst];

    // Cold burst, 2 ms apart: a TCP-handshake-like opening. With a slow
    // routing server more of the burst falls inside the resolution window.
    burst_baseline = delivered;
    const sim::SimTime t0 = d.sim.now();
    for (unsigned p = 0; p < A::kBurst; ++p) {
      d.sim.schedule_after(milliseconds{2 * p}, [&d, src_mac, dst_ip] {
        d.fabric.endpoint_send_udp(src_mac, dst_ip, 443, 400);
      });
    }
    d.sim.run();
    arm.first_packets_sent += A::kBurst;
    const std::uint64_t got = delivered - burst_baseline;
    arm.first_packets_lost += A::kBurst - got;
    if (got < A::kBurst) ++arm.flows_lossy;
    if (got > 0) {
      ++arm.flows_delivered;
      arm.first_packet_ms.add(ms_between(t0, first_in_burst));
    }

    // Warm packet (mapping now cached): the underlay's shortest path.
    const std::uint64_t before = delivered;
    const sim::SimTime t1 = d.sim.now();
    d.fabric.endpoint_send_udp(src_mac, dst_ip, 443, 400);
    d.sim.run();
    if (delivered > before) arm.warm_packet_ms.add(ms_between(t1, last_delivery));
  }
  return arm;
}

// --- Onboarding storm -------------------------------------------------------

stats::Summary run_onboarding_storm(double arrivals_per_second, unsigned workers) {
  using A = OnboardingStormAblation;
  fabric::FabricConfig config = base_config(13);
  config.timings.policy_workers = workers;
  config.timings.auth_processing = milliseconds{2};
  DrillFabric d{config, A::kEdges};
  d.provision(A::kDevices, 0);

  stats::Summary onboarding_ms;
  sim::Rng rng{4};
  sim::SimTime at;
  for (unsigned i = 0; i < A::kDevices; ++i) {
    at += rng.exp_interarrival(arrivals_per_second);
    d.sim.schedule_at(at, [&d, &onboarding_ms, i] {
      d.connect(static_cast<int>(i), i % A::kEdges, 1,
                [&onboarding_ms](const fabric::OnboardResult& r) {
                  if (r.success) onboarding_ms.add(static_cast<double>(r.elapsed.count()) / 1e6);
                });
    });
  }
  d.sim.run();
  return onboarding_ms;
}

// --- Policy update ----------------------------------------------------------

PolicyUpdateRow run_policy_update(const PolicyUpdateScenario& s) {
  DrillFabric d{base_config(), static_cast<int>(s.edges)};

  // The target group's existing access: a deny-by-default world where the
  // target group has `reach` allow rules.
  const net::GroupId target{500};
  std::vector<net::GroupId> destinations;
  for (unsigned g = 0; g < s.reach; ++g) {
    destinations.push_back(net::GroupId{static_cast<std::uint16_t>(600 + g)});
    d.fabric.set_rule({kDrillVn, target, destinations.back(), policy::Action::Allow});
  }

  // Hosts 0..cohort-1 are the cohort, spread over source groups and edges;
  // then one service endpoint per destination group.
  const auto cohort = static_cast<int>(s.cohort);
  d.provision(cohort + static_cast<int>(s.reach), 0, {}, [&](int host) {
    return host < cohort ? net::GroupId{static_cast<std::uint16_t>(
                               1 + static_cast<unsigned>(host) % s.groups)}
                         : destinations[static_cast<std::size_t>(host - cohort)];
  });
  for (unsigned i = 0; i < s.cohort; ++i) d.connect(static_cast<int>(i), i % s.edges, 1);
  for (unsigned g = 0; g < s.reach; ++g) d.connect(cohort + static_cast<int>(g), g % s.edges, 1);
  d.sim.run();

  PolicyUpdateRow row{s};
  const auto& stats = d.fabric.policy_server().stats();

  // Strategy A: move every cohort endpoint into the target group.
  const auto signals_before = stats.endpoint_change_signals;
  for (int i = 0; i < cohort; ++i) {
    d.fabric.reassign_endpoint_group(DrillFabric::credential(i), target);
  }
  d.sim.run();
  row.move_signals = stats.endpoint_change_signals - signals_before;

  // Strategy B (counterfactual on the same fabric): instead of moving the
  // endpoints, extend each of the target group's `reach` rules to every
  // source group of the cohort.
  const auto pushes_before = stats.rule_push_messages;
  for (unsigned g = 1; g <= s.groups; ++g) {
    for (const auto destination : destinations) {
      d.fabric.update_rule({kDrillVn, net::GroupId{static_cast<std::uint16_t>(g)}, destination,
                            policy::Action::Allow});
    }
  }
  d.sim.run();
  row.rule_pushes = stats.rule_push_messages - pushes_before;
  return row;
}

// --- SMR fan-out ------------------------------------------------------------

/// Control messages the reactive plane spends on one roam of a host with
/// `senders` active correspondents in an `edges`-edge fabric.
std::uint64_t reactive_messages(unsigned edges, unsigned senders) {
  DrillFabric d{base_config(3), static_cast<int>(edges)};
  // The popular host h0 on e0, its correspondents h1.. over the other edges.
  const auto correspondents = static_cast<int>(senders);
  d.provision(1 + correspondents, 0);
  d.connect(0, 0, 1);
  for (unsigned s = 0; s < senders; ++s) d.connect(1 + static_cast<int>(s), 1 + s % (edges - 1), 1);
  d.sim.run();
  const net::Ipv4Address popular_ip = d.ips[0];
  const auto all_send = [&] {
    for (int s = 1; s <= correspondents; ++s) {
      d.fabric.endpoint_send_udp(DrillFabric::mac(s), popular_ip, 443, 100);
    }
    d.sim.run();
  };

  // Correspondents warm their caches towards the popular host.
  all_send();

  const auto control_total = [&] {
    std::uint64_t total =
        d.fabric.map_server().stats().registers + d.fabric.map_server().stats().requests;
    for (const auto& name : d.fabric.edge_names()) {
      total += d.fabric.edge(name).counters().smr_sent;
    }
    // Pub/sub messages: one per border per publish, counted as the
    // border's applied publishes and withdrawals.
    for (const auto& name : d.fabric.border_names()) {
      total += d.fabric.border(name).counters().publishes_applied +
               d.fabric.border(name).counters().withdrawals_applied;
    }
    return total;
  };

  const std::uint64_t before = control_total();
  d.fabric.roam_endpoint(DrillFabric::mac(0), d.edges.back(), 2);
  d.sim.run();
  // Every correspondent keeps talking: stale caches trigger SMRs and
  // re-resolution (Fig. 6). The second round rides refreshed caches.
  all_send();
  all_send();
  return control_total() - before;
}

/// Messages the proactive plane spends: the reflector replicates the
/// roamed host's route to every other peer, senders or not.
std::uint64_t proactive_messages(unsigned edges) {
  sim::Simulator sim;
  bgp::RouteReflector reflector{sim, bgp::ReflectorConfig{}, 5};
  std::vector<std::unique_ptr<bgp::BgpPeer>> peers;
  for (unsigned i = 0; i <= edges; ++i) {  // edges + border
    peers.push_back(std::make_unique<bgp::BgpPeer>(net::Ipv4Address{0x0A000000u + i}));
    reflector.add_client(*peers.back());
  }
  const net::VnEid eid{kDrillVn, net::Eid{net::Ipv4Address{10, 100, 0, 3}}};
  reflector.announce(peers[1]->rloc(), eid, peers[1]->rloc());
  sim.run();
  return reflector.stats().routes_replicated + 1;  // + the announcement itself
}

// --- Underlay outage --------------------------------------------------------

OutageRow run_outage(unsigned convergence_ms) {
  fabric::FabricConfig config = base_config();
  config.underlay.igp_convergence = milliseconds{convergence_ms};
  DrillFabric d{config, 3};
  d.provision(2, 2);  // h0 on e0 sends to h1 on e1
  d.sim.run();
  const net::Ipv4Address dst = d.ips[1];

  OutageRow row;
  row.convergence_ms = convergence_ms;
  count_deliveries(d, row.delivered);

  // 1 kHz flow h0 -> h1 for 3 simulated seconds.
  constexpr auto kGap = milliseconds{1};
  const auto t_outage = sim::SimTime{std::chrono::seconds{1}};
  for (int p = 0; p < 3000; ++p) {
    d.sim.schedule_at(sim::SimTime{kGap * p}, [&d, &row, dst] {
      ++row.sent;
      d.fabric.endpoint_send_udp(DrillFabric::mac(0), dst, 443, 200);
    });
  }

  // e1 dies; h1's radio re-associates via e2 100 ms later (a fresh
  // onboarding). e0's cached entry points at the dead e1 until the IGP
  // watcher fires.
  d.sim.schedule_at(t_outage, [&d] {
    auto& e1 = d.fabric.edge(d.edges[1]);
    d.fabric.topology().set_node_state(e1.config().node, false);
    d.fabric.underlay().topology_changed();
    e1.reboot();
  });
  d.sim.schedule_at(t_outage + milliseconds{100}, [&d] { d.connect(1, 2, 1); });

  d.sim.run();
  row.purged_entries = d.fabric.edge(d.edges[0]).counters().rloc_fallbacks;
  return row;
}

stats::Summary link_state_view_convergence() {
  sim::Simulator sim;
  underlay::Topology topo;
  const auto b0 = topo.add_node("b0", net::Ipv4Address{10, 0, 0, 1});
  const auto b1 = topo.add_node("b1", net::Ipv4Address{10, 0, 0, 2});
  const auto d0 = topo.add_node("d0", net::Ipv4Address{10, 0, 0, 3});
  const auto d1 = topo.add_node("d1", net::Ipv4Address{10, 0, 0, 4});
  topo.add_link(b0, b1, microseconds{20});
  for (const auto dist : {d0, d1}) {
    topo.add_link(dist, b0, microseconds{50});
    topo.add_link(dist, b1, microseconds{50});
  }
  std::vector<underlay::NodeId> edge_nodes;
  for (int e = 0; e < 12; ++e) {
    const auto n = topo.add_node("e" + std::to_string(e),
                                 net::Ipv4Address{10, 0, 1, static_cast<std::uint8_t>(e)});
    topo.add_link(n, e % 2 ? d1 : d0, microseconds{30});
    topo.add_link(n, e % 2 ? d0 : d1, microseconds{30});
    edge_nodes.push_back(n);
  }
  underlay::LinkStateProtocol igp{sim, topo};
  igp.start();
  sim.run();

  const underlay::NodeId victim = edge_nodes[0];
  stats::Summary view_ms;
  const sim::SimTime t0 = sim.now();
  igp.set_view_change_callback([&](underlay::NodeId node) {
    if (node != victim && !igp.view_reachable(node, victim)) view_ms.add(ms_between(t0, sim.now()));
  });
  topo.set_node_state(victim, false);
  igp.notify_node_change(victim);
  sim.run();
  return view_ms;
}

// --- WLAN data plane --------------------------------------------------------

WlanArm run_wlan(wlan::DataPlaneMode mode) {
  using A = WlanDataplaneAblation;
  constexpr unsigned kWarmFlows = 2;   // per station, to fill map caches
  constexpr unsigned kProbeFlows = 6;  // measured per station
  constexpr unsigned kRoams = 200;
  DrillFabric d{base_config(), [](fabric::SdaFabric& f) {
                  f.add_border("b0");
                  f.add_edge("e-anchor");
                  f.link("e-anchor", "b0", microseconds{50});
                  std::vector<std::string> names;
                  for (unsigned e = 0; e < A::kEdges; ++e) {
                    names.push_back("e" + std::to_string(e));
                    f.add_edge(names.back());
                    f.link(names.back(), "b0", microseconds{50});
                  }
                  return names;
                }};

  wlan::WlanConfig wconfig;
  wconfig.mode = mode;
  wconfig.controller_edge = "e-anchor";
  wlan::WlanController wlc{d.fabric, wconfig};
  std::vector<std::string> aps;
  for (unsigned e = 0; e < A::kEdges; ++e) {
    for (unsigned a = 0; a < A::kApsPerEdge; ++a) {
      aps.push_back("ap-" + std::to_string(e) + "-" + std::to_string(a));
      wlc.add_access_point({aps.back(), d.edges[e], static_cast<std::uint16_t>(a + 1)});
    }
  }

  constexpr int kStations = A::kStations;
  d.provision(kStations, 0);
  for (int s = 0; s < kStations; ++s) {
    wlc.associate(DrillFabric::credential(s), aps[static_cast<std::size_t>(s) % aps.size()],
                  [&d, s](const wlan::AssociationResult& r) {
                    d.ips[static_cast<std::size_t>(s)] = r.ip;
                  });
  }
  d.sim.run();

  WlanArm arm;
  sim::SimTime last_delivery;
  wlc.set_station_delivery_listener(
      [&](const dataplane::AttachedEndpoint&, const net::OverlayFrame&, sim::SimTime at) {
        ++arm.delivered;
        last_delivery = at;
      });
  const auto peer = [&d](int s, unsigned k) {
    return d.ips[(static_cast<std::size_t>(s) + 1 + k) % kStations];
  };

  // Warm-up flows: fill map caches on every path we will measure.
  for (int s = 0; s < kStations; ++s) {
    for (unsigned k = 0; k < kWarmFlows; ++k) {
      wlc.station_send_udp(DrillFabric::mac(s), peer(s, k), 443, 400);
    }
  }
  d.sim.run();

  // Measured flows: one probe at a time, running the simulator dry between
  // probes, so send->delivery spans exactly one frame's path.
  for (int s = 0; s < kStations; ++s) {
    for (unsigned k = 0; k < kProbeFlows; ++k) {
      const sim::SimTime t0 = d.sim.now();
      const std::uint64_t before = arm.delivered;
      wlc.station_send_udp(DrillFabric::mac(s), peer(s, k), 443, 400);
      d.sim.run();
      if (arm.delivered > before) arm.data_latency_ms.add(ms_between(t0, last_delivery));
    }
  }

  // Roams: random station to a random other AP; measure handover.
  sim::Rng rng{77};
  for (unsigned r = 0; r < kRoams; ++r) {
    const auto s = static_cast<int>(rng.next_below(kStations));
    const std::string& target = aps[rng.next_below(aps.size())];
    if (wlc.ap_of(DrillFabric::mac(s)) == target) continue;
    wlc.roam(DrillFabric::mac(s), target, [&arm](const wlan::AssociationResult& res) {
      if (res.success) arm.handover_ms.add(static_cast<double>(res.elapsed.count()) / 1e6);
    });
    d.sim.run();
  }

  arm.frames_tunneled = wlc.stats().frames_tunneled;
  arm.controller_busy_us = static_cast<std::uint64_t>(wlc.stats().busy_time.count() / 1000);
  return arm;
}

}  // namespace

CacheCapacityAblation run_cache_capacity_ablation() {
  CacheCapacityAblation result;
  for (const std::size_t capacity : {4u, 8u, 16u, 32u, 64u, 0u}) {
    result.rows.push_back(run_cache_capacity(capacity));
  }
  return result;
}

EnforcementPointAblation run_enforcement_point_ablation() {
  return {run_enforcement(false), run_enforcement(true)};
}

FirstPacketAblation run_first_packet_ablation() {
  FirstPacketAblation result;
  for (const unsigned service_us : {25u, 2025u, 10025u}) {
    const microseconds service{service_us};
    result.rows.push_back(
        {service_us, run_first_packet(true, service), run_first_packet(false, service)});
  }
  return result;
}

OnboardingStormAblation run_onboarding_storm_ablation() {
  // Two EAP rounds of 2 ms CPU: 4 ms of RADIUS work per onboarding.
  constexpr double kAuthSeconds = 0.004;
  OnboardingStormAblation result;
  for (const double rate : {50.0, 200.0, 800.0}) {
    for (const unsigned workers : {2u, 8u, 32u}) {
      result.rows.push_back(
          {rate, workers, rate * kAuthSeconds / workers, run_onboarding_storm(rate, workers)});
    }
  }
  return result;
}

std::vector<PolicyUpdateRow> run_policy_update_ablation() {
  const std::vector<PolicyUpdateScenario> scenarios = {
      {"few large groups, small reach", 2, 200, 8, 2},
      {"few large groups, wide reach", 2, 200, 8, 16},
      {"many small groups, small reach", 40, 200, 8, 2},
      {"many small groups, wide reach", 40, 200, 8, 16},
      {"small cohort, wide reach", 4, 12, 8, 16},
  };
  std::vector<PolicyUpdateRow> rows;
  for (const auto& s : scenarios) rows.push_back(run_policy_update(s));
  return rows;
}

std::vector<SmrFanoutRow> run_smr_fanout_ablation() {
  std::vector<SmrFanoutRow> rows;
  for (const unsigned edges : {25u, 50u, 100u, 200u}) {
    for (const unsigned senders : {4u, 16u, 64u}) {
      if (senders >= edges) continue;
      rows.push_back(
          {edges, senders, reactive_messages(edges, senders), proactive_messages(edges)});
    }
  }
  return rows;
}

UnderlayOutageAblation run_underlay_outage_ablation() {
  UnderlayOutageAblation result;
  for (const unsigned ms : {25u, 50u, 100u, 200u, 500u, 1000u}) {
    result.rows.push_back(run_outage(ms));
  }
  result.link_state_view_ms = link_state_view_convergence();
  return result;
}

WlanDataplaneAblation run_wlan_dataplane_ablation() {
  return {run_wlan(wlan::DataPlaneMode::Distributed), run_wlan(wlan::DataPlaneMode::Centralized)};
}

}  // namespace sda::workload
