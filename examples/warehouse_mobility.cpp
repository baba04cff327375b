// Warehouse mobility walkthrough (paper §4.3, scaled down for a demo).
//
// Robots roam between edges while streaming telemetry towards the border.
// The example traces one robot's handover end to end: detach, fast
// re-authentication, Map-Register, Map-Notify to the previous edge, pub/sub
// update at the border — then shows the data-triggered SMR refreshing a
// stale peer that keeps talking to the robot.
#include <cstdio>

#include "fabric/fabric.hpp"
#include "stats/summary.hpp"

using namespace sda;

int main() {
  sim::Simulator sim;
  fabric::FabricConfig config;
  // Robots use fast PSK transitions: tighter timings than office Wi-Fi.
  config.timings.detection = std::chrono::microseconds{500};
  config.timings.auth_processing = std::chrono::microseconds{500};
  fabric::SdaFabric fabric{sim, config};

  fabric.add_border("border");
  for (int i = 0; i < 8; ++i) {
    const std::string name = "aisle-" + std::to_string(i);
    fabric.add_edge(name);
    fabric.link(name, "border", std::chrono::microseconds{50});
  }
  fabric.finalize();

  const net::VnId robots_vn{1};
  fabric.define_vn({robots_vn, "robots", *net::Ipv4Prefix::parse("10.64.0.0/16")});
  fabric.add_external_prefix(robots_vn, *net::Ipv4Prefix::parse("0.0.0.0/0"));

  // A small fleet plus one fixed telemetry collector.
  constexpr int kRobots = 24;
  std::vector<net::Ipv4Address> robot_ip(kRobots);
  for (int r = 0; r < kRobots; ++r) {
    const auto mac = net::MacAddress::from_u64(0x060000000000ull + static_cast<unsigned>(r));
    fabric.provision_endpoint({"robot-" + std::to_string(r), "wheels", mac, robots_vn,
                               net::GroupId{30}});
    fabric.connect_endpoint("robot-" + std::to_string(r), "aisle-" + std::to_string(r % 8), 1,
                            [&robot_ip, r](const fabric::OnboardResult& res) {
                              robot_ip[static_cast<std::size_t>(r)] = res.ip;
                            });
  }
  const auto collector_mac = net::MacAddress::from_u64(0x060000001000ull);
  net::Ipv4Address collector_ip;
  fabric.provision_endpoint({"collector", "pw", collector_mac, robots_vn, net::GroupId{31}});
  fabric.connect_endpoint("collector", "aisle-7", 9, [&](const fabric::OnboardResult& r) {
    collector_ip = r.ip;
  });
  sim.run();
  std::printf("fleet online: %zu mappings registered at the routing server\n",
              fabric.map_server().mapping_count(robots_vn));

  // The collector polls robot-0, so aisle-7 caches robot-0's location.
  fabric.endpoint_send_udp(collector_mac, robot_ip[0], 7000, 64);
  sim.run();

  // Trace robot-0 roaming aisle-0 -> aisle-3.
  std::printf("\nrobot-0 roams aisle-0 -> aisle-3:\n");
  stats::Summary handovers;
  sim::SimTime border_synced;
  fabric.set_border_sync_listener([&](const std::string&, const net::VnEid& eid,
                                      const lisp::MappingRecord* record) {
    if (record && eid.eid.is_ipv4() && eid.eid.ipv4() == robot_ip[0]) {
      border_synced = sim.now();
    }
  });
  const sim::SimTime detach = sim.now();
  fabric.roam_endpoint(net::MacAddress::from_u64(0x060000000000ull), "aisle-3", 2,
                       [&](const fabric::OnboardResult& r) {
                         std::printf("  re-attached at %-8s after %.2f ms (fast re-auth)\n",
                                     r.edge.c_str(),
                                     static_cast<double>(r.elapsed.count()) / 1e6);
                       });
  sim.run();
  std::printf("  border synchronized after %.2f ms (pub/sub)\n",
              static_cast<double>((border_synced - detach).count()) / 1e6);
  const auto* old_edge_entry = fabric.edge("aisle-0").map_cache().lookup(
      net::VnEid{robots_vn, net::Eid{robot_ip[0]}}, sim.now());
  if (old_edge_entry != nullptr) {
    std::printf("  aisle-0 holds a Map-Notify forward entry -> %s (Fig. 5)\n",
                old_edge_entry->primary_rloc().to_string().c_str());
  }

  // The collector still has a stale cache entry towards aisle-0. Its next
  // poll is forwarded by the old edge and triggers an SMR (Fig. 6).
  int delivered = 0;
  fabric.set_delivery_listener([&](const dataplane::AttachedEndpoint& e,
                                   const net::OverlayFrame&, sim::SimTime) {
    if (e.credential == "robot-0") ++delivered;
  });
  std::printf("\ncollector polls robot-0 through its stale entry:\n");
  fabric.endpoint_send_udp(collector_mac, robot_ip[0], 7000, 64);
  sim.run();
  std::printf("  delivered=%d, stale-forwards at aisle-0: %llu, SMRs received by aisle-7: %llu\n",
              delivered,
              static_cast<unsigned long long>(fabric.edge("aisle-0").counters().stale_forwards),
              static_cast<unsigned long long>(fabric.edge("aisle-7").counters().smr_received));

  fabric.endpoint_send_udp(collector_mac, robot_ip[0], 7000, 64);
  sim.run();
  std::printf("  next poll goes direct: aisle-7 -> aisle-3 (refreshed cache), delivered=%d\n",
              delivered);
  return 0;
}
