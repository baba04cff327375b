// The Determinism scenario: three edges on one border; alice (e0) sends to
// bob (e1), bob roams to e2, and alice sends again. A cache miss, hits, a
// roam with its SMR churn, then more traffic: enough same-timestamp fan-out
// to exercise the simulator's tie-break everywhere. determinism_test runs it
// twice per seed; knob_test runs it with one config field flipped.
#pragma once

#include <cstdint>
#include <string>

#include "fabric/fabric.hpp"

namespace sda::fabric {

struct RunResult {
  std::string flight_log;
  std::size_t executed_events = 0;
  sim::SimTime final_time;
  /// Frames e0 encapsulated; set by determinism_test, which requires the
  /// counter (knob_test also runs with telemetry off, which has none).
  std::uint64_t delivered = 0;
  telemetry::Snapshot metrics;
  std::uint64_t causal_completed = 0;
};

/// The scenario's config: no L2 gateway, `seed`.
inline FabricConfig determinism_config(std::uint64_t seed) {
  FabricConfig config;
  config.l2_gateway = false;
  config.seed = seed;
  return config;
}

inline RunResult run_determinism_scenario(const FabricConfig& config) {
  constexpr net::VnId kVn{100};
  const auto alice = net::MacAddress::from_u64(0x02AA);
  const auto bob = net::MacAddress::from_u64(0x02BB);
  sim::Simulator sim;
  SdaFabric fabric{sim, config};
  fabric.add_border("b0");
  fabric.add_edge("e0");
  fabric.add_edge("e1");
  fabric.add_edge("e2");
  fabric.link("e0", "b0");
  fabric.link("e1", "b0");
  fabric.link("e2", "b0");
  fabric.finalize();
  fabric.define_vn({kVn, "corp", *net::Ipv4Prefix::parse("10.100.0.0/16")});
  fabric.provision_endpoint({"alice", "pw", alice, kVn, net::GroupId{10}});
  fabric.provision_endpoint({"bob", "pw", bob, kVn, net::GroupId{10}});

  net::Ipv4Address bob_ip;
  fabric.connect_endpoint("alice", "e0", 1, [](const OnboardResult&) {});
  fabric.connect_endpoint("bob", "e1", 1, [&bob_ip](const OnboardResult& r) { bob_ip = r.ip; });
  sim.run();

  for (int i = 0; i < 4; ++i) fabric.endpoint_send_udp(alice, bob_ip, 443, 200);
  sim.run();
  fabric.roam_endpoint(bob, "e2", 2);
  sim.run();
  for (int i = 0; i < 4; ++i) fabric.endpoint_send_udp(alice, bob_ip, 443, 200);
  sim.run();

  RunResult result;
  result.flight_log = fabric.flight_recorder().dump();
  result.executed_events = sim.executed_events();
  result.final_time = sim.now();
  result.metrics = fabric.metrics().snapshot();
  result.causal_completed = fabric.telemetry().causal.completed_count();
  return result;
}

}  // namespace sda::fabric
