// Every config knob changes behaviour. One row per field of FabricTimings,
// HaConfig and FabricConfig, plus the routing-server sizing (map_server.*)
// and the IGP convergence delay (underlay.igp_convergence). A row runs a
// small seeded scenario twice, once as the scenario configures it and once
// with the field flipped, and names an observed value that must differ. A
// field whose flip changes nothing is not a knob and is deleted. The one
// kind of exemption is a safety check: its flip must change nothing, and its
// row says why. check_knob_table.cmake fails when config.hpp declares a
// field that no row here names.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>

#include "determinism_scenario.hpp"
#include "workload/drills.hpp"

namespace sda::fabric {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;
using workload::DrillFabric;

/// What a run is judged by: every metrics counter, each histogram's sample
/// count ("<name>.n"), "events" executed, "causal.completed" operations and
/// "fingerprint", a hash of all of these, the end time and the flight log.
using Observed = std::map<std::string, std::uint64_t>;

std::uint64_t fnv1a(std::uint64_t hash, std::string_view bytes) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ull;
  }
  return hash;
}

Observed observe(const std::string& flight_log, std::uint64_t events, sim::SimTime end,
                 const telemetry::Snapshot& metrics, std::uint64_t causal_completed) {
  Observed out(metrics.counters.begin(), metrics.counters.end());
  for (const auto& [name, histogram] : metrics.histograms) out[name + ".n"] = histogram.total;
  out["events"] = events;
  out["causal.completed"] = causal_completed;
  std::uint64_t hash = fnv1a(0xCBF29CE484222325ull, flight_log);
  hash = fnv1a(hash, std::to_string((end - sim::SimTime{}).count()));
  for (const auto& [name, value] : out) hash = fnv1a(fnv1a(hash, name), std::to_string(value));
  out["fingerprint"] = hash;
  return out;
}

enum class Scenario {
  /// determinism_scenario.hpp: onboard two hosts, traffic, a roam, traffic.
  Determinism,
  /// The drill fabric of workload/drills.hpp, below.
  Drill,
};

/// The Drill scenario's config: failover_config(2), and no border default
/// route, so a miss parks up to 8 frames while its Map-Request is answered.
FabricConfig drill_scenario_config() {
  FabricConfig config = workload::failover_config(2);
  config.default_route_fallback = false;
  config.pending_packet_limit = 8;
  return config;
}

/// Four edges, two routing servers, eight hosts sending in a ring, and one
/// fault after another: a policy-server outage while h1 moves to group 20,
/// a primary outage while hosts 8-11 onboard at once and h2 resolves h9
/// cold, a replica outage while host 12 onboards, a roam, an ARP, an edge
/// that goes dark for 300 ms, and a primary that oscillates three times.
Observed run_drill(const FabricConfig& config) {
  DrillFabric d{config, 4};
  d.provision(13, 8);
  d.sim.run_until(d.sim.now() + seconds{1});
  d.start(seconds{12});
  for (int i = 0; i < 8; ++i) d.flow(i, (i + 1) % 8, workload::kDrillSendGap * i / 8);

  faults::FaultPlane& plane = *d.plane;
  plane.policy_server_outage(d.fabric.policy_server(), milliseconds{500}, seconds{1});
  d.sim.schedule_at(d.t0 + milliseconds{600},
                    [&d] { d.fabric.reassign_endpoint_group("h1", net::GroupId{20}); });
  plane.server_outage(d.fabric.map_server_node(0), seconds{2}, seconds{2});
  d.sim.schedule_at(d.t0 + milliseconds{2500}, [&d] {
    for (int host = 8; host < 12; ++host) d.connect(host, static_cast<std::size_t>(host % 4), 2);
  });
  d.flow(2, 9, milliseconds{2600});
  plane.server_outage(d.fabric.map_server_node(1), seconds{5}, seconds{1});
  d.sim.schedule_at(d.t0 + milliseconds{5300}, [&d] { d.connect(12, 0, 3); });
  d.sim.schedule_at(d.t0 + milliseconds{6500},
                    [&d] { d.fabric.roam_endpoint(DrillFabric::mac(3), d.edges[0], 4); });
  d.sim.schedule_at(d.t0 + milliseconds{6800},
                    [&d] { d.fabric.endpoint_send_arp(DrillFabric::mac(0), d.ips[2]); });
  plane.flap_node(d.fabric.edge(d.edges[3]).config().node,
                  {.first_down = seconds{7}, .down_for = milliseconds{300}});
  plane.server_oscillation(d.fabric.map_server_node(0), seconds{8}, milliseconds{400},
                           milliseconds{600}, 3);
  d.sim.run_until(d.t0 + seconds{12});

  return observe(d.fabric.flight_recorder().dump(), d.sim.executed_events(), d.sim.now(),
                 d.fabric.metrics().snapshot(), d.fabric.telemetry().causal.completed_count());
}

Observed run(Scenario scenario, const FabricConfig& config) {
  if (scenario == Scenario::Determinism) {
    const RunResult r = run_determinism_scenario(config);
    return observe(r.flight_log, r.executed_events, r.final_time, r.metrics, r.causal_completed);
  }
  return run_drill(config);
}

using Tweak = void (*)(FabricConfig&);

struct Row {
  const char* field;  // as FabricConfig spells it
  Scenario scenario;
  Tweak flip;
  const char* observed;     // the key of Observed that must change
  Tweak base = nullptr;     // what else the scenario needs for the field to act
  const char* exempt = nullptr;  // a safety check: why its flip must change nothing
};

// clang-format off
const Row kRows[] = {
    // --- FabricTimings --------------------------------------------------------
    {"timings.detection", Scenario::Determinism,
     [](FabricConfig& c) { c.timings.detection = milliseconds{20}; }, "fingerprint"},
    {"timings.auth_processing", Scenario::Determinism,
     [](FabricConfig& c) { c.timings.auth_processing = milliseconds{20}; }, "fingerprint"},
    {"timings.rule_download_processing", Scenario::Determinism,
     [](FabricConfig& c) { c.timings.rule_download_processing = milliseconds{20}; },
     "fingerprint"},
    {"timings.policy_workers", Scenario::Determinism,
     [](FabricConfig& c) { c.timings.policy_workers = 1; }, "fingerprint"},

    // --- HaConfig -------------------------------------------------------------
    {"ha.failover", Scenario::Drill,
     [](FabricConfig& c) { c.ha.failover = false; }, "ha.failovers"},
    {"ha.heartbeat_interval", Scenario::Drill,
     [](FabricConfig& c) { c.ha.heartbeat_interval = milliseconds{300}; }, "ha.heartbeats_sent"},
    {"ha.heartbeat_timeout", Scenario::Drill,
     [](FabricConfig& c) { c.ha.heartbeat_timeout = milliseconds{90}; }, "fingerprint"},
    {"ha.down_after_misses", Scenario::Drill,
     [](FabricConfig& c) { c.ha.down_after_misses = 6; }, "ha.failovers"},
    {"ha.up_after_acks", Scenario::Drill,
     [](FabricConfig& c) { c.ha.up_after_acks = 1; }, "fingerprint"},
    {"ha.anti_entropy_interval", Scenario::Drill,
     [](FabricConfig& c) { c.ha.anti_entropy_interval = {}; }, "ha.anti_entropy_rounds"},
    {"ha.election", Scenario::Drill,
     [](FabricConfig& c) { c.ha.election = true; }, "ha.elections_started"},
    {"ha.election_heartbeat_interval", Scenario::Drill,
     [](FabricConfig& c) { c.ha.election_heartbeat_interval = milliseconds{50}; }, "events",
     [](FabricConfig& c) { c.ha.election = true; }},
    {"ha.election_timeout", Scenario::Drill,
     [](FabricConfig& c) { c.ha.election_timeout = milliseconds{1200}; }, "fingerprint",
     [](FabricConfig& c) { c.ha.election = true; }},
    {"ha.election_claim_timeout", Scenario::Drill,
     [](FabricConfig& c) { c.ha.election_claim_timeout = milliseconds{200}; }, "events",
     [](FabricConfig& c) { c.ha.election = true; }},
    {"ha.election_quorum", Scenario::Drill,
     [](FabricConfig& c) { c.ha.election_quorum = true; }, "ha.quorum_stalls",
     [](FabricConfig& c) { c.ha.election = true; }},
    {"ha.catchup_log_capacity", Scenario::Drill,
     [](FabricConfig& c) { c.ha.catchup_log_capacity = 64; }, "ha.catchup.replays"},
    {"ha.post_election_ramp", Scenario::Drill,
     [](FabricConfig& c) { c.ha.post_election_ramp = seconds{2}; },
     "routing_server[1].ramp_sheds",
     [](FabricConfig& c) {
       c.ha.election = true;
       c.map_server.register_service = milliseconds{20};
       c.map_server.admission_limit = 4;
     }},
    {"ha.dampening", Scenario::Drill,
     [](FabricConfig& c) { c.ha.dampening = true; }, "ha.suppressions"},
    {"ha.dampening_penalty", Scenario::Drill,
     [](FabricConfig& c) { c.ha.dampening_penalty = 400.0; }, "ha.suppressions",
     [](FabricConfig& c) { c.ha.dampening = true; }},
    {"ha.dampening_suppress", Scenario::Drill,
     [](FabricConfig& c) { c.ha.dampening_suppress = 5000.0; }, "ha.suppressions",
     [](FabricConfig& c) { c.ha.dampening = true; }},
    {"ha.dampening_reuse", Scenario::Drill,
     [](FabricConfig& c) { c.ha.dampening_reuse = 1200.0; }, "ha.failbacks",
     [](FabricConfig& c) { c.ha.dampening = true; }},
    {"ha.dampening_half_life", Scenario::Drill,
     [](FabricConfig& c) { c.ha.dampening_half_life = seconds{1}; }, "ha.suppressions",
     [](FabricConfig& c) { c.ha.dampening = true; }},

    // --- FabricConfig ---------------------------------------------------------
    {"edge_map_cache_capacity", Scenario::Drill,
     [](FabricConfig& c) { c.edge_map_cache_capacity = 1; }, "edge[0].map_cache.evictions"},
    {"rloc_probing", Scenario::Drill,
     [](FabricConfig& c) { c.rloc_probing = true; }, "edge[0].probes_sent"},
    {"probe_interval", Scenario::Drill,
     [](FabricConfig& c) { c.probe_interval = seconds{1}; }, "edge[0].probes_sent",
     [](FabricConfig& c) { c.rloc_probing = true; }},
    {"default_route_fallback", Scenario::Determinism,
     [](FabricConfig& c) { c.default_route_fallback = false; }, "border[0].hairpinned"},
    {"register_ttl_seconds", Scenario::Drill,
     [](FabricConfig& c) { c.register_ttl_seconds = 2; }, "edge[0].map_cache.expirations"},
    {"map_request_retries", Scenario::Drill,
     [](FabricConfig& c) { c.map_request_retries = 0; }, "edge[3].map_request_retries"},
    {"map_register_retries", Scenario::Drill,
     [](FabricConfig& c) { c.map_register_retries = 0; }, "edge[0].registers_acked"},
    {"register_refresh_interval", Scenario::Drill,
     [](FabricConfig& c) { c.register_refresh_interval = seconds{1}; }, "edge[0].registers_sent"},
    {"enforce_on_ingress", Scenario::Determinism,
     [](FabricConfig& c) { c.enforce_on_ingress = true; }, "edge[0].sgacl.permits"},
    {"l2_gateway", Scenario::Drill,
     [](FabricConfig& c) { c.l2_gateway = true; }, "events"},
    {"map_server.workers", Scenario::Drill,
     [](FabricConfig& c) { c.map_server.workers = 1; }, "fingerprint",
     [](FabricConfig& c) { c.map_server.register_service = milliseconds{20}; }},
    {"map_server.request_service", Scenario::Determinism,
     [](FabricConfig& c) { c.map_server.request_service = milliseconds{2}; }, "fingerprint"},
    {"map_server.register_service", Scenario::Determinism,
     [](FabricConfig& c) { c.map_server.register_service = milliseconds{2}; }, "fingerprint"},
    {"map_server.jitter_sigma", Scenario::Determinism,
     [](FabricConfig& c) { c.map_server.jitter_sigma = 0.0; }, "fingerprint"},
    {"map_server.admission_limit", Scenario::Drill,
     [](FabricConfig& c) { c.map_server.admission_limit = 1; }, "edge[0].server_busy",
     [](FabricConfig& c) { c.map_server.register_service = milliseconds{20}; }},
    {"map_server.shed_retry_after", Scenario::Drill,
     [](FabricConfig& c) { c.map_server.shed_retry_after = milliseconds{50}; }, "fingerprint",
     [](FabricConfig& c) {
       c.map_server.register_service = milliseconds{20};
       c.map_server.admission_limit = 1;
     }},
    {"routing_servers", Scenario::Determinism,
     [](FabricConfig& c) { c.routing_servers = 2; }, "events"},
    {"pending_packet_limit", Scenario::Drill,
     [](FabricConfig& c) { c.pending_packet_limit = 0; }, "edge[0].packets_parked"},
    {"policy_fail_mode", Scenario::Drill,
     [](FabricConfig& c) { c.policy_fail_mode = dataplane::PolicyFailMode::Closed; },
     "edge[1].sgacl.fail_closed_drops"},
    {"rule_retry_interval", Scenario::Drill,
     [](FabricConfig& c) { c.rule_retry_interval = {}; }, "edge[1].rule_download_retries"},
    {"underlay.igp_convergence", Scenario::Drill,
     [](FabricConfig& c) { c.underlay.igp_convergence = milliseconds{50}; },
     "underlay.unreachable_drops"},
    {"default_action", Scenario::Determinism,
     [](FabricConfig& c) { c.default_action = policy::Action::Deny; }, "edge[1].policy_drops"},
    {"seed", Scenario::Determinism,
     [](FabricConfig& c) { c.seed = 7; }, "fingerprint"},
    {"validate_wire_format", Scenario::Determinism,
     [](FabricConfig& c) { c.validate_wire_format = true; }, "fingerprint", nullptr,
     "a safety check: it serializes every data-plane frame to wire bytes, decodes it and "
     "asserts the two agree, so it must not change the run"},
    {"telemetry", Scenario::Determinism,
     [](FabricConfig& c) { c.telemetry = false; }, "fingerprint"},
    {"trace_first_packets", Scenario::Determinism,
     [](FabricConfig& c) { c.trace_first_packets = true; }, "fabric.first_packet_us.n"},
    {"causal_tracing", Scenario::Determinism,
     [](FabricConfig& c) { c.causal_tracing = true; }, "causal.completed"},
    {"smr_debug_delay", Scenario::Determinism,
     [](FabricConfig& c) { c.smr_debug_delay = milliseconds{100}; }, "events"},
};
// clang-format on

void PrintTo(const Row& row, std::ostream* os) { *os << row.field; }

class KnobTable : public ::testing::TestWithParam<Row> {};

TEST_P(KnobTable, FlipChangesWhatTheRowObserves) {
  const Row& row = GetParam();
  FabricConfig config =
      row.scenario == Scenario::Determinism ? determinism_config(0x5DA) : drill_scenario_config();
  if (row.base != nullptr) row.base(config);
  const Observed before = run(row.scenario, config);
  row.flip(config);
  const Observed after = run(row.scenario, config);

  ASSERT_TRUE(before.contains(row.observed)) << row.observed << " is not observed";
  ASSERT_TRUE(after.contains(row.observed)) << row.observed << " is not observed";
  if (row.exempt != nullptr) {
    EXPECT_EQ(before, after) << row.field << ": " << row.exempt;
    return;
  }
  std::string changed;
  for (const auto& [name, value] : after) {
    if (before.contains(name) && before.at(name) != value) changed += " " + name;
  }
  EXPECT_NE(before.at(row.observed), after.at(row.observed))
      << row.field << " left " << row.observed << " at " << before.at(row.observed)
      << "; what changed:" << changed;
}

INSTANTIATE_TEST_SUITE_P(Fields, KnobTable, ::testing::ValuesIn(kRows),
                         [](const ::testing::TestParamInfo<Row>& param) {
                           std::string name = param.param.field;
                           for (char& c : name) {
                             if (c == '.') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace sda::fabric
