// Fabric-level telemetry: metrics registration, flight recorder wiring,
// inspect(include_telemetry), and first packets traced end to end as causal
// operations over the real encap -> underlay -> decap -> two-stage SGACL
// pipeline.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <string>
#include <vector>

#include "fabric/fabric.hpp"
#include "fabric/inspect.hpp"
#include "telemetry/export.hpp"

namespace sda::fabric {
namespace {

using net::GroupId;
using net::MacAddress;
using net::VnId;

constexpr VnId kVn{100};

const telemetry::Operation* completed_op(const SdaFabric& fabric, std::uint64_t trace) {
  for (const telemetry::Operation& op : fabric.telemetry().causal.completed()) {
    if (op.trace == trace) return &op;
  }
  return nullptr;
}

std::vector<std::string> span_names(const telemetry::Operation& op) {
  std::vector<std::string> names;
  for (const telemetry::Span& span : op.spans) names.push_back(span.name + "@" + span.node);
  return names;
}

class TelemetryFabric : public ::testing::Test {
 protected:
  void SetUp() override {
    config_.l2_gateway = false;
    config_.seed = 42;
  }

  void build() {
    fabric_ = std::make_unique<SdaFabric>(sim_, config_);
    fabric_->add_border("b0");
    fabric_->add_edge("e0");
    fabric_->add_edge("e1");
    fabric_->link("e0", "b0");
    fabric_->link("e1", "b0");
    fabric_->finalize();
    fabric_->define_vn({kVn, "corp", *net::Ipv4Prefix::parse("10.100.0.0/16")});
    fabric_->provision_endpoint(
        {"alice", "pw", MacAddress::from_u64(0x02AA), kVn, GroupId{10}});
    fabric_->provision_endpoint(
        {"bob", "pw", MacAddress::from_u64(0x02BB), kVn, GroupId{20}});
    fabric_->connect_endpoint("alice", "e0", 1,
                              [this](const OnboardResult& r) { alice_ip_ = r.ip; });
    fabric_->connect_endpoint("bob", "e1", 1,
                              [this](const OnboardResult& r) { bob_ip_ = r.ip; });
    sim_.run();
  }

  sim::Simulator sim_;
  FabricConfig config_;
  std::unique_ptr<SdaFabric> fabric_;
  net::Ipv4Address alice_ip_;
  net::Ipv4Address bob_ip_;
};

TEST_F(TelemetryFabric, RegistersPerNodeMetricsAndOnboardHistograms) {
  build();
  const telemetry::Snapshot snap = fabric_->metrics().snapshot();
  // Per-edge hierarchical names exist for both edges.
  EXPECT_TRUE(snap.counters.count("edge[0].map_cache.misses"));
  EXPECT_TRUE(snap.counters.count("edge[1].registers_sent"));
  EXPECT_TRUE(snap.counters.count("map_server.requests"));
  EXPECT_TRUE(snap.gauges.count("edge[0].fib_size"));
  // The event loop's counters sit beside the fabric's slab gauges.
  EXPECT_TRUE(snap.gauges.count("fabric.frames_in_flight"));
  EXPECT_GT(snap.counters.at("sim.events_executed"), 0u);
  EXPECT_EQ(snap.counters.at("sim.events_executed"), sim_.executed_events());
  EXPECT_EQ(snap.gauges.at("sim.pending_events"), 0.0);  // quiesced
  EXPECT_TRUE(snap.gauges.count("sim.queued_entries"));
  // Both onboards landed in the latency histogram.
  EXPECT_EQ(snap.histograms.at("fabric.onboard_ms").total, 2u);
  // Registrations actually happened and the probes see them.
  EXPECT_GE(snap.counters.at("edge[0].registers_sent"), 1u);
}

TEST_F(TelemetryFabric, FlightRecorderCapturesControlPlaneTimeline) {
  build();
  const auto events = fabric_->flight_recorder().events();
  ASSERT_FALSE(events.empty());
  bool saw_register = false, saw_onboard = false, saw_publish = false;
  for (const auto& event : events) {
    saw_register |= event.kind == telemetry::EventKind::MapRegister;
    saw_onboard |= event.kind == telemetry::EventKind::Onboard;
    saw_publish |= event.kind == telemetry::EventKind::Publish;
  }
  EXPECT_TRUE(saw_register);
  EXPECT_TRUE(saw_onboard);
  EXPECT_TRUE(saw_publish);
  // Per-node scoping: edge e0 has its own slice of the timeline.
  EXPECT_FALSE(fabric_->flight_recorder().for_node("e0").empty());
}

TEST_F(TelemetryFabric, DisabledTelemetryRecordsNothing) {
  config_.telemetry = false;
  build();
  EXPECT_EQ(fabric_->flight_recorder().recorded(), 0u);
  EXPECT_TRUE(fabric_->metrics().snapshot().empty());
}

TEST_F(TelemetryFabric, PathTraceDecomposesDeliveredFirstPacket) {
  build();
  const std::uint64_t id = fabric_->trace_flow(net::VnEid{kVn, net::Eid{alice_ip_}},
                                               net::VnEid{kVn, net::Eid{bob_ip_}});
  fabric_->endpoint_send_udp(MacAddress::from_u64(0x02AA), bob_ip_, 443, 200);
  sim_.run();

  // One operation, causal tracing off: the first packet, hop by hop, with
  // the resolution its miss sent nested in the same tree while the packet
  // rode the border default route (§3.2.2).
  const telemetry::Operation* op = completed_op(*fabric_, id);
  ASSERT_NE(op, nullptr);
  EXPECT_EQ(op->kind, telemetry::OpKind::FirstPacket);
  EXPECT_FALSE(op->dropped);
  EXPECT_EQ(span_names(*op),
            (std::vector<std::string>{
                "ingress@e0", "map-request@e0", "default-route@e0", "encap@e0",
                "transit@underlay", "hairpin@b0", "map-reply@e0",
                "transit@underlay", "decap@e1", "sgacl-permit@e1", "deliver@e1"}));
  // Spans start in order, so the latency decomposition is sound.
  for (std::size_t i = 1; i < op->spans.size(); ++i) {
    EXPECT_GE(op->spans[i].start, op->spans[i - 1].start) << op->spans[i].name;
  }
  EXPECT_EQ(op->spans[6].parent, op->spans[1].id);  // the reply answers the request
  EXPECT_LT(op->spans[1].start, op->spans[1].end);
  // The first packet's latency is sim time, so it is exact on every
  // machine: border hairpin and resolution included, 110.444 us. The
  // completion fed the fabric-wide first-packet histogram, whose 400 us
  // buckets read that one sample as a p50 of 200 us (half the first
  // bucket); the exact latency and the histogram's sum are the sharp checks.
  EXPECT_EQ(op->duration(), std::chrono::nanoseconds{110'444});
  const telemetry::Snapshot snap = fabric_->metrics().snapshot();
  const telemetry::HistogramSnapshot& first_packet = snap.histograms.at("fabric.first_packet_us");
  EXPECT_EQ(first_packet.total, 1u);
  EXPECT_DOUBLE_EQ(first_packet.sum, 110.444);
  EXPECT_DOUBLE_EQ(first_packet.quantile(0.5), 200.0);
}

TEST_F(TelemetryFabric, PathTraceEndsAtEgressSgaclDeny) {
  build();
  // Two-stage pipeline: the ingress edge forwards on the cached mapping;
  // the egress edge evaluates the SGACL with the authoritative destination
  // group and drops there.
  fabric_->update_rule({kVn, GroupId{10}, GroupId{20}, policy::Action::Deny});
  sim_.run();
  const std::uint64_t id = fabric_->trace_flow(net::VnEid{kVn, net::Eid{alice_ip_}},
                                               net::VnEid{kVn, net::Eid{bob_ip_}});
  fabric_->endpoint_send_udp(MacAddress::from_u64(0x02AA), bob_ip_, 443, 200);
  sim_.run();

  const telemetry::Operation* op = completed_op(*fabric_, id);
  ASSERT_NE(op, nullptr);
  EXPECT_TRUE(op->dropped);
  ASSERT_FALSE(op->spans.empty());
  EXPECT_EQ(op->spans.back().name, "sgacl-deny");
  EXPECT_EQ(op->spans.back().node, "e1");  // enforced at egress, not ingress
  // The drop is attributable: the policy counter moved on the egress edge.
  const telemetry::Snapshot snap = fabric_->metrics().snapshot();
  EXPECT_GE(snap.counters.at("edge[1].policy_drops"), 1u);
  // A dropped first packet is kept but adds no latency sample.
  EXPECT_EQ(snap.histograms.at("fabric.first_packet_us").total, 0u);
}

TEST_F(TelemetryFabric, InspectIncludesTelemetryOnRequest) {
  build();
  fabric_->endpoint_send_udp(MacAddress::from_u64(0x02AA), bob_ip_, 443, 200);
  sim_.run();

  const std::string plain = inspect(*fabric_);
  EXPECT_EQ(plain.find("telemetry:"), std::string::npos);

  InspectOptions options;
  options.include_telemetry = true;
  const std::string report = inspect(*fabric_, options);
  EXPECT_NE(report.find("telemetry:"), std::string::npos);
  EXPECT_NE(report.find("flight recorder:"), std::string::npos);
  EXPECT_NE(report.find("map-register"), std::string::npos);
}

TEST_F(TelemetryFabric, SnapshotDeltaIsolatesTrafficWindow) {
  build();
  const telemetry::Snapshot before = fabric_->metrics().snapshot();
  for (int i = 0; i < 5; ++i) {
    fabric_->endpoint_send_udp(MacAddress::from_u64(0x02AA), bob_ip_, 443, 200);
  }
  sim_.run();
  const telemetry::Snapshot delta = fabric_->metrics().snapshot().delta(before);
  EXPECT_EQ(delta.counters.at("edge[1].frames_delivered"), 5u);
  EXPECT_EQ(delta.counters.at("edge[1].policy_drops"), 0u);  // nothing denied in window
}


// Every ordered pair of six hosts on three edges sends three packets: two
// back to back (the second leaves before the first arrives) and one after
// the flow has settled. Then one packet goes to a destination nobody holds,
// which the border drops.
struct FlowScenario {
  std::uint64_t events = 0;
  sim::SimTime end;
  /// Per edge: frames_delivered, map_requests_sent, default_routed.
  std::vector<std::array<std::uint64_t, 3>> edges;
  std::uint64_t first_packet_samples = 0;
  std::size_t open_ops = 0;
};

FlowScenario run_flow_scenario(bool trace_first_packets) {
  sim::Simulator sim;
  FabricConfig config;
  config.l2_gateway = false;
  config.seed = 7;
  config.trace_first_packets = trace_first_packets;
  SdaFabric fabric(sim, config);
  fabric.add_border("b0");
  for (int e = 0; e < 3; ++e) {
    fabric.add_edge("e" + std::to_string(e));
    fabric.link("e" + std::to_string(e), "b0");
  }
  fabric.finalize();
  fabric.define_vn({kVn, "corp", *net::Ipv4Prefix::parse("10.100.0.0/16")});
  std::vector<MacAddress> macs;
  std::vector<net::Ipv4Address> ips(6);
  for (std::size_t h = 0; h < 6; ++h) {
    macs.push_back(MacAddress::from_u64(0x0200 + h));
    fabric.provision_endpoint({"host" + std::to_string(h), "pw", macs[h], kVn, GroupId{10}});
    fabric.connect_endpoint("host" + std::to_string(h), "e" + std::to_string(h / 2), 1,
                            [&ips, h](const OnboardResult& r) { ips[h] = r.ip; });
  }
  sim.run();

  for (int round = 0; round < 2; ++round) {
    for (std::size_t a = 0; a < 6; ++a) {
      for (std::size_t b = 0; b < 6; ++b) {
        if (a == b) continue;
        fabric.endpoint_send_udp(macs[a], ips[b], 443, 100);
        if (round == 0) fabric.endpoint_send_udp(macs[a], ips[b], 443, 100);
      }
    }
    sim.run();
  }
  fabric.endpoint_send_udp(macs[0], *net::Ipv4Address::parse("10.100.250.250"), 443, 100);
  sim.run();

  FlowScenario run;
  run.events = sim.executed_events();
  run.end = sim.now();
  for (const auto& name : fabric.edge_names()) {
    const auto& counters = fabric.edge(name).counters();
    run.edges.push_back(
        {counters.frames_delivered, counters.map_requests_sent, counters.default_routed});
  }
  run.first_packet_samples =
      fabric.metrics().snapshot().histograms.at("fabric.first_packet_us").total;
  run.open_ops = fabric.telemetry().causal.open_count();
  return run;
}

// trace_first_packets arms one first-packet operation per (vn, source,
// destination) flow: on a fixed scenario the first-packet histogram gets
// exactly one sample per delivered flow, however many packets each flow
// sends or interleaves; the packet the border drops adds none.
TEST(FirstPacketTracing, OneSamplePerDeliveredFlow) {
  const FlowScenario run = run_flow_scenario(true);
  EXPECT_EQ(run.first_packet_samples, 30u);
  EXPECT_EQ(run.open_ops, 0u);
}

// Tracing observes the run, it does not change it: the first packet's id
// stays off the wire, so every message keeps its size and every event its
// time.
TEST(FirstPacketTracing, TracingDoesNotChangeTheRun) {
  const FlowScenario traced = run_flow_scenario(true);
  const FlowScenario untraced = run_flow_scenario(false);
  EXPECT_EQ(untraced.first_packet_samples, 0u);
  EXPECT_EQ(traced.events, untraced.events);
  EXPECT_EQ(traced.end, untraced.end);
  EXPECT_EQ(traced.edges, untraced.edges);
  std::uint64_t requests = 0;
  for (const auto& edge : traced.edges) requests += edge[1];
  EXPECT_GT(requests, 0u);  // the runs resolved, so a stamped id would show
}

// Classic LISP with a pending-packet queue: the first packet to an EID that
// nobody holds parks while it resolves, and is dropped when the resolution
// fails, by a negative reply or by running out of retries against a
// silent server. Each drop is a hop, so the traced first packet completes.
struct ParkedDropRun {
  std::uint64_t parked = 0;
  std::uint64_t resolution_drops = 0;
  std::size_t open_ops = 0;
  std::vector<telemetry::Verdict> leak_verdicts;
};

ParkedDropRun run_parked_drop(bool server_silent) {
  sim::Simulator sim;
  FabricConfig config;
  config.l2_gateway = false;
  config.trace_first_packets = true;
  config.default_route_fallback = false;
  config.pending_packet_limit = 4;
  SdaFabric fabric(sim, config);
  fabric.add_border("b0");
  fabric.add_edge("e0");
  fabric.link("e0", "b0");
  fabric.finalize();
  fabric.define_vn({kVn, "corp", *net::Ipv4Prefix::parse("10.100.0.0/16")});
  fabric.provision_endpoint({"alice", "pw", MacAddress::from_u64(0x02AA), kVn, GroupId{10}});
  fabric.connect_endpoint("alice", "e0", 1, [](const OnboardResult&) {});
  sim.run();
  fabric.map_server_node().set_online(!server_silent);
  fabric.endpoint_send_udp(MacAddress::from_u64(0x02AA),
                           *net::Ipv4Address::parse("10.100.250.250"), 443, 100);
  sim.run();

  ParkedDropRun run;
  run.parked = fabric.edge("e0").counters().packets_parked;
  run.resolution_drops = fabric.edge("e0").counters().resolution_drops;
  run.open_ops = fabric.telemetry().causal.open_count();
  for (auto& verdict : fabric.telemetry().assurance.evaluate_invariants()) {
    if (verdict.name == "no-pending-trace-leak") run.leak_verdicts.push_back(std::move(verdict));
  }
  return run;
}

TEST(FirstPacketTracing, ParkedFrameDroppedOnANegativeReplyCompletes) {
  const ParkedDropRun run = run_parked_drop(/*server_silent=*/false);
  EXPECT_EQ(run.parked, 1u);
  EXPECT_EQ(run.resolution_drops, 1u);
  EXPECT_EQ(run.open_ops, 0u);
  ASSERT_EQ(run.leak_verdicts.size(), 1u);
  EXPECT_TRUE(run.leak_verdicts[0].pass) << run.leak_verdicts[0].detail;
}

TEST(FirstPacketTracing, ParkedFrameDroppedWhenResolutionGivesUpCompletes) {
  const ParkedDropRun run = run_parked_drop(/*server_silent=*/true);
  EXPECT_EQ(run.parked, 1u);
  EXPECT_EQ(run.resolution_drops, 1u);
  EXPECT_EQ(run.open_ops, 0u);
  ASSERT_EQ(run.leak_verdicts.size(), 1u);
  EXPECT_TRUE(run.leak_verdicts[0].pass) << run.leak_verdicts[0].detail;
}

// The schema every metric-bearing subsystem exports: scale-out routing
// servers, the full HA layer (failover, anti-entropy, election, dampening)
// and causal tracing, on a fault-free two-edge fabric. Export's own tests
// cover the JSON and Prometheus renderings of such snapshots.
TEST(TelemetrySchema, EveryFamilyExportsItsFaultFreeValues) {
  sim::Simulator sim;
  FabricConfig config;
  config.l2_gateway = false;
  config.seed = 0x5DA;
  config.trace_first_packets = true;
  config.routing_servers = 2;
  config.ha.failover = true;
  config.ha.anti_entropy_interval = std::chrono::milliseconds{500};
  config.ha.election = true;
  config.ha.dampening = true;
  config.causal_tracing = true;
  SdaFabric fabric(sim, config);
  fabric.add_border("b0");
  fabric.add_edge("e0");
  fabric.add_edge("e1");
  fabric.link("e0", "b0");
  fabric.link("e1", "b0");
  fabric.finalize();
  fabric.define_vn({VnId{1}, "corp", *net::Ipv4Prefix::parse("10.1.0.0/16")});
  std::array<net::Ipv4Address, 2> ips;
  for (std::size_t i = 0; i < 2; ++i) {
    fabric.provision_endpoint(
        {"h" + std::to_string(i), "pw", MacAddress::from_u64(0x0400 + i), VnId{1}, GroupId{10}});
    fabric.connect_endpoint("h" + std::to_string(i), "e" + std::to_string(i), 1,
                            [&ips, i](const OnboardResult& r) { ips[i] = r.ip; });
  }
  // The HA timers never drain the queue: drive time explicitly. 3 s covers
  // the first election and the acked registrations.
  sim.run_until(sim.now() + std::chrono::seconds{3});
  fabric.endpoint_send_udp(MacAddress::from_u64(0x0400), ips[1], 443, 200);
  sim.run_until(sim.now() + std::chrono::milliseconds{200});
  const telemetry::Snapshot first = fabric.metrics().snapshot();
  for (int i = 0; i < 8; ++i) {
    fabric.endpoint_send_udp(MacAddress::from_u64(0x0401), ips[0], 443, 200);
  }
  sim.run_until(sim.now() + std::chrono::milliseconds{200});
  const telemetry::Snapshot second = fabric.metrics().snapshot();

  for (const char* name :
       {"edge[0].map_cache.misses", "edge[1].map_cache.hits", "edge[0].smr_sent",
        "map_server.requests", "border[0].hairpinned", "routing_server[0].dropped_submissions",
        "routing_server[1].dropped_submissions", "routing_server[0].shed_submissions",
        "routing_server[1].shed_submissions", "routing_server[0].ramp_sheds",
        "routing_server[1].ramp_sheds", "ha.heartbeats_sent", "ha.failovers",
        "ha.anti_entropy_rounds", "ha.elections_started", "ha.leaders_elected",
        "ha.epoch_rejections", "ha.suppressions", "ha.quorum_stalls", "ha.minority_leaders",
        "ha.catchup.replays", "ha.catchup.entries_replayed", "ha.catchup.snapshot_fallbacks",
        "ha.catchup.replay_bytes", "ha.catchup.snapshot_bytes"}) {
    EXPECT_TRUE(first.counters.count(name)) << "missing counter " << name;
  }
  for (const char* name :
       {"routing_server[0].online", "routing_server[1].in_flight",
        "routing_server[0].admission_ramp", "ha.servers_up", "ha.replica_divergence",
        "ha.election.term", "ha.election.leader", "ha.election.quorum",
        "ha.dampening.suppressed"}) {
    EXPECT_TRUE(first.gauges.count(name)) << "missing gauge " << name;
  }
  for (const char* name :
       {"fabric.first_packet_us", "fabric.onboard_ms", "assurance.register_rtt_us",
        "assurance.move_convergence_us", "assurance.failover_rehome_us",
        "assurance.smr_fanout_us", "assurance.catchup_convergence_us"}) {
    EXPECT_TRUE(first.histograms.count(name)) << "missing histogram " << name;
  }

  // Fault-free: the timers fired, server 0 keeps the first term, nothing is
  // suppressed, diverged or stalled, and both onboards were traced.
  const auto counter = [&first](const char* name) {
    const auto it = first.counters.find(name);
    return it == first.counters.end() ? ~std::uint64_t{0} : it->second;
  };
  const auto gauge = [&first](const char* name) {
    const auto it = first.gauges.find(name);
    return it == first.gauges.end() ? -2.0 : it->second;
  };
  const auto total = [&first](const char* name) {
    const auto it = first.histograms.find(name);
    return it == first.histograms.end() ? 0 : it->second.total;
  };
  EXPECT_GT(counter("ha.heartbeats_sent"), 0u);
  EXPECT_GT(counter("ha.anti_entropy_rounds"), 0u);
  EXPECT_EQ(counter("ha.quorum_stalls"), 0u);
  EXPECT_EQ(counter("ha.minority_leaders"), 0u);
  EXPECT_GE(gauge("ha.election.term"), 1.0);
  EXPECT_EQ(gauge("ha.election.leader"), 0.0);
  EXPECT_EQ(gauge("ha.election.quorum"), 1.0);
  EXPECT_EQ(gauge("ha.dampening.suppressed"), 0.0);
  EXPECT_EQ(gauge("ha.replica_divergence"), 0.0);
  EXPECT_EQ(gauge("ha.servers_up"), 2.0);
  EXPECT_EQ(total("fabric.onboard_ms"), 2u);
  EXPECT_GE(total("assurance.register_rtt_us"), 2u);

  // Every histogram accounts for each sample in exactly one bucket.
  for (const telemetry::Snapshot* snap : {&first, &second}) {
    for (const auto& [name, h] : snap->histograms) {
      EXPECT_LT(h.spec.lo, h.spec.hi) << name;
      std::uint64_t in_range = 0;
      for (const std::uint64_t c : h.counts) in_range += c;
      EXPECT_EQ(in_range + h.underflow + h.overflow, h.total) << name;
    }
  }

  // Traffic changes values, never the schema, and counters only grow.
  const auto keys = [](const auto& map) {
    std::vector<std::string> out;
    for (const auto& [name, value] : map) out.push_back(name);
    return out;
  };
  EXPECT_EQ(keys(first.counters), keys(second.counters));
  EXPECT_EQ(keys(first.gauges), keys(second.gauges));
  EXPECT_EQ(keys(first.histograms), keys(second.histograms));
  std::uint64_t moved = 0;
  for (const auto& [name, value] : first.counters) {
    const auto it = second.counters.find(name);
    if (it == second.counters.end()) continue;
    EXPECT_GE(it->second, value) << name << " went backwards";
    if (it->second > value) moved += it->second - value;
  }
  EXPECT_GT(moved, 0u) << "the second snapshot shows no traffic";

  const std::string prom = telemetry::to_prometheus(first);
  EXPECT_NE(prom.find("# TYPE sda_edge_0_map_cache_misses counter\n"), std::string::npos);
  EXPECT_NE(prom.find("sda_fabric_first_packet_us_bucket"), std::string::npos);
}

}  // namespace
}  // namespace sda::fabric
