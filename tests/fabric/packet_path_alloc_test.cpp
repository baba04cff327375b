// Allocation gates for the packet path, independent of the machine, with
// telemetry on or off:
//  * cached packet: once every destination sits in the map-cache, a send ->
//    encap -> underlay -> egress VRF + SGACL -> delivery round makes no heap
//    allocation and costs exactly one simulator event, also while a traced
//    flow is armed that never sends (every tracer hook runs its lookup);
//  * first packet (§3.2.2): a map-cache miss — border hairpin, Map-Request,
//    map-server job, Map-Reply, and a cache install that evicts — makes no
//    heap allocation and costs exactly five simulator events, and the
//    retransmit timer its reply cancels does not linger in the event queue;
//  * routing-server failover (§4.1, §5): with the primary declared down,
//    every miss resolves at the replica for the same five events and no
//    allocation, and the server fails over and back exactly once;
//  * roam (Figs. 5 and 6): re-authentication, Map-Register, Map-Notify, one
//    stale forward, one SMR and the sender's re-resolution cost exactly
//    thirteen events, under an allocation ceiling that only comes down;
//  * onboarding (Fig. 3): a fresh host costs exactly six events, under an
//    allocation ceiling that only comes down;
//  * endpoint churn at one edge: detach and re-attach at a constant
//    population reuse the endpoint's record and index entries, allocating
//    nothing;
//  * rule re-download at one edge: pushing a destination group's rules
//    again, with the same rule count, allocates nothing;
//  * map-cache reinstall at capacity: an install reuses the evicted slot's
//    locator buffer, allocating nothing;
//  * causal tracing off: the tracer's per-hook call pattern allocates
//    nothing.
//
// Built as its own executable because it replaces the global operator new
// with a counting one.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "fabric/fabric.hpp"
#include "faults/fault_plane.hpp"
#include "telemetry/causal_trace.hpp"

namespace {

std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

/// Cache-line-aligned slots (the map-cache's, the VRF's) take this path.
void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  ++g_allocations;
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (std::max<std::size_t>(size, 1) + alignment - 1) / alignment;
  if (void* p = std::aligned_alloc(alignment, rounded * alignment)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace sda::fabric {
namespace {

constexpr net::VnId kVn{100};
constexpr std::size_t kEdges = 16;
constexpr std::size_t kHostsPerEdge = 16;
constexpr std::size_t kHosts = kEdges * kHostsPerEdge;

struct PathRun {
  std::uint64_t sends = 0;
  std::uint64_t delivered = 0;
  std::uint64_t allocations = 0;
  std::uint64_t events = 0;
  std::size_t frames_in_flight = 0;
  std::size_t control_in_flight = 0;
};

// 16 edges on a ring of 4 distribution nodes, 256 hosts, all onboarded.
struct Campus {
  explicit Campus(FabricConfig config) : fabric(sim, config) {
  fabric.add_border("b0");
  for (int d = 0; d < 4; ++d) fabric.add_underlay_node("d" + std::to_string(d));
  for (std::size_t e = 0; e < kEdges; ++e) {
    fabric.add_edge("e" + std::to_string(e));
    fabric.link("e" + std::to_string(e), "d" + std::to_string(e % 4));
  }
  for (int d = 0; d < 4; ++d) {
    fabric.link("d" + std::to_string(d), "b0");
    fabric.link("d" + std::to_string(d), "d" + std::to_string((d + 1) % 4));
  }
    fabric.finalize();
    fabric.define_vn({kVn, "campus", *net::Ipv4Prefix::parse("10.64.0.0/14")});
    ips.resize(kHosts);
    for (std::size_t h = 0; h < kHosts; ++h) {
      macs.push_back(net::MacAddress::from_u64(0x0200'0000'0000ull + h));
      const std::string credential = "host" + std::to_string(h);
      fabric.provision_endpoint({credential, "pw", macs[h], kVn, net::GroupId{10}});
      fabric.connect_endpoint(credential, "e" + std::to_string(h / kHostsPerEdge), 1,
                              [this, h](const OnboardResult& r) { ips[h] = r.ip; });
    }
    // HA heartbeats never let the queue drain: onboard for a simulated
    // second instead.
    if (config.ha.failover) {
      sim.run_until(sim.now() + std::chrono::seconds{1});
    } else {
      sim.run();
    }
    fabric.set_delivery_listener([this](const dataplane::AttachedEndpoint&,
                                        const net::OverlayFrame&,
                                        sim::SimTime) { ++delivered; });
  }

  /// Runs `rounds` calls of `round` after `warmup` unmeasured ones and
  /// returns the counts of the measured ones.
  template <typename Round>
  PathRun measure(int warmup, int rounds, Round round) {
    for (int i = 0; i < warmup; ++i) round();
    PathRun run;
    delivered = 0;
    const std::uint64_t allocations = g_allocations;
    const std::uint64_t events = sim.executed_events();
    for (int i = 0; i < rounds; ++i) run.sends += round();
    run.allocations = g_allocations - allocations;
    run.events = sim.executed_events() - events;
    run.delivered = delivered;
    if (fabric.config().telemetry) {
      const auto gauges = fabric.metrics().snapshot().gauges;
      run.frames_in_flight = static_cast<std::size_t>(gauges.at("fabric.frames_in_flight"));
      run.control_in_flight = static_cast<std::size_t>(gauges.at("fabric.control_in_flight"));
    }
    return run;
  }

  sim::Simulator sim;
  SdaFabric fabric;
  std::vector<net::MacAddress> macs;
  std::vector<net::Ipv4Address> ips;
  std::uint64_t delivered = 0;
};

FabricConfig campus_config(bool telemetry) {
  FabricConfig config;
  config.seed = 11;
  config.telemetry = telemetry;
  return config;
}

// Host h sends to the host in the same slot on the next edge. Returns the
// counts of `rounds` rounds of one cached send per host, each round run to
// quiesce. With `arm_unmatched`, a first-packet trace is armed for a flow
// that never sends, so the tracer is not idle.
PathRun run_cached(bool telemetry, int rounds, bool arm_unmatched = false) {
  Campus campus(campus_config(telemetry));
  SdaFabric& fabric = campus.fabric;
  if (arm_unmatched) {
    fabric.trace_flow(net::VnEid{kVn, net::Eid{net::Ipv4Address{10, 67, 0, 1}}},
                      net::VnEid{kVn, net::Eid{net::Ipv4Address{10, 67, 0, 2}}});
  }
  const auto round = [&] {
    for (std::size_t h = 0; h < kHosts; ++h) {
      EXPECT_TRUE(fabric.endpoint_send_udp(campus.macs[h],
                                           campus.ips[(h + kHostsPerEdge) % kHosts], 5000, 64));
    }
    campus.sim.run();
    return kHosts;
  };
  // The first round resolves every destination (map-cache misses ride the
  // border); the next ones grow the event heap and the frame slab to the
  // size a round needs.
  return campus.measure(3, rounds, round);
}

// Every edge's map-cache holds 8 entries. In round r, one host per edge
// sends to a host on another edge, walking all 240 of them before any
// repeats, so every send misses, resolves, and evicts the least recently
// used entry. Returns the counts of `rounds` rounds after `warmup`.
struct MissRun {
  PathRun path;
  std::uint64_t map_requests = 0;
  std::uint64_t evictions = 0;
  std::uint64_t hairpinned = 0;
  /// Rounds that ended with more queue entries than
  /// 2 * pending events + Simulator::kTombstoneSlack.
  std::uint64_t tombstone_overflows = 0;
};

// Rounds of misses are paced this far apart in sim time, well inside the
// 1 s Map-Request retransmit timeout, so every round's cancelled timers are
// still due when the next round starts.
constexpr sim::Duration kMissRoundSpacing = std::chrono::milliseconds{2};

// Round r of misses: one send per edge, from the edge's slot r % 16 host.
void send_miss_round(Campus& campus, std::size_t r) {
  for (std::size_t e = 0; e < kEdges; ++e) {
    const std::size_t step = r + e;
    const std::size_t to_edge = (e + 1 + step % (kEdges - 1)) % kEdges;
    const std::size_t to_slot = (step / (kEdges - 1)) % kHostsPerEdge;
    EXPECT_TRUE(campus.fabric.endpoint_send_udp(campus.macs[e * kHostsPerEdge + r % kHostsPerEdge],
                                                campus.ips[to_edge * kHostsPerEdge + to_slot],
                                                5000, 64));
  }
}

MissRun run_misses(bool telemetry, int warmup, int rounds) {
  FabricConfig config = campus_config(telemetry);
  config.edge_map_cache_capacity = 8;
  Campus campus(config);
  SdaFabric& fabric = campus.fabric;
  // The sojourn sample logs grow with run length, not with the work done
  // per request; size them so the measured rounds never regrow them.
  fabric.map_server_node().reserve_sojourn_samples(
      static_cast<std::size_t>(warmup + rounds) * kEdges);
  // A fabric in service always has some earlier timer pending (a host's
  // next send, a heartbeat). This one stands in for it, so the tombstones
  // of cancelled retransmit timers queue up behind it instead of being
  // popped off the head when a round drains.
  const sim::EventHandle keepalive =
      campus.sim.schedule_after(std::chrono::milliseconds{900}, [] {});
  std::size_t r = 0;
  std::uint64_t tombstone_overflows = 0;
  const auto round = [&] {
    send_miss_round(campus, r);
    campus.sim.run_until(campus.sim.now() + kMissRoundSpacing);
    const sim::Simulator& sim = campus.sim;
    if (sim.queued_entries() > 2 * sim.pending_events() + sim::Simulator::kTombstoneSlack) {
      ++tombstone_overflows;
    }
    ++r;
    return kEdges;
  };
  const auto totals = [&] {
    MissRun t;
    for (const auto& name : fabric.edge_names()) {
      t.map_requests += fabric.edge(name).counters().map_requests_sent;
      t.evictions += fabric.edge(name).map_cache().stats().evictions;
    }
    t.hairpinned = fabric.border("b0").counters().hairpinned;
    return t;
  };
  // Warm-up fills every cache to capacity and grows the slabs, the event
  // heap and the recorder ring's node strings to their steady sizes.
  for (int i = 0; i < warmup; ++i) round();
  const MissRun before = totals();
  MissRun run;
  run.path = campus.measure(0, rounds, round);
  const MissRun after = totals();
  run.map_requests = after.map_requests - before.map_requests;
  run.evictions = after.evictions - before.evictions;
  run.hairpinned = after.hairpinned - before.hairpinned;
  run.tombstone_overflows = tombstone_overflows;
  EXPECT_TRUE(campus.sim.cancel(keepalive));  // rounds ended before it was due
  return run;
}

TEST(PacketPathAlloc, CachedSendsAllocateNothingWithTelemetryOn) {
  const PathRun run = run_cached(/*telemetry=*/true, 40);  // 10,240 sends
  EXPECT_EQ(run.delivered, run.sends);
  EXPECT_EQ(run.allocations, 0u);
  EXPECT_EQ(run.events, run.delivered);
  EXPECT_EQ(run.frames_in_flight, 0u);
}

TEST(PacketPathAlloc, CachedSendsAllocateNothingWithTelemetryOff) {
  const PathRun run = run_cached(/*telemetry=*/false, 40);
  EXPECT_EQ(run.delivered, run.sends);
  EXPECT_EQ(run.allocations, 0u);
  EXPECT_EQ(run.events, run.delivered);
}

TEST(PacketPathAlloc, CachedSendsAllocateNothingWithAnUnmatchedFlowArmed) {
  const PathRun run = run_cached(/*telemetry=*/true, 40, /*arm_unmatched=*/true);
  EXPECT_EQ(run.delivered, run.sends);
  EXPECT_EQ(run.allocations, 0u);
  EXPECT_EQ(run.events, run.delivered);
  EXPECT_EQ(run.frames_in_flight, 0u);
}

// Five events per miss: the frame to the border, the border's hairpin to
// the destination edge, the Map-Request leg, the map-server job and the
// Map-Reply leg (the cancelled retransmit timer never runs).
constexpr std::uint64_t kEventsPerMiss = 5;

void expect_misses_allocate_nothing(const MissRun& run, int rounds) {
  const std::uint64_t sends = static_cast<std::uint64_t>(rounds) * kEdges;
  EXPECT_EQ(run.path.sends, sends);
  EXPECT_EQ(run.path.delivered, sends);
  EXPECT_EQ(run.map_requests, sends);  // every send missed and resolved
  EXPECT_EQ(run.evictions, sends);     // every install evicted
  EXPECT_EQ(run.hairpinned, sends);    // every first packet rode the border
  EXPECT_EQ(run.path.events, kEventsPerMiss * sends);
  EXPECT_EQ(run.path.allocations, 0u);
  // Each miss cancels its retransmit timer; the cancelled entries are
  // swept out of the queue instead of waiting there for their deadline.
  EXPECT_EQ(run.tombstone_overflows, 0u);
}

TEST(PacketPathAlloc, MissesAllocateNothingWithTelemetryOn) {
  const MissRun run = run_misses(/*telemetry=*/true, 160, 64);  // 1,024 misses
  expect_misses_allocate_nothing(run, 64);
  EXPECT_EQ(run.path.frames_in_flight, 0u);
  EXPECT_EQ(run.path.control_in_flight, 0u);
}

TEST(PacketPathAlloc, MissesAllocateNothingWithTelemetryOff) {
  const MissRun run = run_misses(/*telemetry=*/false, 160, 64);
  expect_misses_allocate_nothing(run, 64);
}

// Routing-server failover (§4.1, §5). Two routing servers; edge e sends its
// Map-Requests to server e % 2. Server 0 goes dark, three missed heartbeats
// declare it down, and from then on every miss of both edge groups resolves
// at the replica. Heartbeats keep firing, so each window of misses is
// matched by an idle window of the same length and heartbeat phase (one
// heartbeat interval, started 50 ms past a heartbeat); the difference is
// what the misses themselves cost. Server 0 comes back, four answered
// heartbeats later traffic fails back.
struct FailoverRun {
  PathRun idle;    // heartbeats only
  PathRun misses;  // heartbeats plus one miss per edge every 2 ms
  std::uint64_t map_requests = 0;
  std::uint64_t replica_answers = 0;  // Map-Requests server 1 answered
  std::uint64_t primary_requests = 0;  // reached server 0: answered or dropped
  bool down_in_windows = false;
  std::uint64_t failovers = 0;
  std::uint64_t failbacks = 0;
};

FailoverRun run_failover(bool telemetry) {
  FabricConfig config = campus_config(telemetry);
  config.edge_map_cache_capacity = 8;
  config.routing_servers = 2;
  config.ha.failover = true;
  const sim::Duration heartbeat = config.ha.heartbeat_interval;
  const int window_rounds = static_cast<int>(heartbeat / kMissRoundSpacing);
  Campus campus(config);
  SdaFabric& fabric = campus.fabric;
  sim::Simulator& sim = campus.sim;
  lisp::MapServerNode& primary = fabric.map_server_node(0);
  lisp::MapServerNode& replica = fabric.map_server_node(1);
  const HaMonitor& ha = *fabric.ha_monitor();
  replica.reserve_sojourn_samples(static_cast<std::size_t>(3 * window_rounds) * kEdges);

  // Heartbeats fire at whole multiples of the interval from finalize() at
  // time 0; the outage, and so every window below, starts 50 ms past one.
  const sim::SimTime outage_at =
      sim::SimTime{} + (sim.now().since_start() / heartbeat + 1) * heartbeat +
      std::chrono::milliseconds{50};
  constexpr sim::Duration kOutage = std::chrono::seconds{2};
  faults::FaultPlane plane(sim, fabric.underlay(), 7);
  plane.server_outage(primary, outage_at - sim.now(), kOutage);
  sim.run_until(outage_at + 5 * heartbeat);  // declared down after 3 misses
  EXPECT_FALSE(ha.server_up(0));

  std::size_t r = 0;
  const auto miss_round = [&] {
    send_miss_round(campus, r++);
    sim.run_until(sim.now() + kMissRoundSpacing);
    return kEdges;
  };
  const auto idle_round = [&] {
    sim.run_until(sim.now() + kMissRoundSpacing);
    return std::size_t{0};
  };
  const auto requests = [&] {
    std::uint64_t sent = 0;
    for (const auto& name : fabric.edge_names()) {
      sent += fabric.edge(name).counters().map_requests_sent;
    }
    return sent;
  };
  // Warm-up fills every cache and grows the replica's slabs for the load
  // of both edge groups.
  for (int i = 0; i < 2 * window_rounds; ++i) miss_round();
  FailoverRun run;
  const std::uint64_t requests_before = requests();
  const std::uint64_t answers_before = replica.request_sojourns().count();
  const std::uint64_t primary_before =
      primary.request_sojourns().count() + primary.dropped_submissions();
  run.idle = campus.measure(0, window_rounds, idle_round);
  run.misses = campus.measure(0, window_rounds, miss_round);
  run.down_in_windows = !ha.server_up(0) && !primary.online();
  run.map_requests = requests() - requests_before;
  run.replica_answers = replica.request_sojourns().count() - answers_before;
  run.primary_requests =
      primary.request_sojourns().count() + primary.dropped_submissions() - primary_before;
  // Back online; four answered heartbeats later the group fails back.
  sim.run_until(outage_at + kOutage + 6 * heartbeat);
  run.failovers = ha.counters().failovers;
  run.failbacks = ha.counters().failbacks;
  EXPECT_TRUE(ha.server_up(0));
  return run;
}

// A miss at the replica costs the same five events as the miss arm's, and
// allocates nothing. The idle window is the heartbeats' own cost: each
// server's heartbeat timer and probe leg, the live replica's answer leg,
// and each server's timeout timer. The ack and the timeout carry the beat's
// sequence number, so a heartbeat allocates nothing.
constexpr std::uint64_t kHeartbeatEventsPerInterval = 7;
constexpr std::uint64_t kHeartbeatAllocsPerInterval = 0;

void expect_failover_pinned(const FailoverRun& run) {
  const std::uint64_t misses = run.misses.sends;
  EXPECT_EQ(misses, 100u * kEdges);
  EXPECT_EQ(run.misses.delivered, misses);
  EXPECT_TRUE(run.down_in_windows);
  EXPECT_EQ(run.map_requests, misses);     // one Map-Request per miss, no retry
  EXPECT_EQ(run.replica_answers, misses);  // every one answered by server 1
  EXPECT_EQ(run.primary_requests, 0u);     // none sent to the dark server
  EXPECT_EQ(run.idle.events, kHeartbeatEventsPerInterval);
  EXPECT_EQ(run.idle.allocations, kHeartbeatAllocsPerInterval);
  EXPECT_EQ(run.misses.events - run.idle.events, kEventsPerMiss * misses);
  EXPECT_EQ(run.misses.allocations, run.idle.allocations);
  EXPECT_EQ(run.failovers, 1u);
  EXPECT_EQ(run.failbacks, 1u);
}

TEST(PacketPathAlloc, FailoverMissesAtTheReplicaWithTelemetryOn) {
  const FailoverRun run = run_failover(/*telemetry=*/true);
  expect_failover_pinned(run);
  EXPECT_EQ(run.misses.frames_in_flight, 0u);
  EXPECT_EQ(run.misses.control_in_flight, 0u);
}

TEST(PacketPathAlloc, FailoverMissesAtTheReplicaWithTelemetryOff) {
  expect_failover_pinned(run_failover(/*telemetry=*/false));
}

// Roams. The slot-0 host of every edge is a roamer; the slot-1 host on the
// edge halfway round the ring sends to it and never moves. A round moves
// one roamer to the next edge (skipping its sender's) and runs the fabric
// to quiesce: re-authentication, Map-Register, the border publish and the
// old edge's Map-Notify. Its sender then sends one frame, which still goes
// to the old edge: one stale forward, one SMR, and the sender's
// re-resolution.
struct RoamRun {
  PathRun path;
  std::uint64_t roams = 0;
  std::uint64_t stale_forwards = 0;
  std::uint64_t smr_sent = 0;
  std::uint64_t smr_invoked_requests = 0;
};

RoamRun run_roams(bool telemetry, int warmup, int rounds) {
  Campus campus(campus_config(telemetry));
  SdaFabric& fabric = campus.fabric;
  fabric.map_server_node().reserve_sojourn_samples(
      static_cast<std::size_t>(warmup + rounds) * 2 + kHosts);
  const auto roamer = [](std::size_t k) { return k * kHostsPerEdge; };
  const auto sender = [](std::size_t k) {
    return ((k + kEdges / 2) % kEdges) * kHostsPerEdge + 1;
  };
  std::vector<std::size_t> at(kEdges);
  for (std::size_t k = 0; k < kEdges; ++k) {
    at[k] = k;
    EXPECT_TRUE(fabric.endpoint_send_udp(campus.macs[sender(k)], campus.ips[roamer(k)], 5000, 64));
  }
  campus.sim.run();
  std::size_t r = 0;
  const auto round = [&] {
    const std::size_t k = r++ % kEdges;
    const std::size_t sender_edge = sender(k) / kHostsPerEdge;
    at[k] = (at[k] + 1) % kEdges;
    if (at[k] == sender_edge) at[k] = (at[k] + 1) % kEdges;
    fabric.roam_endpoint(campus.macs[roamer(k)], "e" + std::to_string(at[k]), 1);
    campus.sim.run();
    EXPECT_TRUE(fabric.endpoint_send_udp(campus.macs[sender(k)], campus.ips[roamer(k)], 5000, 64));
    campus.sim.run();
    return std::uint64_t{1};
  };
  const auto totals = [&] {
    RoamRun t;
    for (const auto& name : fabric.edge_names()) {
      t.stale_forwards += fabric.edge(name).counters().stale_forwards;
      t.smr_sent += fabric.edge(name).counters().smr_sent;
      t.smr_invoked_requests += fabric.edge(name).counters().smr_received;
    }
    return t;
  };
  // Warm-up takes every roamer round the ring a few times, so every edge
  // has hosted it, notified for it and solicited for it.
  for (int i = 0; i < warmup; ++i) round();
  const RoamRun before = totals();
  RoamRun run;
  run.path = campus.measure(0, rounds, round);
  const RoamRun after = totals();
  run.roams = run.path.sends;
  run.stale_forwards = after.stale_forwards - before.stale_forwards;
  run.smr_sent = after.smr_sent - before.smr_sent;
  run.smr_invoked_requests = after.smr_invoked_requests - before.smr_invoked_requests;
  return run;
}

// Thirteen events per roam: two onboarding steps (authentication; rules and
// address), the Map-Register leg, the map-server job, the border publish,
// the old edge's Map-Notify, the new edge's ack; then the sender's frame to
// the old edge, its stale forward to the new edge, the SMR, and the
// sender's Map-Request leg, server job and Map-Reply leg.
constexpr std::uint64_t kEventsPerRoam = 13;
// Allocations per roam, a ceiling at today's count (27.15, telemetry on or
// off). The edges' endpoint records, pending registrations and map-cache
// free lists no longer allocate, nor does sizing a control message or
// updating the border's FIB; onboarding closures, the Map-Notify's locator
// vector and the access request's strings still do. The ceiling only
// comes down.
constexpr double kAllocsPerRoamCeiling = 27.2;

void expect_roams_pinned(const RoamRun& run, int rounds) {
  const auto roams = static_cast<std::uint64_t>(rounds);
  EXPECT_EQ(run.roams, roams);
  EXPECT_EQ(run.path.events, kEventsPerRoam * roams);
  EXPECT_LE(static_cast<double>(run.path.allocations),
            kAllocsPerRoamCeiling * static_cast<double>(roams));
  EXPECT_EQ(run.path.delivered, roams);  // the stale-forwarded frame arrives
  EXPECT_EQ(run.stale_forwards, roams);
  EXPECT_EQ(run.smr_sent, roams);
  EXPECT_EQ(run.smr_invoked_requests, roams);
}

TEST(PacketPathAlloc, RoamsWithTelemetryOn) {
  const RoamRun run = run_roams(/*telemetry=*/true, 16 * kEdges, 8 * kEdges);
  expect_roams_pinned(run, 8 * kEdges);
  EXPECT_EQ(run.path.frames_in_flight, 0u);
  EXPECT_EQ(run.path.control_in_flight, 0u);
}

TEST(PacketPathAlloc, RoamsWithTelemetryOff) {
  const RoamRun run = run_roams(/*telemetry=*/false, 16 * kEdges, 8 * kEdges);
  expect_roams_pinned(run, 8 * kEdges);
}

// Onboarding (Fig. 3): fresh hosts connect one at a time to the populated
// campus, whose edges, servers and VNs stay as they are, each run to
// quiesce. Their group already has rules on every edge, so no rule
// download rides along.
struct OnboardRun {
  PathRun path;
  std::uint64_t onboarded = 0;
};

OnboardRun run_onboardings(bool telemetry, int warmup, int onboardings) {
  Campus campus(campus_config(telemetry));
  SdaFabric& fabric = campus.fabric;
  const auto fresh = static_cast<std::size_t>(warmup + onboardings);
  std::vector<std::string> credentials;
  for (std::size_t h = 0; h < fresh; ++h) {
    credentials.push_back("fresh" + std::to_string(h));
    fabric.provision_endpoint({credentials.back(), "pw",
                               net::MacAddress::from_u64(0x0300'0000'0000ull + h), kVn,
                               net::GroupId{10}});
  }
  const std::vector<std::string> edges = fabric.edge_names();
  std::size_t i = 0;
  std::uint64_t onboarded = 0;
  const auto round = [&] {
    fabric.connect_endpoint(credentials[i], edges[i % kEdges], 2,
                            [&onboarded](const OnboardResult& r) { onboarded += r.success; });
    ++i;
    campus.sim.run();
    return std::uint64_t{1};
  };
  for (int k = 0; k < warmup; ++k) round();
  OnboardRun run;
  const std::uint64_t before = onboarded;
  run.path = campus.measure(0, onboardings, round);
  run.onboarded = onboarded - before;
  return run;
}

// Six events per onboarding: two onboarding steps (authentication; address,
// attach and Map-Register), the Map-Register leg, the map-server job, the
// border publish and the edge's Map-Notify ack.
constexpr std::uint64_t kEventsPerOnboarding = 6;
// Allocations per onboarding, a ceiling at today's count (25.29, telemetry
// on or off): the onboarding closures, the access request's and the
// endpoint record's strings, and the map server's and edge's tables
// growing with the population. The ceiling only comes down.
constexpr double kAllocsPerOnboardingCeiling = 25.3;

void expect_onboardings_pinned(const OnboardRun& run, int onboardings) {
  const auto n = static_cast<std::uint64_t>(onboardings);
  EXPECT_EQ(run.path.sends, n);
  EXPECT_EQ(run.onboarded, n);
  EXPECT_EQ(run.path.events, kEventsPerOnboarding * n);
  EXPECT_LE(static_cast<double>(run.path.allocations),
            kAllocsPerOnboardingCeiling * static_cast<double>(n));
}

TEST(PacketPathAlloc, OnboardingsWithTelemetryOn) {
  const OnboardRun run = run_onboardings(/*telemetry=*/true, 2 * kEdges, 16 * kEdges);
  expect_onboardings_pinned(run, 16 * kEdges);
  EXPECT_EQ(run.path.frames_in_flight, 0u);
  EXPECT_EQ(run.path.control_in_flight, 0u);
}

TEST(PacketPathAlloc, OnboardingsWithTelemetryOff) {
  const OnboardRun run = run_onboardings(/*telemetry=*/false, 2 * kEdges, 16 * kEdges);
  expect_onboardings_pinned(run, 16 * kEdges);
}

// Endpoint churn at one edge, below the fabric: 32 hosts in two VNs, some
// with IPv6 and MAC identities. A cycle detaches one host (a roam away or a
// clean departure, alternately) and attaches it again at the next port.
// The population, and so every group's membership, stays constant.
TEST(PacketPathAlloc, EndpointChurnAtConstantPopulationAllocatesNothing) {
  sim::Simulator simulator;
  dataplane::EdgeRouterConfig config;
  config.name = "e0";
  config.rloc = net::Ipv4Address{0x0A01'0001u};
  dataplane::EdgeRouter edge(simulator, config);
  std::vector<dataplane::AttachedEndpoint> hosts(32);
  for (std::size_t h = 0; h < hosts.size(); ++h) {
    dataplane::AttachedEndpoint& host = hosts[h];
    host.mac = net::MacAddress::from_u64(0x0200'0000'0000ull + h);
    host.ip = net::Ipv4Address{static_cast<std::uint32_t>(0x0A40'0000u + h)};
    if (h % 2 == 0) {
      host.ipv6 = net::Ipv6Address::from_groups({0x2001, 0x0db8, 0, 0, 0, 0, 0,
                                                 static_cast<std::uint16_t>(h + 1)});
    }
    host.register_mac = h % 4 == 0;
    host.vn = net::VnId{static_cast<std::uint32_t>(100 + h % 2)};
    host.group = net::GroupId{static_cast<std::uint16_t>(10 + h % 2)};
    host.port = 1;
    host.credential = "host" + std::to_string(h);
    edge.attach_endpoint(host);
  }
  std::size_t i = 0;
  const auto cycle = [&] {
    dataplane::AttachedEndpoint& host = hosts[i % hosts.size()];
    edge.detach_endpoint(host.mac, /*deregister=*/i % 2 == 0);
    host.port = static_cast<dataplane::PortId>(host.port % 48 + 1);
    edge.attach_endpoint(host);
    ++i;
  };
  for (int k = 0; k < 1000; ++k) cycle();  // grows the mobility records' slots
  const std::uint64_t allocations = g_allocations;
  for (int k = 0; k < 10000; ++k) cycle();
  EXPECT_EQ(g_allocations - allocations, 0u);
  EXPECT_EQ(edge.endpoint_count(), hosts.size());
  EXPECT_EQ(edge.vrf().size(), 32u + 16u + 8u);
}

// Policy push (§5.4) at one edge: a destination group's rules downloaded
// again, with the same rule count, reuse the SGACL's table slots.
TEST(PacketPathAlloc, RuleRedownloadAllocatesNothing) {
  sim::Simulator simulator;
  dataplane::EdgeRouterConfig config;
  config.name = "e0";
  config.rloc = net::Ipv4Address{0x0A01'0001u};
  dataplane::EdgeRouter edge(simulator, config);
  constexpr net::VnId kPolicyVn{100};
  const auto rules_for = [](std::uint16_t destination) {
    std::vector<policy::Rule> rules;
    for (std::uint16_t source = 1; source <= 24; ++source) {
      rules.push_back({{net::GroupId{source}, net::GroupId{destination}},
                       source % 3 == 0 ? policy::Action::Deny : policy::Action::Allow});
    }
    return rules;
  };
  for (std::uint16_t destination = 10; destination < 14; ++destination) {
    edge.install_rules(kPolicyVn, net::GroupId{destination}, rules_for(destination));
  }
  const std::vector<policy::Rule> pushed = rules_for(11);
  for (int k = 0; k < 10; ++k) edge.install_rules(kPolicyVn, net::GroupId{11}, pushed);
  const std::uint64_t allocations = g_allocations;
  for (int k = 0; k < 1000; ++k) edge.install_rules(kPolicyVn, net::GroupId{11}, pushed);
  EXPECT_EQ(g_allocations - allocations, 0u);
  EXPECT_EQ(edge.sgacl().rule_count(), 4u * 24u);
  EXPECT_EQ(edge.sgacl().evaluate(kPolicyVn, net::GroupId{3}, net::GroupId{11}),
            policy::Action::Deny);
}

// A bounded map-cache at capacity: each install evicts the LRU entry and
// takes its slot, whose locator buffer holds the newcomer's 0-3 locators.
TEST(PacketPathAlloc, MapCacheReinstallAllocatesNothing) {
  lisp::MapCache cache{8};
  std::vector<lisp::MapReply> replies(4);
  for (std::uint32_t n = 0; n < replies.size(); ++n) {
    replies[n].ttl_seconds = 60;
    for (std::uint32_t k = 0; k < n; ++k) {
      replies[n].rlocs.push_back(net::Rloc{net::Ipv4Address{0x0A00'0001u + k}});
    }
  }
  std::uint32_t i = 0;
  const auto install = [&] {
    const net::VnEid eid{kVn, net::Eid{net::Ipv4Address{0x0A40'0000u + i % 64}}};
    cache.install(eid, replies[3 - i % 4], sim::SimTime{std::chrono::seconds{i}});
    ++i;
  };
  for (int k = 0; k < 64; ++k) install();  // every slot has held three locators
  const std::uint64_t allocations = g_allocations;
  for (int k = 0; k < 10000; ++k) install();
  EXPECT_EQ(g_allocations - allocations, 0u);
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_EQ(cache.positive_size(), 6u);
}

// Causal tracing off (the default): the call pattern every control-plane
// hook makes, an enabled() check guarding begin() and then span_begin,
// span_end and finish on trace id 0, allocates nothing.
TEST(PacketPathAlloc, DisabledCausalTracerAllocatesNothing) {
  telemetry::CausalTracer tracer{16};
  const std::string node = "edge0";
  const sim::SimTime now{};
  std::uint64_t spans = 0;
  const auto hook = [&] {
    std::uint64_t trace = 0;
    if (tracer.enabled()) trace = tracer.begin(telemetry::OpKind::Register, node, now);
    const std::uint64_t span = tracer.span_begin(trace, 0, "map-register", node, now);
    tracer.span_end(trace, span, now);
    tracer.finish(trace, now);
    spans += span;
  };
  const std::uint64_t allocations = g_allocations;
  for (int k = 0; k < 10000; ++k) hook();
  EXPECT_EQ(g_allocations - allocations, 0u);
  EXPECT_EQ(spans, 0u);
  EXPECT_EQ(tracer.open_count(), 0u);
  EXPECT_EQ(tracer.completed_count(), 0u);
}

}  // namespace
}  // namespace sda::fabric
