#include "workload/drills.hpp"

#include <algorithm>

namespace sda::workload {

namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

/// Width of the sent/arrived buckets behind the re-convergence figures.
constexpr sim::Duration kBucket = milliseconds{100};

long long leader_as_int(std::size_t leader) {
  return leader == fabric::HaMonitor::kNoLeader ? -1 : static_cast<long long>(leader);
}

}  // namespace

fabric::FabricConfig drill_config(unsigned routing_servers) {
  fabric::FabricConfig config;
  config.l2_gateway = false;
  config.seed = kDrillSeed;
  config.routing_servers = routing_servers;
  config.map_request_retries = 8;
  config.map_register_retries = 10;
  return config;
}

fabric::FabricConfig failover_config(unsigned routing_servers) {
  fabric::FabricConfig config = drill_config(routing_servers);
  config.ha.failover = true;
  config.ha.heartbeat_interval = milliseconds{100};
  config.ha.heartbeat_timeout = milliseconds{30};
  config.ha.anti_entropy_interval = milliseconds{500};
  return config;
}

// --- DrillFabric ------------------------------------------------------------

DrillFabric::DrillFabric(const fabric::FabricConfig& config, int edge_count)
    : DrillFabric(config, [&config, edge_count](fabric::SdaFabric& f) {
        std::vector<std::string> borders;
        for (unsigned b = 0; b < config.routing_servers; ++b) {
          borders.push_back("b" + std::to_string(b));
          f.add_border(borders.back());
        }
        std::vector<std::string> names;
        for (int e = 0; e < edge_count; ++e) {
          names.push_back("e" + std::to_string(e));
          f.add_edge(names.back());
          for (const auto& border : borders) f.link(names.back(), border);
        }
        for (std::size_t b = 1; b < borders.size(); ++b) f.link(borders[b - 1], borders[b]);
        if (borders.size() > 2) f.link(borders.front(), borders.back());
        return names;
      }) {}

DrillFabric::DrillFabric(const fabric::FabricConfig& config, const Wiring& wire)
    : fabric(sim, config) {
  edges = wire(fabric);
  fabric.finalize();
  fabric.define_vn({kDrillVn, "corp", *net::Ipv4Prefix::parse("10.100.0.0/16")});
}

net::MacAddress DrillFabric::mac(int host) {
  return net::MacAddress::from_u64(std::uint64_t{0x0200'0000'0000} |
                                   static_cast<std::uint64_t>(host));
}

std::string DrillFabric::credential(int host) { return "h" + std::to_string(host); }

void DrillFabric::provision(int hosts, int connected, sim::Duration stagger,
                            const std::function<net::GroupId(int)>& group) {
  ips.assign(static_cast<std::size_t>(hosts), {});
  const sim::SimTime now = sim.now();
  for (int i = 0; i < hosts; ++i) {
    fabric::EndpointDefinition def;
    def.credential = credential(i);
    def.secret = "pw";
    def.mac = mac(i);
    def.vn = kDrillVn;
    def.group = group ? group(i) : net::GroupId{10};
    fabric.provision_endpoint(def);
    if (i >= connected) continue;
    const std::size_t edge = static_cast<std::size_t>(i) % edges.size();
    if (stagger == sim::Duration{}) {
      connect(i, edge, 1);
    } else {
      sim.schedule_at(now + stagger * i, [this, i, edge] { connect(i, edge, 1); });
    }
  }
}

void DrillFabric::connect(int host, std::size_t edge, dataplane::PortId port,
                          std::function<void(const fabric::OnboardResult&)> done) {
  fabric.connect_endpoint(credential(host), edges[edge], port,
                          [this, host, done = std::move(done)](const fabric::OnboardResult& r) {
                            ips[static_cast<std::size_t>(host)] = r.ip;
                            if (done) done(r);
                          });
}

void DrillFabric::start(sim::Duration run_for) {
  plane.emplace(sim, fabric.underlay(), kDrillSeed);
  // Injected faults land in the flight recorder next to the control-plane
  // events they provoke: one merged timeline per run.
  plane->set_recorder(&fabric.flight_recorder());
  t0 = sim.now();
  run_for_ = run_for;
  const auto buckets = static_cast<std::size_t>(run_for / kBucket) + 1;
  sent_in_.assign(buckets, 0);
  arrived_in_.assign(buckets, 0);
  fabric.set_delivery_listener(
      [this](const dataplane::AttachedEndpoint&, const net::OverlayFrame&, sim::SimTime at) {
        ++delivered;
        ++arrived_in_[bucket_of(at)];
      });
}

void DrillFabric::flow(int from, int to, sim::Duration first) {
  for (sim::Duration at = first; at < run_for_; at += kDrillSendGap) {
    sim.schedule_at(t0 + at, [this, from, to] {
      const net::Ipv4Address dst = ips[static_cast<std::size_t>(to)];
      if (dst.is_unspecified()) return;  // target not onboarded yet
      if (!fabric.endpoint_send_udp(mac(from), dst, 443, 200)) return;  // nor the sender
      ++sent;
      ++sent_in_[bucket_of(sim.now())];
    });
  }
}

std::size_t DrillFabric::bucket_of(sim::SimTime at) const {
  const auto idx = static_cast<std::size_t>((at - t0) / kBucket);
  return std::min(idx, sent_in_.size() - 1);
}

double DrillFabric::reconvergence_ms(sim::Duration since) const {
  const auto since_bucket = static_cast<std::size_t>(since / kBucket);
  double ms = -1;
  for (std::size_t b = 0; b < sent_in_.size(); ++b) {
    if (sent_in_[b] == 0 || arrived_in_[b] >= sent_in_[b]) continue;
    ms = (static_cast<double>(b + 1) - static_cast<double>(since_bucket)) *
         std::chrono::duration<double>(kBucket).count() * 1e3;
  }
  return ms;
}

std::vector<std::pair<double, double>> DrillFabric::fraction_series() const {
  std::vector<std::pair<double, double>> series;
  for (std::size_t b = 0; b < sent_in_.size(); ++b) {
    if (sent_in_[b] == 0) continue;
    series.emplace_back(
        static_cast<double>(b) * std::chrono::duration<double>(kBucket).count(),
        static_cast<double>(arrived_in_[b]) / static_cast<double>(sent_in_[b]));
  }
  return series;
}

// --- The drills -------------------------------------------------------------

ServerKillDrillResult run_server_kill_drill(bool ha_on) {
  constexpr int kFlows = 12;
  constexpr auto kRun = seconds{8};
  constexpr auto kKillAt = seconds{2};
  constexpr auto kKillFor = seconds{3};

  fabric::FabricConfig config = ha_on ? failover_config(2) : drill_config(2);
  config.default_route_fallback = false;  // resolution failures are visible
  config.pending_packet_limit = 8;
  DrillFabric d{config, 6};
  d.provision(kFlows + 1, kFlows);
  // The HA heartbeat timers never drain the queue: drive time explicitly.
  d.sim.run_until(d.sim.now() + seconds{1});
  d.start(kRun);

  // h0..h5 talk in a ring from t=0 (caches warm long before the kill);
  // h6/h8/h10, on edges e0/e2/e4, all homed on server 0, start cold toward
  // idle peers mid-outage, forcing fresh resolutions.
  const auto flow = [&](int from, int to, sim::Duration start) {
    d.flow(from, to, start + kDrillSendGap * from / kFlows);
  };
  for (int i = 0; i < 6; ++i) flow(i, (i + 1) % 6, sim::Duration{0});
  const auto cold_start = kKillAt + milliseconds{600};
  flow(6, 9, cold_start);
  flow(8, 11, cold_start);
  flow(10, 7, cold_start);

  // Server 0 dark for 3 s, database kept (a reboot, not a disk loss). The
  // late endpoint's registration is missed by the dead primary, leaving a
  // divergence only anti-entropy can repair.
  d.plane->server_outage(d.fabric.map_server_node(0), kKillAt, kKillFor);
  d.sim.schedule_at(d.t0 + seconds{3}, [&] { d.connect(kFlows, 1, 2); });

  d.sim.run_until(d.t0 + kRun + seconds{2});  // drain late flushes

  ServerKillDrillResult result;
  result.sent = d.sent;
  result.delivered = d.delivered;
  result.reconvergence_ms = d.reconvergence_ms(kKillAt + kKillFor);
  for (const auto& name : d.edges) {
    result.request_retries += d.fabric.edge(name).counters().map_request_retries;
  }
  if (const fabric::HaMonitor* ha = d.fabric.ha_monitor()) {
    result.failovers = ha->counters().failovers;
    result.failbacks = ha->counters().failbacks;
    result.anti_entropy_repairs = ha->counters().anti_entropy_repairs;
  }
  return result;
}

ElectionDrillResult run_election_drill() {
  constexpr int kFlows = 12;
  constexpr auto kRun = seconds{9};
  constexpr auto kKillAt = seconds{2};
  constexpr auto kKillFor = seconds{3};  // resurrects at 5 s, stale

  fabric::FabricConfig config = failover_config(2);
  config.default_route_fallback = false;
  config.pending_packet_limit = 8;
  config.ha.election = true;
  DrillFabric d{config, 6};
  d.provision(kFlows + 1, kFlows);
  d.sim.run_until(d.sim.now() + seconds{1});
  d.start(kRun);

  const auto flow = [&](int from, int to, sim::Duration start) {
    d.flow(from, to, start + kDrillSendGap * from / kFlows);
  };
  for (int i = 0; i < 6; ++i) flow(i, (i + 1) % 6, sim::Duration{0});
  flow(6, 9, kKillAt + milliseconds{600});
  flow(8, 11, kKillAt + milliseconds{600});

  // A late endpoint onboards while the new leader runs the control plane:
  // its registration is acked under the new term.
  d.plane->server_outage(d.fabric.map_server_node(0), kKillAt, kKillFor);
  d.sim.schedule_at(d.t0 + seconds{4}, [&] { d.connect(kFlows, 1, 2); });

  d.sim.run_until(d.t0 + kRun + seconds{2});

  ElectionDrillResult result;
  result.sent = d.sent;
  result.delivered = d.delivered;
  const fabric::HaMonitor& ha = *d.fabric.ha_monitor();
  result.term = ha.epoch();
  result.leader = ha.leader();
  result.elections = ha.counters().elections_started;
  result.stale_rejects = ha.counters().epoch_rejections;
  result.stale_accepts = d.fabric.stale_epoch_acks_accepted();
  result.min_feed_epoch = ~std::uint64_t{0};
  for (const auto& name : d.fabric.border_names()) {
    const auto& border = d.fabric.border(name);
    result.resyncs += border.counters().snapshots_applied;
    result.stale_rejects += border.counters().stale_epoch_rejected;
    result.min_feed_epoch = std::min(result.min_feed_epoch, border.feed_epoch());
  }
  for (const auto& name : d.edges) {
    result.stale_rejects += d.fabric.edge(name).counters().stale_epoch_rejected;
  }
  return result;
}

OscillationDrillResult run_oscillation_drill(bool dampening_on) {
  fabric::FabricConfig config = drill_config(2);
  config.ha.failover = true;
  config.ha.heartbeat_interval = milliseconds{100};
  config.ha.heartbeat_timeout = milliseconds{30};
  config.ha.dampening = dampening_on;
  config.ha.dampening_penalty = 1000.0;
  config.ha.dampening_suppress = 1500.0;
  config.ha.dampening_reuse = 500.0;
  config.ha.dampening_half_life = seconds{1};
  DrillFabric d{config, 4};
  d.sim.run_until(d.sim.now() + milliseconds{500});
  d.start(seconds{8});

  d.plane->server_oscillation(d.fabric.map_server_node(0), milliseconds{100},
                              /*down_for=*/milliseconds{400}, /*up_for=*/milliseconds{600},
                              /*cycles=*/3);
  d.sim.run_until(d.t0 + seconds{8});  // oscillation + penalty decay

  OscillationDrillResult result;
  const fabric::HaMonitor& ha = *d.fabric.ha_monitor();
  result.failovers = ha.counters().failovers;
  result.failbacks = ha.counters().failbacks;
  result.suppressions = ha.counters().suppressions;
  result.released = !ha.suppressed(0) && ha.server_up(0);
  return result;
}

QuorumDrillResult run_quorum_drill() {
  constexpr auto kPartitionAt = seconds{2};
  constexpr auto kPartitionFor = seconds{3};
  constexpr auto kRun = seconds{9};

  fabric::FabricConfig config = failover_config(3);
  config.ha.election = true;
  config.ha.election_quorum = true;
  DrillFabric d{config, 6};
  d.provision(7, 6);
  d.sim.run_until(d.sim.now() + seconds{1});
  d.start(kRun);

  // Partition replica 2's hosting border: the one-node minority side.
  const auto minority_node =
      d.fabric.underlay().topology().node_by_loopback(d.fabric.border("b2").rloc());
  d.plane->partition_node(*minority_node, kPartitionAt, kPartitionFor);

  QuorumDrillResult result;
  const fabric::HaMonitor& ha = *d.fabric.ha_monitor();
  // Sample the minority's self-belief through the partition window: with
  // quorum elections it must never assert leadership, and the quorum gauge
  // must dip while its candidacies stall.
  for (auto at = kPartitionAt + milliseconds{50}; at < kPartitionAt + kPartitionFor;
       at += milliseconds{100}) {
    d.sim.schedule_at(d.t0 + at, [&] {
      if (ha.node_believes_leader(2)) ++result.minority_led_samples;
      if (ha.quorum_lost()) result.quorum_dipped = true;
    });
  }
  d.sim.schedule_at(d.t0 + kPartitionAt + milliseconds{2500},
                    [&] { result.mid_leader = leader_as_int(ha.leader()); });
  // The majority keeps serving: an onboard mid-partition completes normally.
  d.sim.schedule_at(d.t0 + kPartitionAt + milliseconds{1500}, [&] {
    d.connect(6, 1, 2, [&result](const fabric::OnboardResult&) { result.onboard_ok = true; });
  });

  d.sim.run_until(d.t0 + kRun);

  result.stalls = ha.counters().quorum_stalls;
  result.minority_wins = ha.counters().minority_leaders;
  result.final_leader = leader_as_int(ha.leader());
  result.term = ha.epoch();
  result.quorum_held_at_end = !ha.quorum_lost();
  result.stale_accepts = d.fabric.stale_epoch_acks_accepted();
  for (const auto& v : d.fabric.telemetry().assurance.evaluate_invariants()) {
    if (v.name == "no-minority-leader") result.invariant_pass = v.pass;
  }
  return result;
}

CatchupDrillResult run_catchup_drill(std::size_t log_capacity) {
  constexpr int kBaseline = 40;
  constexpr int kDelta = 12;
  constexpr auto kOutageAt = seconds{2};
  constexpr auto kOutageFor = seconds{2};
  constexpr auto kRun = seconds{8};

  fabric::FabricConfig config = failover_config(2);
  config.causal_tracing = true;  // populates assurance.catchup_convergence_us
  config.ha.catchup_log_capacity = log_capacity;
  DrillFabric d{config, 4};
  d.provision(kBaseline + kDelta, kBaseline);
  // Baseline settles and at least one anti-entropy round records the
  // replica as caught up with the leader's log position.
  d.sim.run_until(d.sim.now() + seconds{1});
  d.start(kRun);

  const fabric::HaMonitor& ha = *d.fabric.ha_monitor();
  d.plane->server_outage(d.fabric.map_server_node(1), kOutageAt, kOutageFor);
  // Counters at outage start: the drill reports outage-repair deltas so
  // baseline-propagation noise cannot pollute the traffic comparison.
  fabric::HaMonitor::Counters before;
  d.sim.schedule_at(d.t0 + kOutageAt, [&] { before = ha.counters(); });
  // The delta the rebooting replica misses.
  d.sim.schedule_at(d.t0 + kOutageAt + milliseconds{300}, [&] {
    for (int i = kBaseline; i < kBaseline + kDelta; ++i) {
      d.connect(i, static_cast<std::size_t>(i) % d.edges.size(), 2);
    }
  });

  d.sim.run_until(d.t0 + kRun);

  const fabric::HaMonitor::Counters& after = ha.counters();
  CatchupDrillResult result;
  result.capacity = log_capacity;
  result.replays = after.catchup_replays - before.catchup_replays;
  result.entries = after.catchup_entries_replayed - before.catchup_entries_replayed;
  result.fallbacks = after.catchup_snapshot_fallbacks - before.catchup_snapshot_fallbacks;
  result.replay_bytes = after.catchup_replay_bytes - before.catchup_replay_bytes;
  result.snapshot_bytes = after.snapshot_bytes - before.snapshot_bytes;
  const telemetry::Snapshot snap = d.fabric.telemetry().metrics.snapshot();
  const auto it = snap.histograms.find("assurance.catchup_convergence_us");
  result.catchup_n = it == snap.histograms.end() ? 0 : it->second.total;
  result.converged = ha.last_divergence() == 0;
  return result;
}

StampedeDrillResult run_stampede_drill() {
  constexpr int kWarm = 6;
  constexpr int kBurst = 16;
  constexpr auto kKillAt = seconds{2};
  constexpr auto kKillFor = seconds{4};  // dead through the whole stampede
  constexpr auto kRun = seconds{10};

  fabric::FabricConfig config = failover_config(2);
  // Slow registers + a tight admission bound make the burst visible: the
  // just-elected leader must shed, not queue, the re-registration rush.
  config.map_server.register_service = milliseconds{20};
  config.map_server.admission_limit = 4;
  config.map_server.shed_retry_after = milliseconds{100};
  config.ha.election = true;
  config.ha.post_election_ramp = seconds{2};
  DrillFabric d{config, 6};
  // Staggered so the bounded admission queue never sheds the warm-up.
  d.provision(kWarm + kBurst, kWarm, milliseconds{80});
  d.sim.run_until(d.sim.now() + seconds{1});
  d.start(kRun);

  StampedeDrillResult result;
  result.onboards_asked = kBurst;
  result.limit = config.map_server.admission_limit;
  // Background traffic across the failover so a stampede mishap (a parked
  // frame leak, a starved resolution) would surface in the data plane.
  for (int i = 0; i < kWarm; ++i) d.flow(i, (i + 1) % kWarm, kDrillSendGap * i / kWarm);

  // Kill the leader; the replica wins the term and opens its ramp window.
  d.plane->server_outage(d.fabric.map_server_node(0), kKillAt, kKillFor);
  // The stampede: a burst of onboards lands mid-ramp on the fresh leader.
  d.sim.schedule_at(d.t0 + kKillAt + milliseconds{1500}, [&] {
    for (int i = kWarm; i < kWarm + kBurst; ++i) {
      d.connect(i, static_cast<std::size_t>(i) % d.edges.size(), 2,
                [&result](const fabric::OnboardResult&) { ++result.onboards_done; });
    }
  });

  d.sim.run_until(d.t0 + kRun + seconds{2});

  result.sent = d.sent;
  result.delivered = d.delivered;
  const lisp::MapServerNode& fresh = d.fabric.map_server_node(1);
  result.ramp_sheds = fresh.ramp_shed_submissions();
  result.sheds = fresh.shed_submissions();
  result.peak_backlog = fresh.peak_backlog();
  for (const auto& name : d.edges) result.parked += d.fabric.edge(name).parked_frame_count();
  result.leader = leader_as_int(d.fabric.ha_monitor()->leader());
  result.ramp_ended = !fresh.ramp_active();
  return result;
}

AssureDrillResult run_assurance_drill(
    bool breach, const std::function<void(const fabric::SdaFabric&)>& at_quiesce) {
  constexpr int kFlows = 12;
  constexpr auto kRun = seconds{9};
  constexpr auto kKillAt = seconds{2};
  constexpr auto kKillFor = seconds{3};

  fabric::FabricConfig config = failover_config(2);
  config.default_route_fallback = false;
  config.pending_packet_limit = 8;
  config.ha.election = true;
  config.causal_tracing = true;
  if (breach) config.smr_debug_delay = milliseconds{100};
  DrillFabric d{config, 6};

  // Convergence SLOs. require_samples=true makes an unpopulated histogram a
  // failure: the gate cannot go green because tracing silently broke.
  telemetry::AssuranceEngine& assurance = d.fabric.telemetry().assurance;
  assurance.add_slo({"smr-fanout-p95", "assurance.smr_fanout_us", 0.95, 20'000.0, true});
  assurance.add_slo(
      {"move-convergence-p95", "assurance.move_convergence_us", 0.95, 300'000.0, true});
  assurance.add_slo({"register-rtt-p95", "assurance.register_rtt_us", 0.95, 250'000.0, true});
  assurance.add_slo(
      {"failover-rehome-p95", "assurance.failover_rehome_us", 0.95, 400'000.0, true});

  d.provision(kFlows + 1, kFlows);
  d.sim.run_until(d.sim.now() + seconds{1});
  d.start(kRun);
  for (int i = 0; i < 6; ++i) d.flow(i, (i + 1) % 6, kDrillSendGap * i / kFlows);

  // Roams bracket the outage (clean SMR timing on both sides of the kill):
  // each roamer's peer holds a stale cache entry and is SMR'd once the old
  // edge has applied the Map-Notify (Fig. 6), well clear of the kill window.
  d.sim.schedule_at(d.t0 + milliseconds{500},
                    [&] { d.fabric.roam_endpoint(DrillFabric::mac(1), d.edges[4], 3); });
  d.sim.schedule_at(d.t0 + milliseconds{6500},
                    [&] { d.fabric.roam_endpoint(DrillFabric::mac(3), d.edges[5], 3); });

  // Kill the elected leader: the replica's watchdog opens a new term and
  // the borders re-home onto it (the FailoverRehome operation). A late
  // endpoint registers under the new leader mid-outage.
  d.plane->server_outage(d.fabric.map_server_node(0), kKillAt, kKillFor);
  d.sim.schedule_at(d.t0 + seconds{4}, [&] { d.connect(kFlows, 1, 2); });

  d.sim.run_until(d.t0 + kRun + seconds{3});  // quiesce: every op must resolve

  AssureDrillResult result;
  const telemetry::Snapshot snap = d.fabric.telemetry().metrics.snapshot();
  const auto hist_n = [&snap](const char* name) -> std::uint64_t {
    const auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? 0 : it->second.total;
  };
  result.register_n = hist_n("assurance.register_rtt_us");
  result.move_n = hist_n("assurance.move_convergence_us");
  result.rehome_n = hist_n("assurance.failover_rehome_us");
  result.smr_n = hist_n("assurance.smr_fanout_us");
  result.open_ops = d.fabric.telemetry().causal.open_count();
  result.abandoned = d.fabric.telemetry().causal.abandoned_count();
  result.invariants = assurance.evaluate_invariants();
  result.slos = assurance.evaluate_slos(snap);
  if (at_quiesce) at_quiesce(d.fabric);
  return result;
}

}  // namespace sda::workload
