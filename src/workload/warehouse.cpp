#include "workload/warehouse.hpp"

#include <unordered_map>

namespace sda::workload {

namespace {

constexpr net::VnId kRobotVn{1};
constexpr net::GroupId kRobotGroup{30};

sim::Duration seconds_d(double s) {
  return sim::Duration{static_cast<std::int64_t>(s * 1e9)};
}

struct PendingMove {
  sim::SimTime detach;
  std::optional<sim::SimTime> attach_done;
  std::optional<sim::SimTime> border_done;
  /// When the last edge took up the new location (old edge, solicited peers).
  std::optional<sim::SimTime> peers_done;
  bool counted = false;  // handover sampled; peers may still converge

  [[nodiscard]] bool complete() const { return attach_done && border_done; }
  [[nodiscard]] sim::SimTime restored() const { return std::max(*attach_done, *border_done); }
  [[nodiscard]] double handover_seconds() const {
    return static_cast<double>((restored() - detach).count()) / 1e9;
  }
  [[nodiscard]] double peers_converged_seconds() const {
    return static_cast<double>((std::max(restored(), *peers_done) - detach).count()) / 1e9;
  }
};

}  // namespace

stats::Summary WarehouseWorkload::run_reactive(std::size_t* moves_out,
                                               stats::Summary* peers_out) {
  sim::Simulator sim;
  sim::Rng rng{spec_.seed};

  fabric::FabricConfig config;
  config.timings = spec_.timings;
  config.l2_gateway = false;
  config.seed = spec_.seed ^ 0x3A;
  config.trace_first_packets = spec_.trace_first_packets;
  fabric::SdaFabric fabric(sim, config);

  fabric.add_border("border-0");
  for (unsigned e = 0; e < spec_.edges; ++e) {
    const std::string name = "edge-" + std::to_string(e);
    fabric.add_edge(name);
    fabric.link(name, "border-0", std::chrono::microseconds{50});
  }
  fabric.finalize();
  fabric.define_vn({kRobotVn, "robots", *net::Ipv4Prefix::parse("10.64.0.0/14")});
  fabric.add_external_prefix(kRobotVn, *net::Ipv4Prefix::parse("0.0.0.0/0"));

  struct Robot {
    net::MacAddress mac;
    net::Ipv4Address ip;
    unsigned edge = 0;  // 0 or 1: the two "physical" edges
    bool moving = false;
  };
  std::vector<Robot> robots(spec_.hosts);
  for (unsigned i = 0; i < spec_.hosts; ++i) {
    robots[i].mac = net::MacAddress::from_u64(0x0600'0000'0000ull | i);
    robots[i].edge = i % 2;
    fabric::EndpointDefinition def;
    def.credential = "robot-" + std::to_string(i);
    def.secret = "wheels";
    def.mac = robots[i].mac;
    def.vn = kRobotVn;
    def.group = kRobotGroup;
    fabric.provision_endpoint(def);
  }

  // Initial onboarding, staggered below the mobility-phase rate.
  const net::Ipv4Address sink{203u << 24 | 113};  // 203.0.0.113-ish external sink
  for (unsigned i = 0; i < spec_.hosts; ++i) {
    const sim::Duration when = seconds_d(static_cast<double>(i) / 600.0);
    sim.schedule_after(when, [&fabric, &robots, i, sink] {
      Robot& robot = robots[i];
      fabric.connect_endpoint("robot-" + std::to_string(i),
                              "edge-" + std::to_string(robot.edge), 1,
                              [&fabric, &robot, sink](const fabric::OnboardResult& r) {
                                if (!r.success) return;
                                robot.ip = r.ip;
                                // Prime the upstream UDP flow towards the
                                // border (the yellow arrow of Fig. 10).
                                fabric.endpoint_send_udp(robot.mac, sink, 9000, 1458);
                              });
    });
  }

  // Move tracking: the border-sync listener stamps convergence. A robot
  // stays `moving` until its move fully completes (attach + border sync),
  // so overlapping moves of one host can never cross-contaminate samples.
  // A completed move stays on record until the robot moves again, so the
  // peer-sync listener can still stamp edges that converge after it.
  std::unordered_map<net::VnEid, PendingMove> pending;
  std::unordered_map<net::VnEid, std::size_t> robot_of;
  stats::Summary handovers;
  stats::Summary peers_converged;
  std::size_t completed = 0;

  auto maybe_finish = [&](const net::VnEid& eid) {
    const auto it = pending.find(eid);
    if (it == pending.end() || it->second.counted || !it->second.complete()) return;
    handovers.add(it->second.handover_seconds());
    ++completed;
    it->second.counted = true;
    robots[robot_of.at(eid)].moving = false;
  };
  auto close_move = [&](const PendingMove& move) {
    if (move.counted && move.peers_done) peers_converged.add(move.peers_converged_seconds());
  };

  fabric.set_border_sync_listener([&](const std::string&, const net::VnEid& eid,
                                      const lisp::MappingRecord* record) {
    if (!record) return;
    const auto it = pending.find(eid);
    if (it == pending.end() || it->second.border_done) return;
    it->second.border_done = sim.now();
    maybe_finish(eid);
  });
  fabric.set_peer_sync_listener([&](const std::string&, const net::VnEid& eid) {
    const auto it = pending.find(eid);
    if (it != pending.end()) it->second.peers_done = sim.now();
  });

  // Mobility phase: Poisson moves between the two physical edges.
  const double warmup_s = static_cast<double>(spec_.hosts) / 600.0 + 2.0;
  const sim::SimTime t0{seconds_d(warmup_s)};
  const sim::SimTime t_end = t0 + seconds_d(spec_.measure_seconds);

  std::function<void()> schedule_next_move = [&] {
    const sim::Duration gap = rng.exp_interarrival(spec_.moves_per_second);
    sim.schedule_after(gap, [&] {
      if (sim.now() >= t_end) return;
      schedule_next_move();
      // Pick a robot not currently mid-move.
      for (int attempt = 0; attempt < 4; ++attempt) {
        const std::size_t idx = rng.next_below(robots.size());
        Robot& robot = robots[idx];
        if (robot.moving || robot.ip.is_unspecified()) continue;
        robot.moving = true;
        robot.edge = 1 - robot.edge;
        const net::VnEid eid{kRobotVn, net::Eid{robot.ip}};
        if (const auto last = pending.find(eid); last != pending.end()) close_move(last->second);
        pending[eid] = PendingMove{sim.now()};
        robot_of[eid] = idx;
        fabric.roam_endpoint(robot.mac, "edge-" + std::to_string(robot.edge), 1,
                             [&, eid, idx](const fabric::OnboardResult& r) {
                               const auto it = pending.find(eid);
                               if (it == pending.end()) return;
                               if (!r.success) {
                                 pending.erase(it);
                                 robots[idx].moving = false;
                                 return;
                               }
                               it->second.attach_done = sim.now();
                               maybe_finish(eid);
                             });
        return;
      }
    });
  };
  sim.schedule_at(t0, schedule_next_move);

  sim.run_until(t_end + seconds_d(2.0));  // drain in-flight moves
  for (const auto& [eid, move] : pending) close_move(move);

  if (moves_out) *moves_out = completed;
  if (peers_out) *peers_out = std::move(peers_converged);
  if (spec_.inspect_reactive) spec_.inspect_reactive(fabric);
  return handovers;
}

stats::Summary WarehouseWorkload::run_proactive(std::size_t* moves_out) {
  sim::Simulator sim;
  sim::Rng rng{spec_.seed ^ 0xB6};

  bgp::RouteReflector reflector{sim, spec_.reflector, spec_.seed ^ 0x9};
  std::vector<std::unique_ptr<bgp::BgpPeer>> peers;
  // Peer 0 is the border; 1..edges are edge routers.
  for (unsigned i = 0; i <= spec_.edges; ++i) {
    peers.push_back(std::make_unique<bgp::BgpPeer>(net::Ipv4Address{(10u << 24) | (1000 + i)}));
    reflector.add_client(*peers.back());
  }
  bgp::BgpPeer& border_peer = *peers.front();

  // Identical attach timing model to the reactive run.
  const fabric::FabricTimings& t = spec_.timings;
  const sim::Duration hop = std::chrono::microseconds{50} + std::chrono::microseconds{5};
  const sim::Duration rtt = hop * 2;
  const sim::Duration attach_delay =
      t.detection + (rtt + t.auth_processing) * fabric::kRoamAuthRoundTrips;

  struct Robot {
    net::VnEid eid;
    unsigned edge = 0;
    bool moving = false;
  };
  std::vector<Robot> robots(spec_.hosts);
  for (unsigned i = 0; i < spec_.hosts; ++i) {
    robots[i].eid =
        net::VnEid{kRobotVn, net::Eid{net::Ipv4Address{(10u << 24) | (1u << 22) | i}}};
    robots[i].edge = i % 2;
  }

  std::unordered_map<net::VnEid, sim::SimTime> pending;  // eid -> detach time
  std::unordered_map<net::VnEid, std::size_t> robot_of;
  stats::Summary handovers;
  std::size_t completed = 0;

  border_peer.set_install_callback([&](const net::VnEid& eid, net::Ipv4Address) {
    const auto it = pending.find(eid);
    if (it == pending.end()) return;
    handovers.add(static_cast<double>((sim.now() - it->second).count()) / 1e9);
    ++completed;
    pending.erase(it);
    // The robot may move again only once the fabric converged on this move.
    robots[robot_of.at(eid)].moving = false;
  });

  const sim::SimTime t_end{seconds_d(spec_.measure_seconds)};
  std::function<void()> schedule_next_move = [&] {
    const sim::Duration gap = rng.exp_interarrival(spec_.moves_per_second);
    sim.schedule_after(gap, [&] {
      if (sim.now() >= t_end) return;
      schedule_next_move();
      for (int attempt = 0; attempt < 4; ++attempt) {
        const std::size_t idx = rng.next_below(robots.size());
        Robot& robot = robots[idx];
        if (robot.moving) continue;
        robot.moving = true;
        robot.edge = 1 - robot.edge;
        pending[robot.eid] = sim.now();  // detach
        robot_of[robot.eid] = idx;
        const net::Ipv4Address new_edge_rloc = peers[1 + robot.edge]->rloc();
        sim.schedule_after(attach_delay, [&, idx, new_edge_rloc] {
          // The new edge announces the host route; the reflector replicates
          // it to all 200 peers — the border included, eventually.
          reflector.announce(new_edge_rloc, robots[idx].eid, new_edge_rloc);
        });
        return;
      }
    });
  };
  sim.schedule_at(sim::SimTime::zero(), schedule_next_move);

  sim.run_until(t_end + seconds_d(3.0));

  if (moves_out) *moves_out = completed;
  return handovers;
}

WarehouseSpec fig11_spec() {
  WarehouseSpec spec;
  spec.edges = 200;
  spec.hosts = 16000;
  spec.moves_per_second = 800;
  spec.measure_seconds = 12;
  spec.reflector.per_peer_send = std::chrono::microseconds{26};
  return spec;
}

WarehouseResult WarehouseWorkload::run() {
  WarehouseResult result;
  result.lisp_handover_s = run_reactive(&result.lisp_moves, &result.lisp_peers_converged_s);
  result.bgp_handover_s = run_proactive(&result.bgp_moves);
  result.peak_registers_per_second = spec_.moves_per_second;  // by construction
  return result;
}

}  // namespace sda::workload
