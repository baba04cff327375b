#include "workload.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "alloc_count.hpp"

namespace fabricbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr net::VnId kVn{1};
constexpr net::GroupId kGroup{10};
constexpr std::uint16_t kPayloadBytes = 64;
constexpr double kOnboardPerSecond = 1000.0;
constexpr std::int64_t kMs = 1'000'000;
constexpr std::int64_t kSec = 1'000'000'000;
/// A host roams again no sooner than this after its previous roam, which
/// has finished by then (handovers take a few ms), so at most one roam per
/// host is in flight.
constexpr std::int64_t kRoamGap = 100 * kMs;
constexpr std::int64_t kDrain = 3 * kSec;
constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

/// Benchmark-owned generator (SplitMix64), so the inputs do not change when
/// the library's own RNG does.
struct SplitMix {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

/// Counter-based draw: the n-th value of stream `seed`, independent of call order.
std::uint64_t draw(std::uint64_t seed, std::uint64_t n) {
  SplitMix m{seed ^ (n * 0xD1B54A32D192ED03ull)};
  return m.next();
}

sim::SimTime at(std::int64_t ns) { return sim::SimTime{sim::Duration{ns}}; }

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) { return (h ^ v) * 0x100000001B3ull; }

std::uint64_t wall_ns(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
                                        .count());
}

}  // namespace

std::optional<WorkloadSpec> find_workload(const std::string& name, bool smoke) {
  WorkloadSpec s;
  s.name = name;
  if (name == "cached_16e") {
    s.send_hz = 1000;
    s.tick_s = 0.004;
    s.sim_s_per_wall_s = 4.0;
    s.setups = 15;
  } else if (name == "miss_failover_16e") {
    s.send_hz = 250;
    s.peers = PeerPolicy::UniformOtherEdge;
    s.routing_servers = 2;
    s.failover = true;
    s.map_cache_capacity = 32;
    s.outage_s = 3.0;
    s.tick_s = 0.01;
    // 30 sim s per 10 s run: each routing server records 0.7-0.9M request
    // sojourns, clear of the 1,048,576 at which its sample vector doubles.
    // At 35 s one server sat on that count and peak RSS flipped by seed.
    s.sim_s_per_wall_s = 3.0;
    s.min_measure_s = 8.0;
    s.setups = 15;
  } else if (name == "roam_16e") {
    // One distribution node: roams reshuffle which peers share a
    // distribution node, which would make the latency median flip between
    // the 2-hop and 4-hop modes from seed to seed.
    s.dist_nodes = 1;
    s.send_hz = 400;
    s.peers = PeerPolicy::FixedOtherEdge;
    s.roams_per_s = 200;
    s.tick_s = 0.01;
    s.sim_s_per_wall_s = 12.0;
    s.setups = 15;
  } else if (name == "roam_200e") {
    s.edges = 200;
    s.hosts_per_edge = 80;
    s.dist_nodes = 8;
    s.send_hz = 10;
    s.peers = PeerPolicy::FixedOtherEdge;
    s.roams_per_s = 800;
    s.tick_s = 0.01;
    s.sim_s_per_wall_s = 1.5;
    s.setups = 4;
  } else {
    return std::nullopt;
  }
  if (smoke) {
    s.edges = 2;
    s.hosts_per_edge = 3;
    s.dist_nodes = 1;
    s.setups = 1;
    s.sim_s_per_wall_s = 0;
    s.min_measure_s = s.outage_s > 0 ? 4.0 : 1.0;
    if (s.outage_s > 0) s.outage_s = 1.5;
    if (s.map_cache_capacity > 0) s.map_cache_capacity = 1;
    if (s.roams_per_s > 0) s.roams_per_s = 10;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

Arm::Arm(const WorkloadSpec& spec, std::uint64_t seed, double measure_s, bool telemetry)
    : spec_(spec), seed_(seed), ring_(1u << 16) {
  measure_s = std::max(measure_s, spec_.min_measure_s);
  tick_ns_ = std::llround(spec_.tick_s * 1e9);
  ticks_ = static_cast<std::uint64_t>(std::ceil(measure_s / spec_.tick_s));
  generate_schedule(seed);

  const auto start = Clock::now();
  build_fabric(telemetry);
  const auto onboard_start = Clock::now();
  onboard_all();
  onboard_ns_per_host_ = static_cast<double>(wall_ns(onboard_start, Clock::now())) /
                         static_cast<double>(hosts_.size());
  warm_up();
  setup_s_ = static_cast<double>(wall_ns(start, Clock::now())) / 1e9;

  // The measured phase starts on the next whole millisecond; the schedule
  // was generated relative to it.
  t0_ = (now_ns() / kMs + 1) * kMs;
  sim_->run_until(at(t0_));
  t_end_ = t0_ + static_cast<std::int64_t>(ticks_) * tick_ns_;
  for (Roam& r : roams_) r.at += t0_;
  if (spec_.outage_s > 0) {
    outage_at_ += t0_;
    faults_->server_outage(fabric_->map_server_node(0), sim::Duration{outage_at_ - t0_},
                           sim::Duration{std::llround(spec_.outage_s * 1e9)});
  }
  in_phase_ = true;
  events_at_t0_ = sim_->executed_events();
  cache_at_t0_ = cache_totals();
  for (std::size_t i = 0; i < fabric_->routing_server_count(); ++i) {
    sojourns_at_t0_.push_back(fabric_->map_server_node(i).request_sojourns().count());
  }
}

void Arm::generate_schedule(std::uint64_t seed) {
  SplitMix rng{seed};
  const unsigned n = spec_.edges * spec_.hosts_per_edge;
  for (unsigned e = 0; e < spec_.edges; ++e) edge_names_.push_back("edge-" + std::to_string(e));

  // Underlay: every edge hangs off one distribution node; distribution
  // nodes form a ring and each links up to the border. Access-link
  // latencies are seeded within 45-55 us (cable runs differ); core links
  // are 50 us.
  for (unsigned e = 0; e < spec_.edges; ++e) {
    link_latency_us_.push_back(45.0 + 10.0 * rng.uniform());
  }

  hosts_.resize(n);
  for (std::uint32_t h = 0; h < n; ++h) {
    Host& host = hosts_[h];
    host.mac = net::MacAddress::from_u64(0x0200'0000'0000ull | h);
    host.credential = "host-" + std::to_string(h);
    host.edge = h / spec_.hosts_per_edge;
  }
  // Fixed peers: NextEdge takes the same slot on the next edge; FixedOtherEdge
  // rotates each slot by its own seeded edge offset (a permutation that
  // never maps a host onto its own edge).
  for (unsigned slot = 0; slot < spec_.hosts_per_edge; ++slot) {
    const unsigned offset =
        spec_.peers == PeerPolicy::FixedOtherEdge && spec_.edges > 1
            ? 1 + static_cast<unsigned>(rng.below(spec_.edges - 1))
            : 1;
    for (unsigned e = 0; e < spec_.edges; ++e) {
      hosts_[e * spec_.hosts_per_edge + slot].peer =
          ((e + offset) % spec_.edges) * spec_.hosts_per_edge + slot;
    }
  }

  // Periodic sends with a seeded phase per host.
  period_ns_ = std::llround(1e9 / spec_.send_hz);
  std::vector<std::pair<std::int64_t, std::uint32_t>> phases;
  for (std::uint32_t h = 0; h < n; ++h) {
    const auto phase = rng.below(static_cast<std::uint64_t>(period_ns_));
    phases.emplace_back(static_cast<std::int64_t>(phase), h);
  }
  std::sort(phases.begin(), phases.end());
  for (const auto& [phase, h] : phases) {
    phase_ns_.push_back(phase);
    send_order_.push_back(h);
  }

  // Roams: Poisson arrivals, each moving a host that has not roamed in the
  // last kRoamGap to a uniformly drawn other edge. Times are relative to the
  // start of the measured phase until the constructor rebases them.
  const std::int64_t measure_ns = static_cast<std::int64_t>(ticks_) * tick_ns_;
  if (spec_.roams_per_s > 0 && spec_.edges > 1) {
    std::vector<unsigned> edge_model(n);
    for (std::uint32_t h = 0; h < n; ++h) edge_model[h] = hosts_[h].edge;
    std::vector<std::int64_t> last(n, -kSec);
    std::int64_t t = 0;
    while (true) {
      t += std::llround(-std::log(1.0 - rng.uniform()) / spec_.roams_per_s * 1e9);
      if (t >= measure_ns) break;
      for (int attempt = 0; attempt < 8; ++attempt) {
        const auto h = static_cast<std::uint32_t>(rng.below(n));
        if (t - last[h] < kRoamGap) continue;
        const auto step = 1 + static_cast<unsigned>(rng.below(spec_.edges - 1));
        edge_model[h] = (edge_model[h] + step) % spec_.edges;
        roams_.push_back({t, h, edge_model[h]});
        last[h] = t;
        break;
      }
    }
  }

  if (spec_.outage_s > 0) {
    outage_at_ = std::llround((0.25 + 0.1 * rng.uniform()) * static_cast<double>(measure_ns));
  }
}

void Arm::build_fabric(bool telemetry) {
  sim_ = std::make_unique<sim::Simulator>();
  fabric::FabricConfig config;
  config.seed = seed_ * 0x9E3779B97F4A7C15ull + 0x5DA;
  config.telemetry = telemetry;
  config.edge_map_cache_capacity = spec_.map_cache_capacity;
  config.routing_servers = spec_.routing_servers;
  config.ha.failover = spec_.failover;
  fabric_ = std::make_unique<fabric::SdaFabric>(*sim_, config);
  fabric::SdaFabric& f = *fabric_;

  const auto us = [](double micros) { return sim::Duration{std::llround(micros * 1e3)}; };
  f.add_border("border-0");
  for (unsigned d = 0; d < spec_.dist_nodes; ++d) f.add_underlay_node("dist-" + std::to_string(d));
  for (unsigned e = 0; e < spec_.edges; ++e) f.add_edge(edge_names_[e]);
  for (unsigned e = 0; e < spec_.edges; ++e) {
    const unsigned d = e * spec_.dist_nodes / spec_.edges;
    f.link(edge_names_[e], "dist-" + std::to_string(d), us(link_latency_us_[e]));
  }
  for (unsigned d = 0; d < spec_.dist_nodes; ++d) {
    f.link("dist-" + std::to_string(d), "border-0", us(50));
    if (spec_.dist_nodes > 1) {
      f.link("dist-" + std::to_string(d), "dist-" + std::to_string((d + 1) % spec_.dist_nodes),
             us(50));
    }
  }
  f.finalize();
  f.define_vn({kVn, "campus", *net::Ipv4Prefix::parse("10.64.0.0/14")});
  f.define_group({kGroup, "staff"});
  for (const Host& h : hosts_) f.provision_endpoint({h.credential, "pw", h.mac, kVn, kGroup});

  for (const std::string& name : edge_names_) edge_ptr_.push_back(&f.edge(name));
  border_ = &f.border("border-0");
  if (spec_.outage_s > 0) {
    faults_ = std::make_unique<faults::FaultPlane>(*sim_, f.underlay(), seed_);
  }

  f.set_delivery_listener([this](const dataplane::AttachedEndpoint& to,
                                 const net::OverlayFrame& frame, sim::SimTime when) {
    on_delivery(to, frame, when);
  });
  f.set_border_sync_listener(
      [this](const std::string&, const net::VnEid& eid, const lisp::MappingRecord* record) {
        if (record == nullptr || !eid.eid.is_ipv4()) return;
        const auto it = host_by_ip_.find(eid.eid.ipv4().value());
        if (it == host_by_ip_.end()) return;
        Host& host = hosts_[it->second];
        if (host.roam_start < 0 || host.roam_synced >= 0) return;
        host.roam_synced = now_ns();
        maybe_finish_roam(it->second);
      });
}

void Arm::onboard_all() {
  const double gap_ns = 1e9 / kOnboardPerSecond;
  for (std::uint32_t h = 0; h < hosts_.size(); ++h) {
    sim_->run_until(at(std::llround(gap_ns * h)));
    fabric_->connect_endpoint(
        hosts_[h].credential, edge_names_[hosts_[h].edge], 1,
        [this, h](const fabric::OnboardResult& r) {
          if (!r.success) return;
          hosts_[h].ip = r.ip;
          host_by_ip_[r.ip.value()] = h;
          onboard_ms_.push_back(static_cast<double>(r.elapsed.count()) / 1e6);
          ++onboarded_;
        });
  }
  sim_->run_until(at(now_ns() + kSec));
}

void Arm::warm_up() {
  // One packet per host to its (first) destination resolves every fixed
  // peer before the measured phase, so the cached workload only hits.
  const std::int64_t base = now_ns();
  const double gap_ns = 50.0 * kMs / static_cast<double>(hosts_.size());
  for (std::uint32_t h = 0; h < hosts_.size(); ++h) {
    sim_->run_until(at(base + std::llround(gap_ns * h)));
    send(h, destination_of(h));
  }
  sim_->run_until(at(now_ns() + 250 * kMs));
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

std::int64_t Arm::now_ns() const { return sim_->now().nanoseconds(); }

Arm::Op Arm::next_op() const {
  std::int64_t send_at =
      t0_ + static_cast<std::int64_t>(cycle_) * period_ns_ + phase_ns_[order_pos_];
  if (send_at >= t_end_) send_at = kNever;
  const std::int64_t roam_at = next_roam_ < roams_.size() ? roams_[next_roam_].at : kNever;
  return roam_at <= send_at ? Op{roam_at, true} : Op{send_at, false};
}

std::int64_t Arm::exec_next_op() {
  if (next_op().roam) {
    roam(roams_[next_roam_++]);
    return -1;
  }
  const std::uint32_t src = send_order_[order_pos_];
  if (++order_pos_ == send_order_.size()) {
    order_pos_ = 0;
    ++cycle_;
  }
  const std::uint32_t dst = destination_of(src);
  // A host between leaving its old edge and attaching to the new one has no
  // link to send on. Packets to it are sent as scheduled: the fabric may
  // stale-forward, park or drop them, and every drop is counted.
  if (hosts_[src].roam_start >= 0 && hosts_[src].roam_attached < 0) {
    ++skipped_;
    return -1;
  }
  send(src, dst);
  return src;
}

std::uint32_t Arm::destination_of(std::uint32_t host) {
  if (spec_.peers != PeerPolicy::UniformOtherEdge) return hosts_[host].peer;
  const std::uint32_t per_edge = spec_.hosts_per_edge;
  const auto others = static_cast<std::uint32_t>(hosts_.size()) - per_edge;
  const auto r = static_cast<std::uint32_t>(draw(seed_ ^ 0xD5, draws_++) % others);
  const std::uint32_t own_first = hosts_[host].edge * per_edge;
  return r < own_first ? r : r + per_edge;
}

void Arm::send(std::uint32_t src, std::uint32_t dst) {
  Host& from = hosts_[src];
  const lisp::MapCache::Stats& stats = edge_ptr_[from.edge]->map_cache().stats();
  const std::uint64_t misses = stats.misses;
  const std::uint16_t tag = next_tag_++;
  Flight& flight = ring_[tag];
  flight = Flight{now_ns(), dst, true, false, in_phase_};
  const std::uint64_t allocs = tracing_ ? allocations() : 0;
  const auto c0 = tracing_ ? Clock::now() : Clock::time_point{};
  const bool sent = fabric_->endpoint_send_udp(from.mac, hosts_[dst].ip, tag, kPayloadBytes);
  if (tracing_) {
    tracing_->send_ns.add(wall_ns(c0, Clock::now()));
    tracing_->send_allocs += allocations() - allocs;
  }
  if (!sent) {
    flight.live = false;
    ++refused_;
    return;
  }
  ++sent_;
  if (in_phase_) ++phase_sent_;
  // A same-edge destination is delivered inside the call; it never misses.
  if (flight.live && stats.misses != misses) flight.first = true;
}

void Arm::roam(const Roam& r) {
  Host& host = hosts_[r.host];
  host.edge = r.to_edge;
  host.roam_start = now_ns();
  host.roam_attached = -1;
  host.roam_synced = -1;
  ++roams_started_;
  const std::uint32_t h = r.host;
  fabric::SdaFabric::OnboardCallback done = [this, h](const fabric::OnboardResult& result) {
    Host& moved = hosts_[h];
    if (moved.roam_start < 0) return;
    if (!result.success) {
      ++roams_failed_;
      moved.roam_start = -1;
      return;
    }
    moved.roam_attached = now_ns();
    maybe_finish_roam(h);
  };
  const auto c0 = tracing_ ? Clock::now() : Clock::time_point{};
  fabric_->roam_endpoint(host.mac, edge_names_[r.to_edge], 1, std::move(done));
  if (tracing_) tracing_->roam_call_ns += wall_ns(c0, Clock::now());
}

void Arm::maybe_finish_roam(std::uint32_t h) {
  Host& host = hosts_[h];
  if (host.roam_attached < 0 || host.roam_synced < 0) return;
  // Fig. 11 handover: the later of re-attachment and border sync.
  const std::int64_t restored = std::max(host.roam_attached, host.roam_synced);
  handover_ms_.push_back(static_cast<double>(restored - host.roam_start) / 1e6);
  host.roam_start = -1;
  ++roams_done_;
}

void Arm::on_delivery(const dataplane::AttachedEndpoint& to, const net::OverlayFrame& frame,
                      sim::SimTime when) {
  ++listener_calls_;
  if (!frame.is_ipv4()) return;
  Flight& flight = ring_[frame.ip().destination_port];
  if (!flight.live || hosts_[flight.dst].mac != to.mac) {
    ++misdelivered_;
    return;
  }
  flight.live = false;
  ++delivered_;
  const auto latency = static_cast<std::uint64_t>(when.nanoseconds() - flight.sent_ns);
  if (!flight.measured) {
    if (flight.first) setup_first_packet_ns_.add(latency);
    return;
  }
  ++phase_delivered_;
  latency_ns_.add(latency);
  if (flight.first) first_packet_ns_.add(latency);
}

Tick Arm::run_tick() {
  const std::int64_t end = t0_ + static_cast<std::int64_t>(tick_ + 1) * tick_ns_;
  const std::uint64_t delivered_before = delivered_;
  const std::uint64_t allocs_before = allocations();
  const auto start = Clock::now();
  while (next_op().at <= end) {
    sim_->run_until(at(next_op().at));
    exec_next_op();
  }
  sim_->run_until(at(end));
  const auto stop = Clock::now();
  results_.allocs_measured += allocations() - allocs_before;
  Tick tick{wall_ns(start, stop), delivered_ - delivered_before, sim_->pending_events()};
  results_.delivered_measured += tick.delivered;
  after_tick(end);
  return tick;
}

Tick Arm::run_tick_traced(LayerTrace& trace) {
  const std::int64_t end = t0_ + static_cast<std::int64_t>(tick_ + 1) * tick_ns_;
  const std::uint64_t delivered_before = delivered_;
  const std::uint64_t allocs_before = allocations();
  const fabric::HaMonitor* ha = fabric_->ha_monitor();
  std::uint64_t query_ns = 0;
  const auto start = Clock::now();
  while (true) {
    const Op op = next_op();
    const std::int64_t limit = std::min(op.at, end);
    // Events due up to the next injected operation, one step at a time.
    // Only the step() call is timed; reading the signals around it is
    // tracing overhead, left unattributed.
    while (true) {
      const auto due = sim_->next_event_time();
      if (!due || due->nanoseconds() > limit) break;
      const std::uint64_t calls = listener_calls_;
      const std::uint64_t hairpinned = border_->counters().hairpinned;
      const std::uint64_t sojourns = sojourn_count();
      const std::uint64_t heartbeats = ha ? ha->counters().heartbeats_sent : 0;
      const std::uint64_t allocs = allocations();
      const auto s0 = Clock::now();
      sim_->step();
      const std::uint64_t ns = wall_ns(s0, Clock::now());
      if (listener_calls_ != calls) {
        trace.step_ns[LayerTrace::kEgress].add(ns);
        trace.egress_allocs += allocations() - allocs;
      } else if (border_->counters().hairpinned != hairpinned) {
        trace.step_ns[LayerTrace::kHairpin].add(ns);
      } else if (sojourn_count() != sojourns) {
        trace.step_ns[LayerTrace::kMapServer].add(ns);
      } else {
        trace.step_ns[LayerTrace::kControl].add(ns);
        if (ha && ha->counters().heartbeats_sent != heartbeats) ++trace.heartbeat_steps;
      }
    }
    if (op.at > end) break;
    sim_->run_until(at(op.at));
    // send() and roam() time their own fabric call into `trace`.
    tracing_ = &trace;
    const std::int64_t sender = exec_next_op();
    tracing_ = nullptr;
    if (sender < 0) continue;  // a roam, or the sender is detached mid-roam

    // The string-keyed lookups and the underlay route the send path does,
    // timed as pure queries for a random host (after the send, so they do
    // not warm its cache lines). They are not part of the tick.
    const auto q0 = Clock::now();
    const std::uint64_t q = draw(seed_ ^ 0x9E, query_draws_++);
    const Host& probe = hosts_[q % hosts_.size()];
    const Host& target = hosts_[probe.peer];
    const auto q1 = Clock::now();
    const std::optional<std::string> location = fabric_->location_of(probe.mac);
    if (location) static_cast<void>(fabric_->edge(*location));
    const auto q2 = Clock::now();
    static_cast<void>(fabric_->underlay().transit_delay(
        edge_ptr_[probe.edge]->config().node, edge_ptr_[target.edge]->rloc(), q, kPayloadBytes));
    const auto q3 = Clock::now();
    trace.lookup_ns += wall_ns(q1, q2);
    trace.route_ns += wall_ns(q2, q3);
    ++trace.queries;
    query_ns += wall_ns(q0, q3);
  }
  sim_->run_until(at(end));
  const auto stop = Clock::now();
  results_.allocs_measured += allocations() - allocs_before;
  Tick tick{wall_ns(start, stop) - query_ns, delivered_ - delivered_before,
            sim_->pending_events()};
  results_.delivered_measured += tick.delivered;
  after_tick(end);
  return tick;
}

void Arm::after_tick(std::int64_t end) {
  ++tick_;
  if (outage_at_ >= 0 && failover_ns_ < 0 && end >= outage_at_ && fabric_->ha_monitor() &&
      fabric_->ha_monitor()->active_server_for(0) != 0) {
    failover_ns_ = end - outage_at_;
  }
  if (tick_ != ticks_) return;
  // Close the measured phase.
  results_.events_measured = sim_->executed_events() - events_at_t0_;
  const CacheTotals c = cache_totals();
  results_.cache_hits = c.hits - cache_at_t0_.hits;
  results_.cache_misses = c.misses - cache_at_t0_.misses;
  results_.cache_evictions = c.evictions - cache_at_t0_.evictions;
  results_.smr_sent = c.smr - cache_at_t0_.smr;
  results_.stale_forwards = c.stale - cache_at_t0_.stale;
  results_.roams = roams_started_;
  for (std::size_t i = 0; i < sojourns_at_t0_.size(); ++i) {
    const auto& samples = fabric_->map_server_node(i).request_sojourns().samples();
    for (std::size_t k = sojourns_at_t0_[i]; k < samples.size(); ++k) {
      results_.mapserver_wait_ns.add(static_cast<std::uint64_t>(std::llround(samples[k] * 1e9)));
    }
  }
}

Arm::CacheTotals Arm::cache_totals() const {
  CacheTotals t;
  for (const dataplane::EdgeRouter* e : edge_ptr_) {
    const lisp::MapCache::Stats& s = e->map_cache().stats();
    t.hits += s.hits;
    t.misses += s.misses;
    t.evictions += s.evictions;
    t.smr += e->counters().smr_sent;
    t.stale += e->counters().stale_forwards;
  }
  return t;
}

std::uint64_t Arm::sojourn_count() const {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < fabric_->routing_server_count(); ++i) {
    const lisp::MapServerNode& node = fabric_->map_server_node(i);
    n += node.request_sojourns().count() + node.register_sojourns().count();
  }
  return n;
}

std::uint64_t Arm::counted_drops() const {
  std::uint64_t d = 0;
  for (const dataplane::EdgeRouter* e : edge_ptr_) {
    const auto& c = e->counters();
    d += c.no_route_drops + c.ttl_drops + c.policy_drops + c.resolution_drops + c.vlan_drops;
  }
  const auto& b = border_->counters();
  d += b.no_route_drops + b.ttl_drops + b.policy_drops;
  d += fabric_->underlay().unreachable_drops() + fabric_->underlay().fault_drops();
  return d;
}

// ---------------------------------------------------------------------------
// Quiesce and check
// ---------------------------------------------------------------------------

const ArmResults& Arm::finish() {
  sim_->run_until(at(t_end_ + kDrain));
  ArmResults& r = results_;
  const auto fail = [&r](std::string what) { r.errors.push_back(std::move(what)); };

  r.sent = sent_;
  r.delivered = delivered_;
  r.drops = counted_drops();
  if (r.delivered + r.drops != r.sent) {
    fail("delivered " + std::to_string(r.delivered) + " + counted drops " +
         std::to_string(r.drops) + " != sent " + std::to_string(r.sent));
  }
  if (misdelivered_ != 0) fail(std::to_string(misdelivered_) + " packets reached the wrong host");
  if (refused_ != 0) fail(std::to_string(refused_) + " sends refused (sender detached)");
  if (onboarded_ != hosts_.size()) {
    fail(std::to_string(hosts_.size() - onboarded_) + " hosts failed to onboard");
  }
  const std::uint64_t roams_unfinished = roams_started_ - roams_done_ - roams_failed_;
  if (roams_failed_ + roams_unfinished != 0) {
    fail(std::to_string(roams_failed_) + " roams failed, " + std::to_string(roams_unfinished) +
         " unfinished");
  }

  // After quiesce the fabric must agree with the generator's model.
  std::uint64_t location_mismatch = 0;
  std::uint64_t server_mismatch = 0;
  for (const Host& h : hosts_) {
    const std::optional<std::string> where = fabric_->location_of(h.mac);
    if (!where || *where != edge_names_[h.edge]) ++location_mismatch;
    const auto record = fabric_->map_server().resolve(net::VnEid{kVn, net::Eid{h.ip}});
    if (!record || record->primary_rloc() != edge_ptr_[h.edge]->rloc()) ++server_mismatch;
  }
  if (location_mismatch != 0) {
    fail(std::to_string(location_mismatch) + " hosts not at their modelled edge");
  }
  if (server_mismatch != 0) {
    fail(std::to_string(server_mismatch) + " hosts mis-registered at the map server");
  }

  r.attempted = sent_ + refused_ + hosts_.size() + roams_started_;
  const std::uint64_t unaccounted = r.sent - std::min(r.sent, r.delivered + r.drops);
  r.failed = unaccounted + refused_ + misdelivered_ + (hosts_.size() - onboarded_) +
             roams_failed_ + roams_unfinished + location_mismatch + server_mismatch;
  r.failed = std::min(r.failed, r.attempted);
  r.phase_sent = phase_sent_;
  r.phase_delivered = phase_delivered_;

  r.latency_ns = &latency_ns_;
  r.first_packet_from_setup = first_packet_ns_.total() == 0;
  r.first_packet_ns = r.first_packet_from_setup ? &setup_first_packet_ns_ : &first_packet_ns_;
  r.onboard_ms = onboard_ms_;
  r.handover_ms = handover_ms_;
  r.failover_ms = outage_at_ < 0 ? -1.0 : static_cast<double>(failover_ns_) / 1e6;
  if (outage_at_ >= 0 && failover_ns_ < 0) fail("routing server 0 outage never failed over");
  if (const fabric::HaMonitor* ha = fabric_->ha_monitor()) {
    r.ha_failovers = ha->counters().failovers;
  }

  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const std::uint64_t v :
       {r.sent, r.delivered, r.drops, r.delivered_measured, r.events_measured, r.cache_hits,
        r.cache_misses, r.cache_evictions, r.smr_sent, r.stale_forwards, r.roams,
        r.ha_failovers, static_cast<std::uint64_t>(failover_ns_), misdelivered_, skipped_,
        r.phase_sent, r.phase_delivered}) {
    h = fnv(h, v);
  }
  h = latency_ns_.digest(first_packet_ns_.digest(setup_first_packet_ns_.digest(h)));
  for (const double v : onboard_ms_) h = fnv(h, static_cast<std::uint64_t>(std::llround(v * 1e6)));
  for (const double v : handover_ms_) h = fnv(h, static_cast<std::uint64_t>(std::llround(v * 1e6)));
  h = r.mapserver_wait_ns.digest(h);
  r.digest = h;
  return r;
}

}  // namespace fabricbench
