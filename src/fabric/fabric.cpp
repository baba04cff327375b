#include "fabric/fabric.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "l2/slaac.hpp"

namespace sda::fabric {

namespace {

/// Virtual gateway MAC endpoints address their off-link traffic to.
const net::MacAddress kGatewayMac = net::MacAddress::from_u64(0x02'00'00'00'00'01ull);

/// DHCP server processing for a fresh lease.
constexpr sim::Duration kDhcpProcessing = std::chrono::milliseconds{1};
/// Lognormal sigma applied to the onboarding delays (radio detection and
/// server processing are never deterministic in the field).
constexpr double kOnboardJitterSigma = 0.15;

template <typename Router>
std::vector<std::string> names_of(const std::vector<std::unique_ptr<Router>>& routers) {
  std::vector<std::string> names;
  for (const auto& router : routers) names.push_back(router->name());
  return names;
}

}  // namespace

SdaFabric::SdaFabric(sim::Simulator& simulator, FabricConfig config)
    : simulator_(simulator),
      config_(std::move(config)),
      rng_(config_.seed) {
  underlay_ = std::make_unique<underlay::UnderlayNetwork>(simulator_, topology_,
                                                          config_.underlay);
  policy_cpu_free_.assign(std::max(1u, config_.timings.policy_workers), sim::SimTime::zero());
  telemetry_.recorder.set_enabled(config_.telemetry);
  telemetry_.causal.set_enabled(config_.causal_tracing);
}

sim::SimTime SdaFabric::reserve_policy_cpu(sim::Duration service) {
  auto it = std::min_element(policy_cpu_free_.begin(), policy_cpu_free_.end());
  const sim::SimTime start = std::max(*it, simulator_.now());
  const sim::SimTime finish = start + service;
  *it = finish;
  return finish;
}

SdaFabric::~SdaFabric() = default;

// ---------------------------------------------------------------------------
// Topology construction
// ---------------------------------------------------------------------------

SdaFabric::RlocOwner SdaFabric::add_fabric_node(const std::string& name, RlocOwner owner) {
  assert(!finalized_);
  const std::uint32_t suffix = next_rloc_suffix_++ & 0xFFFF;
  owner.rloc = net::Ipv4Address{(10u << 24) | suffix};
  owner.node = topology_.add_node(name, owner.rloc);
  if (owner.index != kDetached) owner.recorder_ref = telemetry_.recorder.intern(name);
  nodes_by_name_[name] = owner.node;
  if (rloc_owner_.size() <= suffix) rloc_owner_.resize(suffix + 1);
  rloc_owner_[suffix] = owner;
  return owner;
}

const SdaFabric::RlocOwner* SdaFabric::owner_of(net::Ipv4Address rloc) const {
  const std::uint32_t suffix = rloc.value() & 0xFFFF;
  if (suffix >= rloc_owner_.size()) return nullptr;
  const RlocOwner& owner = rloc_owner_[suffix];
  // Suffix 0 is never handed out; its entry's RLOC is the unset 0.0.0.0.
  if (owner.rloc != rloc || owner.node == underlay::kInvalidNode) return nullptr;
  return &owner;
}

void SdaFabric::add_border(const std::string& name) {
  const auto index = static_cast<std::uint32_t>(borders_.size());
  const RlocOwner owner = add_fabric_node(name, {.border = true, .index = index});

  dataplane::BorderRouterConfig cfg;
  cfg.name = name;
  cfg.rloc = owner.rloc;
  cfg.node = owner.node;
  cfg.default_action = config_.default_action;
  borders_.push_back(std::make_unique<dataplane::BorderRouter>(simulator_, cfg));
  border_index_[name] = index;
}

void SdaFabric::add_edge(const std::string& name) {
  const auto index = static_cast<std::uint32_t>(edges_.size());
  const RlocOwner owner = add_fabric_node(name, {.index = index});

  dataplane::EdgeRouterConfig cfg;
  cfg.name = name;
  cfg.rloc = owner.rloc;
  cfg.node = owner.node;
  cfg.map_cache_capacity = config_.edge_map_cache_capacity;
  cfg.register_ttl_seconds = config_.register_ttl_seconds;
  cfg.register_refresh_interval = config_.register_refresh_interval;
  cfg.enforce_on_ingress = config_.enforce_on_ingress;
  cfg.default_action = config_.default_action;
  cfg.rloc_probing = config_.rloc_probing;
  cfg.probe_interval = config_.probe_interval;
  cfg.default_route_fallback = config_.default_route_fallback;
  cfg.map_request_retries = config_.map_request_retries;
  cfg.map_register_retries = config_.map_register_retries;
  cfg.pending_packet_limit = config_.pending_packet_limit;
  cfg.policy_fail_mode = config_.policy_fail_mode;
  cfg.rule_retry_interval = config_.rule_retry_interval;
  cfg.seed = config_.seed;  // mixed with the RLOC inside the router
  // border_rloc is filled in finalize() once the borders exist.
  edges_.push_back(std::make_unique<dataplane::EdgeRouter>(simulator_, cfg));
  edge_index_[name] = index;
}

void SdaFabric::add_underlay_node(const std::string& name) { add_fabric_node(name, {}); }

void SdaFabric::link(const std::string& a, const std::string& b, sim::Duration latency,
                     std::uint32_t cost) {
  topology_.add_link(nodes_by_name_.at(a), nodes_by_name_.at(b), latency, cost);
}

void SdaFabric::finalize() {
  assert(!finalized_);
  if (borders_.empty()) throw std::runtime_error("fabric needs at least one border");
  finalized_ = true;

  // The first border embeds the primary routing server and the policy
  // server (as in the paper's warehouse deployment). Additional routing
  // servers (§4.1 horizontal scale-out) are placed round-robin on borders.
  dataplane::BorderRouter& primary = *borders_.front();
  map_server_rloc_ = primary.rloc();
  policy_server_rloc_ = primary.rloc();

  const unsigned server_count = std::max(1u, config_.routing_servers);
  for (unsigned i = 0; i < server_count; ++i) {
    lisp::MapServer* database = &map_server_;
    if (i > 0) {
      replica_dbs_.push_back(std::make_unique<lisp::MapServer>());
      database = replica_dbs_.back().get();
    }
    server_nodes_.push_back(std::make_unique<lisp::MapServerNode>(
        simulator_, *database, borders_[i % borders_.size()]->rloc(), config_.map_server,
        config_.seed ^ (0x5D + i)));
    server_refs_.push_back(telemetry_.recorder.intern(
        i == 0 ? "map_server" : "routing_server[" + std::to_string(i) + "]"));
    // Every Map-Request job completes into the control slab slot it came
    // from (the ticket).
    server_nodes_.back()->set_request_sink(
        [this](std::uint32_t slot, const lisp::MapReply& reply, sim::Duration) {
          on_map_reply(slot, reply);
        },
        [this](std::uint32_t slot, sim::Duration retry_after) {
          on_request_shed(slot, retry_after);
        });
  }

  // Control-plane HA (PR 4): heartbeat failover and/or replica
  // anti-entropy; plus leader election with epoch fencing and flap
  // dampening (PR 6). Each server is probed from the lead edge of the
  // group assigned to it, so health is judged from where the traffic
  // originates (a partitioned-but-alive server is correctly treated as
  // down).
  if (config_.ha.failover || (config_.ha.election && server_nodes_.size() > 1) ||
      (config_.ha.anti_entropy_interval.count() > 0 && server_nodes_.size() > 1)) {
    std::vector<lisp::MapServerNode*> nodes;
    std::vector<lisp::MapServer*> databases;
    nodes.push_back(server_nodes_.front().get());
    databases.push_back(&map_server_);
    for (std::size_t i = 1; i < server_nodes_.size(); ++i) {
      nodes.push_back(server_nodes_[i].get());
      databases.push_back(replica_dbs_[i - 1].get());
    }
    ha_ = std::make_unique<HaMonitor>(
        simulator_, config_.ha, std::move(nodes), std::move(databases),
        [this](net::Ipv4Address from, net::Ipv4Address to, std::size_t bytes,
               sim::InlineAction action) { control_send(from, to, bytes, std::move(action)); },
        [this](telemetry::EventKind kind, const std::string& node, std::string detail) {
          record_event(kind, node, detail);
        },
        config_.seed);
    ha_->set_leader_changed([this](std::size_t leader, std::uint64_t epoch) {
      on_leader_changed(leader, epoch);
    });
    // Catch-up convergence tracing (PR 9): a replica's lag window — from
    // the first mismatched digest to digests agreeing again — is one
    // Catchup operation feeding assurance.catchup_convergence_us.
    ha_->set_catchup_hooks(
        [this](std::size_t replica) {
          if (!telemetry_.causal.enabled()) return;
          catchup_trace_by_replica_[replica] = telemetry_.causal.begin(
              telemetry::OpKind::Catchup,
              "routing_server[" + std::to_string(replica) + "]", simulator_.now());
        },
        [this](std::size_t replica, bool /*via_snapshot*/) {
          const auto it = catchup_trace_by_replica_.find(replica);
          if (it == catchup_trace_by_replica_.end()) return;
          telemetry_.causal.finish(it->second, simulator_.now());
          catchup_trace_by_replica_.erase(it);
        });
    for (std::size_t e = 0; e < edges_.size() && e < server_nodes_.size(); ++e) {
      ha_->set_probe_source(e, edges_[e]->rloc());
    }
  }

  // Pub/sub: every border subscribes to the full feed (Fig. 1 "sync").
  // Publishes carry a feed sequence number so subscribers detect losses
  // and pull a snapshot instead of silently diverging from the server.
  // Every replica carries the publish hook, but only the current feed
  // authority (server 0, or the elected leader) actually pushes — its term
  // rides on each publish so a deposed leader's pushes are fenced at the
  // borders instead of hardcoding index 0 as the forever-primary.
  for (const auto& border : borders_) border_feeds_[border->name()] = BorderFeedState{};
  for (std::size_t srv = 0; srv < server_nodes_.size(); ++srv) {
    lisp::MapServer& db = srv == 0 ? map_server_ : *replica_dbs_[srv - 1];
    db.set_publish_callback([this, srv](const net::VnEid& eid,
                                        const lisp::MappingRecord* record) {
      if (!is_feed_authority(srv)) return;
      lisp::Publish publish;
      publish.eid = eid;
      if (record) {
        publish.rlocs = record->rlocs;
        publish.ttl_seconds = record->ttl_seconds;
      }
      publish.seq = ++publish_seq_;
      publish.epoch = control_epoch_of(srv);
      // A publish caused by a move rides the move's causal trace, so the
      // border fan-out shows up as spans on the same tree.
      if (telemetry_.causal.enabled()) {
        if (const auto mt = move_trace_by_eid_.find(eid); mt != move_trace_by_eid_.end()) {
          publish.trace = mt->second;
        }
      }
      const net::Ipv4Address feed_rloc = server_nodes_[srv]->rloc();
      if (telemetry_.recorder.enabled()) {
        record_event(telemetry::EventKind::Publish, server_refs_[srv],
                     publish.withdrawal() ? telemetry::DetailForm::WithdrawSeq
                                          : telemetry::DetailForm::PublishSeq,
                     eid, {}, publish.seq);
      }
      for (const auto& border_ptr : borders_) {
        dataplane::BorderRouter& border = *border_ptr;
        const std::string& name = border.name();
        BorderFeedState& feed = border_feeds_.at(name);
        if (!feed.connected) {
          ++feed.dropped_publishes;  // surfaces as a gap after reconnect
          continue;
        }
        const std::uint64_t pub_span = telemetry_.causal.span_begin(
            publish.trace, 0, "publish", name, simulator_.now());
        control_send(feed_rloc, border.rloc(),
                     publish.wire_size(),
                     [this, name, publish, pub_span, &border] {
                       if (!border_feeds_.at(name).connected) {
                         ++border_feeds_.at(name).dropped_publishes;
                         return;  // feed went down while the update was in flight
                       }
                       // A stale-epoch push (deposed leader) is fenced —
                       // do not report it as an applied sync.
                       if (!border.receive_publish(publish)) return;
                       telemetry_.causal.span_end(publish.trace, pub_span, simulator_.now());
                       if (border_sync_listener_) {
                         const lisp::MappingRecord* rec = nullptr;
                         lisp::MappingRecord tmp;
                         if (!publish.withdrawal()) {
                           tmp.rlocs = publish.rlocs;
                           tmp.ttl_seconds = publish.ttl_seconds;
                           rec = &tmp;
                         }
                         border_sync_listener_(name, publish.eid, rec);
                       }
                     });
      }
    });

    // Mobility: Map-Notify the previous edge so it forwards in-flight
    // traffic to the new location (Fig. 5 steps 2-3). Same authority
    // filter and epoch stamp as the feed.
    db.set_move_callback([this, srv](const net::VnEid& eid, net::Ipv4Address previous,
                                     const lisp::MappingRecord& record) {
      if (!is_feed_authority(srv)) return;
      const auto old_edge = edge_at(previous);
      if (!old_edge) return;
      lisp::MapNotify notify{0, eid, record.rlocs, control_epoch_of(srv)};
      if (telemetry_.causal.enabled()) {
        if (const auto mt = move_trace_by_eid_.find(eid); mt != move_trace_by_eid_.end()) {
          notify.trace = mt->second;
        }
      }
      const std::string& edge_name = edges_[*old_edge]->name();
      if (telemetry_.recorder.enabled()) {
        record_event(telemetry::EventKind::MapNotify, server_refs_[srv],
                     telemetry::DetailForm::MoveNotify, eid, {}, 0, edge_name);
      }
      const std::uint64_t mv_span = telemetry_.causal.span_begin(
          notify.trace, 0, "mobility-notify", edge_name, simulator_.now());
      control_send(server_nodes_[srv]->rloc(), previous,
                   notify.wire_size(),
                   [this, old = *old_edge, notify, mv_span] {
                     dataplane::EdgeRouter& notified = *edges_[old];
                     const bool applied = notified.receive_map_notify(notify);
                     if (applied && peer_sync_listener_ &&
                         notified.find_endpoint(notify.eid) == nullptr) {
                       peer_sync_listener_(notified.name(), notify.eid);
                     }
                     // The old edge applying the mobility notify is the
                     // paper's move-convergence endpoint (Fig. 5 step 2).
                     if (applied && notify.trace != 0) {
                       telemetry_.causal.span_end(notify.trace, mv_span, simulator_.now());
                       telemetry_.causal.finish(notify.trace, simulator_.now());
                       move_trace_by_eid_.erase(notify.eid);
                     }
                   });
    });
  }

  // Policy-server callbacks: group reassignment re-authenticates at the
  // hosting edge (§5.3); rule updates push to hosting edges (§5.4).
  policy_server_.set_endpoint_changed_callback(
      [this](const std::string& credential, const policy::EndpointPolicy& policy) {
        const auto it = endpoint_by_credential_.find(credential);
        if (it == endpoint_by_credential_.end()) return;
        EndpointState& state = endpoints_[it->second];
        const std::uint32_t edge = attachments_[it->second].edge;
        if (edge == kDetached) return;
        state.definition.group = policy.group;
        dataplane::EdgeRouter& hosting = *edges_[edge];
        const net::MacAddress mac = state.definition.mac;
        // CoA-style signal: one control message to the hosting edge.
        policy_server_.record_group_host(hosting.rloc(), policy.vn, policy.group);
        if (telemetry_.recorder.enabled()) {
          record_event(telemetry::EventKind::GroupChange, "policy_server",
                       credential + " -> " + policy.group.to_string() + " at " + hosting.name());
        }
        control_send(policy_server_rloc_, hosting.rloc(), 64,
                     [&hosting, mac, group = policy.group] {
                       hosting.retag_endpoint(mac, group);
                     });
      });
  policy_server_.set_rules_push_callback([this](net::Ipv4Address edge_rloc, net::VnId vn,
                                                const std::vector<policy::Rule>& rules) {
    const auto target = edge_at(edge_rloc);
    if (!target || rules.empty()) return;
    const net::GroupId destination = rules.front().pair.destination;
    if (telemetry_.recorder.enabled()) {
      record_event(telemetry::EventKind::PolicyPush, "policy_server",
                   std::to_string(rules.size()) + " rules for " + destination.to_string() +
                       " -> " + edges_[*target]->name());
    }
    control_send(policy_server_rloc_, edge_rloc, 64 + 8 * rules.size(),
                 [this, edge = *target, vn, destination, rules] {
                   edges_[edge]->install_rules(vn, destination, rules);
                 });
  });

  // L2 gateway shared by all edges (stateless apart from counters). Both
  // lookups route through the *requesting edge's* assigned routing server
  // — and, with HA failover on, its current live replacement — instead of
  // hardcoding the primary; each leg rides the control plane.
  if (config_.l2_gateway) {
    l2_gateway_ = std::make_unique<l2::L2Gateway>(
        // IP -> MAC lookup at the routing server (§3.5).
        [this](net::Ipv4Address edge_rloc, const net::VnEid& ip_eid,
               std::function<void(std::optional<net::MacAddress>)> done) {
          lisp::MapServerNode& node = *server_nodes_[active_server_index(edge_rloc)];
          const net::Ipv4Address server_rloc = node.rloc();
          control_send(edge_rloc, server_rloc, 64,
                       [this, &node, edge_rloc, server_rloc, ip_eid, done = std::move(done)] {
                         if (!node.online()) return;  // edge re-ARPs later
                         auto result = node.server().lookup_mac(ip_eid);
                         control_send(server_rloc, edge_rloc, 64,
                                      [done = std::move(done), result] { done(result); });
                       });
        },
        // MAC EID -> RLOC lookup: a Map-Request riding the same control
        // slab legs as an edge's, answered to `done` instead of an edge.
        [this](net::Ipv4Address edge_rloc, const net::VnEid& mac_eid,
               std::function<void(std::optional<net::Ipv4Address>)> done) {
          const std::uint32_t slot = controls_.acquire();
          ControlSlot& c = controls_[slot];
          c.request = lisp::MapRequest{};
          c.request.eid = mac_eid;
          c.request.itr_rloc = edge_rloc;
          c.server = static_cast<std::uint32_t>(active_server_index(edge_rloc));
          c.edge = kDetached;
          c.requester = edge_rloc;
          c.span = 0;
          c.l2_done = std::move(done);
          send_request_leg(slot);
        });
  }

  for (auto& edge : edges_) wire_edge(*edge);
  for (auto& border : borders_) wire_border(*border);

  // Underlay reachability watchers (§5.1) for every edge.
  for (const auto& edge_ptr : edges_) {
    dataplane::EdgeRouter& edge = *edge_ptr;
    underlay_->watch(edge.config().node, [&edge](net::Ipv4Address rloc, bool reachable) {
      edge.on_rloc_reachability(rloc, reachable);
    });
  }

  if (config_.telemetry) register_telemetry();
  if (ha_) ha_->start();
}

void SdaFabric::register_telemetry() {
  telemetry::MetricsRegistry& reg = telemetry_.metrics;

  map_server_.register_metrics(reg, "map_server");
  for (std::size_t i = 0; i < replica_dbs_.size(); ++i) {
    replica_dbs_[i]->register_metrics(reg, "map_server_replica[" + std::to_string(i + 1) + "]");
  }
  for (std::size_t i = 0; i < server_nodes_.size(); ++i) {
    server_nodes_[i]->register_metrics(reg, "routing_server[" + std::to_string(i) + "]");
  }
  if (ha_) ha_->register_metrics(reg, "ha");
  policy_server_.register_metrics(reg, "policy_server");
  services_.register_metrics(reg, "services");
  underlay_->register_metrics(reg, "underlay");
  if (l2_gateway_) l2_gateway_->register_metrics(reg, "l2_gateway");

  for (std::size_t i = 0; i < edges_.size(); ++i) {
    edges_[i]->register_metrics(reg, "edge[" + std::to_string(i) + "]");
    edges_[i]->set_tracer(&telemetry_.causal);
  }
  for (std::size_t i = 0; i < borders_.size(); ++i) {
    borders_[i]->register_metrics(reg, "border[" + std::to_string(i) + "]");
    borders_[i]->set_tracer(&telemetry_.causal);
  }

  // Fabric-level latency decomposition. Onboarding runs tens to hundreds of
  // milliseconds (Fig. 3); first packets tens of microseconds to a few
  // milliseconds depending on whether they hit the map-cache or ride the
  // border default route.
  reg.register_counter("fabric.stale_epoch_acks_accepted",
                       [this] { return stale_acks_accepted_; });
  reg.register_gauge("fabric.frames_in_flight",
                     [this] { return static_cast<double>(frames_in_flight()); });
  reg.register_gauge("fabric.control_in_flight",
                     [this] { return static_cast<double>(control_in_flight()); });
  // The event loop: work done, work pending, and the queue holding it
  // (pending events plus not yet swept tombstones of cancelled ones).
  reg.register_counter("sim.events_executed", [this] { return simulator_.executed_events(); });
  reg.register_gauge("sim.pending_events",
                     [this] { return static_cast<double>(simulator_.pending_events()); });
  reg.register_gauge("sim.queued_entries",
                     [this] { return static_cast<double>(simulator_.queued_entries()); });
  onboard_ms_ = &reg.histogram("fabric.onboard_ms", {0.0, 500.0, 50});
  roam_ms_ = &reg.histogram("fabric.roam_ms", {0.0, 500.0, 50});
  first_packet_us_ = &reg.histogram("fabric.first_packet_us", {0.0, 20'000.0, 50});

  // Assurance plane (PR 8): every completed causal operation lands in the
  // histogram for its kind, a first packet only when it was delivered. The
  // histograms exist even with tracing off (empty), so dashboards and SLO
  // specs never dangle.
  register_rtt_us_ = &reg.histogram("assurance.register_rtt_us", {0.0, 100'000.0, 50});
  move_convergence_us_ = &reg.histogram("assurance.move_convergence_us", {0.0, 500'000.0, 50});
  failover_rehome_us_ = &reg.histogram("assurance.failover_rehome_us", {0.0, 500'000.0, 50});
  smr_fanout_us_ = &reg.histogram("assurance.smr_fanout_us", {0.0, 500'000.0, 50});
  // Catch-up windows span replica outages, so the range is seconds.
  catchup_convergence_us_ =
      &reg.histogram("assurance.catchup_convergence_us", {0.0, 5'000'000.0, 50});
  telemetry_.causal.set_completion_callback([this](const telemetry::Operation& op) {
    telemetry::LatencyHistogram* hist = nullptr;
    switch (op.kind) {
      case telemetry::OpKind::Register: hist = register_rtt_us_; break;
      case telemetry::OpKind::Move: hist = move_convergence_us_; break;
      case telemetry::OpKind::SmrFanout: hist = smr_fanout_us_; break;
      case telemetry::OpKind::FailoverRehome: hist = failover_rehome_us_; break;
      case telemetry::OpKind::Catchup: hist = catchup_convergence_us_; break;
      case telemetry::OpKind::FirstPacket:
        if (!op.dropped) hist = first_packet_us_;
        break;
    }
    if (hist) {
      hist->observe(std::chrono::duration<double, std::micro>(op.duration()).count());
    }
  });

  register_invariants();
}

void SdaFabric::register_invariants() {
  // Continuous invariants: properties the fabric must satisfy whenever the
  // event queue has quiesced, independent of workload. Each check is a
  // closure over live fabric state, evaluated on demand by the engine.
  telemetry::AssuranceEngine& eng = telemetry_.assurance;

  // Epoch fencing is absolute: no edge or border may ever act on a deposed
  // leader's ack or publish (split-brain audit, PR 6).
  eng.add_invariant("zero-stale-epoch-accepts", [this] {
    const std::uint64_t n = stale_acks_accepted_;
    return std::make_pair(n == 0, "stale_epoch_acks_accepted=" + std::to_string(n));
  });

  // Quorum elections are absolute: no node may ever win a term without
  // confirming a strict majority of the configured replicas — a minority
  // partition must stall leaderless instead (PR 9 partition-safety audit).
  eng.add_invariant("no-minority-leader", [this] {
    const std::uint64_t n = ha_ ? ha_->counters().minority_leaders : 0;
    return std::make_pair(n == 0, "minority_leaders=" + std::to_string(n));
  });

  // Anti-entropy must drive replica divergence back to zero once faults
  // clear (PR 4); non-zero at quiesce means a repair never converged.
  eng.add_invariant("replica-divergence-converged", [this] {
    const std::uint64_t d = ha_ ? ha_->last_divergence() : 0;
    return std::make_pair(d == 0, "replica_divergence=" + std::to_string(d));
  });

  // Frames parked for an unresolved EID must drain (forwarded or dropped
  // by the resolution outcome) — a parked frame at quiesce is a leak.
  eng.add_invariant("no-parked-packet-leak", [this] {
    std::size_t parked = 0;
    for (const auto& edge : edges_) parked += edge->parked_frame_count();
    return std::make_pair(parked == 0, "parked_frames=" + std::to_string(parked));
  });

  // A slab slot held at quiesce is a leak: a frame arrives or is dropped at
  // send time, a Map-Request is answered, lost, swallowed or shed, and a
  // server job is answered.
  const std::pair<const char*, std::function<std::size_t()>> slabs[] = {
      {"no-frame-slot-leak", [this] { return frames_in_flight(); }},
      {"no-control-slot-leak", [this] { return control_in_flight(); }},
      {"no-server-job-slot-leak", [this] {
         std::size_t held = 0;
         for (const auto& node : server_nodes_) held += node->request_jobs_held();
         return held;
       }}};
  for (const auto& [name, held_slots] : slabs) {
    eng.add_invariant(name, [held_slots = held_slots] {
      const std::size_t held = held_slots();
      return std::make_pair(held == 0, "held_slots=" + std::to_string(held));
    });
  }

  // Every causal operation, first packets included, must resolve: an open
  // trace at quiesce means a flow started but never converged or arrived
  // (or an instrumentation hook leaked its operation).
  eng.add_invariant("no-pending-trace-leak", [this] {
    const std::size_t open = telemetry_.causal.open_count();
    std::string detail = "open_ops=" + std::to_string(open);
    if (open > 0) {
      detail += " [";
      bool first = true;
      for (const auto& label : telemetry_.causal.open_labels()) {
        if (!first) detail += ", ";
        detail += label;
        first = false;
      }
      detail += "]";
    }
    return std::make_pair(open == 0, std::move(detail));
  });

  // A border that detected a pub/sub gap must have resolved it via resync
  // within one round: at quiesce no resync may be in flight, and any
  // sequence gap must be matched by at least one applied snapshot.
  eng.add_invariant("pubsub-gap-resolved", [this] {
    for (const auto& border : borders_) {
      if (border->resync_in_flight()) {
        return std::make_pair(false, border->name() + " resync still in flight");
      }
      if (border->counters().out_of_sequence > 0 && border->counters().snapshots_applied == 0) {
        return std::make_pair(false, border->name() + " saw a feed gap but never resynced");
      }
    }
    return std::make_pair(true, std::string{"all border feeds sequenced"});
  });
}

void SdaFabric::record_event(telemetry::EventKind kind, std::string_view node,
                             std::string_view detail) {
  telemetry_.recorder.record(simulator_.now(), kind, node, detail);
}

void SdaFabric::record_event(telemetry::EventKind kind, telemetry::NodeRef node,
                             telemetry::DetailForm form, const net::VnEid& eid,
                             net::Ipv4Address rloc, std::uint64_t number,
                             std::string_view name) {
  telemetry_.recorder.record(simulator_.now(), kind, node, form, eid, rloc, number, name);
}

std::uint64_t SdaFabric::trace_flow(const net::VnEid& source, const net::VnEid& destination) {
  return telemetry_.causal.arm_flow(source, destination);
}

std::size_t SdaFabric::active_server_index(net::Ipv4Address edge_rloc) const {
  // Edge groups: Map-Request traffic is assigned round-robin by edge index.
  const auto edge = edge_at(edge_rloc);
  const std::size_t home = edge ? *edge % server_nodes_.size() : 0;
  return ha_ ? ha_->active_server_for(home) : home;
}

void SdaFabric::wire_edge(dataplane::EdgeRouter& edge) {
  // Default route: every border is a candidate, primary first. The edge's
  // underlay reachability watcher repoints the route when the primary
  // border becomes unreachable (and back when it returns).
  std::vector<net::Ipv4Address> border_rlocs;
  border_rlocs.reserve(borders_.size());
  for (const auto& border : borders_) border_rlocs.push_back(border->rloc());
  edge.set_border_rlocs(std::move(border_rlocs));

  edge.set_send_data([this](const net::FabricFrame& frame) { dispatch_fabric_frame(frame); });

  edge.set_send_map_request([this, index = *edge_at(edge.rloc())](
                                const lisp::MapRequest& request) {
    send_map_request(index, request);
  });

  edge.set_send_map_register([this, &edge](const lisp::MapRegister& reg_in) {
    lisp::MapRegister registration = reg_in;
    if (telemetry_.causal.enabled()) {
      // One Register operation per EID; a retransmit re-enters the open op
      // so retries accumulate on the same span tree.
      registration.trace = telemetry_.causal.begin(
          telemetry::OpKind::Register, registration.eid.to_string(), simulator_.now());
    }
    record_event(telemetry::EventKind::MapRegister, recorder_ref(edge.rloc()),
                 telemetry::DetailForm::ForEid,
                 registration.eid);
    // Route updates go to *all* routing servers so replicas stay complete
    // (§4.1). Onboarding completion is tied to the acking server's
    // Map-Notify, which also cancels the edge's reliable-registration
    // retransmit. Without HA the primary always acks; with failover on,
    // the edge's currently-active server does — so a registration issued
    // while the primary is down still completes (and a retransmit after a
    // failover re-picks the acker). With election on, the acking
    // authority is re-evaluated when the registration *completes*: every
    // node that believes it leads acks, with its term stamped on the
    // Map-Notify — during split-brain both sides ack, and the edge fences
    // out the deposed leader's stale epoch.
    const std::size_t acker =
        ha_ && ha_->election_enabled()
            ? control_leader()
            : (ha_ && ha_->failover_enabled()
                   ? active_server_index(edge.rloc())
                   : 0);
    for (std::size_t i = 0; i < server_nodes_.size(); ++i) {
      lisp::MapServerNode& node = *server_nodes_[i];
      const bool is_acker = i == acker;
      const std::uint64_t reg_span =
          registration.trace == 0
              ? 0
              : telemetry_.causal.span_begin(
                    registration.trace, 0, "map-register",
                    "routing_server[" + std::to_string(i) + "]", simulator_.now());
      control_send(edge.rloc(), node.rloc(),
                   registration.wire_size(),
                   [this, &edge, &node, registration, i, is_acker, reg_span] {
                     node.submit_register(
                         registration,
                         [this, &edge, &node, i, is_acker, reg_span,
                          eid = registration.eid](
                             const lisp::RegisterOutcome&, const lisp::MapNotify& notify,
                             sim::Duration) {
                           telemetry_.causal.span_end(notify.trace, reg_span,
                                                      simulator_.now());
                           const bool acks_now =
                               ha_ && ha_->election_enabled()
                                   ? ha_->node_believes_leader(i)
                                   : is_acker;
                           if (!acks_now) return;
                           // Ack the registering edge (cancels its
                           // retransmit). The epoch stamp lets the edge
                           // reject a deposed leader's ack.
                           lisp::MapNotify ack = notify;
                           ack.epoch = control_epoch_of(i);
                           const std::uint64_t ack_span =
                               ack.trace == 0 ? 0
                                              : telemetry_.causal.span_begin(
                                                    ack.trace, reg_span, "notify-ack",
                                                    edge.name(), simulator_.now());
                           control_send(node.rloc(), edge.rloc(),
                                        ack.wire_size(),
                                        [this, &edge, ack, ack_span] {
                                          const bool accepted = edge.receive_map_notify(ack);
                                          if (accepted && ack.epoch != 0 && ha_ &&
                                              ack.epoch < ha_->leadership_epoch()) {
                                            ++stale_acks_accepted_;  // fence breach audit
                                          }
                                          // An accepted ack completes the
                                          // registration operation
                                          // (register_rtt_us endpoint).
                                          if (accepted && ack.trace != 0) {
                                            telemetry_.causal.span_end(ack.trace, ack_span,
                                                                       simulator_.now());
                                            telemetry_.causal.finish(ack.trace,
                                                                     simulator_.now());
                                          }
                                        });
                           // Complete any onboarding waiting on this EID —
                           // but never on a deposed leader's stale-term
                           // completion (the live leader's ack fires them).
                           // Fenced on leadership_epoch, not epoch: a
                           // quorum-stalled candidacy's inflated term must
                           // not gag the standing majority leader.
                           if (ack.epoch != 0 && ha_ &&
                               ack.epoch < ha_->leadership_epoch()) {
                             return;
                           }
                           const auto it = pending_onboards_.find(eid);
                           if (it == pending_onboards_.end()) return;
                           auto waiters = std::move(it->second);
                           pending_onboards_.erase(it);
                           for (auto& fire : waiters) fire();
                         },
                         // Shed by bounded admission: only the acker
                         // signals busy (the edge would otherwise hear N
                         // conflicting hints for one fan-out).
                         !is_acker ? lisp::MapServerNode::ShedCallback{}
                                   : lisp::MapServerNode::ShedCallback{
                                     [this, &edge, &node, eid = registration.eid](
                                         sim::Duration retry_after) {
                                       record_event(telemetry::EventKind::Shed,
                                                    recorder_ref(edge.rloc()),
                                                    telemetry::DetailForm::RegisterForEid, eid);
                                       control_send(node.rloc(), edge.rloc(), 32,
                                                    [&edge, eid, retry_after] {
                                                      edge.receive_map_register_busy(
                                                          eid, retry_after);
                                                    });
                                     }});
                   });
    }
  });

  edge.set_send_smr([this, &edge](net::Ipv4Address to, const lisp::SolicitMapRequest& smr_in) {
    const auto stale_edge = edge_at(to);
    if (!stale_edge) return;  // borders are pub/sub-fresh: no SMR needed
    const std::string& target = edges_[*stale_edge]->name();
    lisp::SolicitMapRequest smr = smr_in;
    if (telemetry_.causal.enabled()) {
      // One SmrFanout operation per (EID, stale edge): the op closes when
      // the SMR-invoked Map-Request's reply lands back on the target edge.
      smr.trace = telemetry_.causal.begin(telemetry::OpKind::SmrFanout,
                                          smr.eid.to_string() + "->" + target,
                                          simulator_.now());
    }
    record_event(telemetry::EventKind::Smr, recorder_ref(edge.rloc()),
                 telemetry::DetailForm::ForEidToName,
                 smr.eid, {}, 0, target);
    const std::uint64_t smr_span =
        smr.trace == 0 ? 0
                       : telemetry_.causal.span_begin(smr.trace, 0, "smr", target,
                                                      simulator_.now());
    auto deliver = [this, to, stale_index = *stale_edge, smr, smr_span] {
      control_send(smr.source_rloc, to, smr.wire_size(),
                   [this, stale_index, smr, smr_span] {
                     telemetry_.causal.span_end(smr.trace, smr_span, simulator_.now());
                     dataplane::EdgeRouter& stale = *edges_[stale_index];
                     stale.receive_smr(smr);
                     // If the target did not adopt the trace (it already had a
                     // resolution in flight for this EID, or ignored the SMR),
                     // the op would never finish — drop it now.
                     if (smr.trace != 0 &&
                         stale.pending_request_trace(smr.eid) != smr.trace) {
                       telemetry_.causal.abandon(smr.trace);
                     }
                   });
    };
    // Chaos knob: artificially delay the SMR leaving the old edge so the
    // assurance gate can demonstrate a caught smr_fanout SLO breach.
    if (config_.smr_debug_delay.count() > 0) {
      simulator_.schedule_after(config_.smr_debug_delay, std::move(deliver));
    } else {
      deliver();
    }
  });

  edge.set_deliver_local([this](const dataplane::AttachedEndpoint& endpoint,
                                const net::OverlayFrame& frame) {
    if (delivery_listener_) delivery_listener_(endpoint, frame, simulator_.now());
  });

  edge.set_download_rules([this](net::VnId vn, net::GroupId destination)
                              -> std::optional<std::vector<policy::Rule>> {
    // A policy server in an outage window refuses downloads: the edge
    // books a retry and its SGACL fail mode governs traffic meanwhile.
    if (!policy_server_.online()) return std::nullopt;
    return policy_server_.download_rules(vn, destination);
  });
  edge.set_release_group([this, &edge](net::VnId vn, net::GroupId group) {
    policy_server_.release_group(edge.rloc(), vn, group);
  });

  if (l2_gateway_) {
    edge.set_broadcast_handler([this](dataplane::EdgeRouter& router,
                                      const dataplane::AttachedEndpoint& source,
                                      const net::OverlayFrame& frame) {
      l2_gateway_->handle_broadcast(router, source, frame);
    });
  }

  // RLOC probing (§5.1 "explicit probing"): a probe round-trips through the
  // underlay; if the target is unreachable at send time the reply never
  // comes and the timeout reports the RLOC dead.
  edge.set_send_probe([this, &edge](net::Ipv4Address rloc, std::function<void(bool)> done) {
    const underlay::NodeId from = edge.config().node;
    const auto rtt_half = underlay_->transit_delay(from, rloc, rloc.value(), 64);
    if (!rtt_half) {
      // No path: report failure after a probe timeout.
      simulator_.schedule_after(std::chrono::milliseconds{500},
                                [done = std::move(done)] { done(false); });
      return;
    }
    simulator_.schedule_after(*rtt_half * 2, [done = std::move(done)] { done(true); });
  });
}

void SdaFabric::wire_border(dataplane::BorderRouter& border) {
  border.set_send_data([this](const net::FabricFrame& frame) { dispatch_fabric_frame(frame); });
  border.set_request_resync([this, name = border.name()] { resync_border(name); });
}

// ---------------------------------------------------------------------------
// Declarative configuration
// ---------------------------------------------------------------------------

void SdaFabric::define_vn(const VnDefinition& vn) {
  dhcp_.add_pool(vn.id, vn.dhcp_pool);
  if (vn.slaac_prefix) slaac_prefixes_.emplace(vn.id.value(), *vn.slaac_prefix);
  (void)policy_server_.matrix(vn.id);  // create the VN's matrix eagerly
}

void SdaFabric::define_group(const GroupDefinition& group) {
  (void)group;  // groups are implicit in rules/endpoints; names are cosmetic
}

void SdaFabric::set_rule(const RuleDefinition& rule) {
  policy_server_.matrix(rule.vn).set_rule(rule.source, rule.destination, rule.action);
}

void SdaFabric::update_rule(const RuleDefinition& rule) {
  if (telemetry_.recorder.enabled()) {
    std::string detail = rule.source.to_string();
    detail += " -> ";
    detail += rule.destination.to_string();
    detail += rule.action == policy::Action::Allow ? " allow" : " deny";
    record_event(telemetry::EventKind::RuleUpdate, "policy_server", detail);
  }
  policy_server_.update_rule(rule.vn, rule.source, rule.destination, rule.action);
}

void SdaFabric::provision_endpoint(const EndpointDefinition& endpoint) {
  policy_server_.provision_endpoint(endpoint.credential, endpoint.secret,
                                    policy::EndpointPolicy{endpoint.vn, endpoint.group});
  EndpointState state;
  state.definition = endpoint;
  std::uint32_t index = endpoint_index(endpoint.mac);
  if (index == kNoEndpoint) {
    index = static_cast<std::uint32_t>(endpoints_.size());
    endpoints_.push_back(std::move(state));
    attachments_.push_back(Attachment{endpoint.mac});
    endpoint_by_mac_.insert(endpoint.mac, index);
  } else {
    endpoints_[index] = std::move(state);
    attachments_[index] = Attachment{endpoint.mac};
  }
  endpoint_by_credential_[endpoint.credential] = index;
}

void SdaFabric::add_external_prefix(net::VnId vn, const net::Ipv4Prefix& prefix,
                                    net::GroupId group, std::uint32_t ttl_seconds) {
  for (const auto& border : borders_) border->add_external_prefix(vn, prefix, group);
  // The routing server answers external prefixes with the border RLOC so
  // edges cache a positive mapping instead of default-routing forever.
  lisp::MappingRecord record;
  record.rlocs = {net::Rloc{borders_.front()->rloc()}};
  record.group = group;
  record.ttl_seconds = ttl_seconds;
  map_server_.register_prefix(vn, prefix, record);
  // Replicas must answer external prefixes too, or a failover turns every
  // Internet destination into a negative mapping.
  for (auto& replica : replica_dbs_) replica->register_prefix(vn, prefix, record);
}

// ---------------------------------------------------------------------------
// Onboarding (Fig. 3) and mobility (Fig. 5)
// ---------------------------------------------------------------------------

void SdaFabric::connect_endpoint(const std::string& credential, const std::string& edge,
                                 dataplane::PortId port, OnboardCallback callback) {
  const auto it = endpoint_by_credential_.find(credential);
  if (it == endpoint_by_credential_.end())
    throw std::invalid_argument("unknown credential: " + credential);
  onboard(it->second, edge_index_.at(edge), port, /*fast_reauth=*/false,
          std::move(callback));
}

void SdaFabric::roam_endpoint(const net::MacAddress& mac, const std::string& new_edge,
                              dataplane::PortId port, OnboardCallback callback) {
  const std::uint32_t index = endpoint_index(mac);
  if (index == kNoEndpoint) throw std::invalid_argument("unknown endpoint MAC");
  Attachment& attachment = attachments_[index];
  const std::uint32_t target = edge_index_.at(new_edge);
  const bool moves = attachment.edge != kDetached && attachment.edge != target;
  std::uint64_t move_trace = 0;
  if (telemetry_.causal.enabled() && moves) {
    // A cross-edge roam is a Move operation: it spans re-auth, the fresh
    // Map-Register, and the mobility Map-Notify converging the old edge.
    move_trace =
        telemetry_.causal.begin(telemetry::OpKind::Move, mac.to_string(), simulator_.now());
  }
  if (moves) {
    // Detach from the previous edge; its registration stays until the new
    // edge overwrites it (the old edge keeps forwarding via Map-Notify).
    edges_[attachment.edge]->detach_endpoint(mac, /*deregister=*/false);
    attachment.edge = kDetached;
  }
  onboard(index, target, port, /*fast_reauth=*/true, std::move(callback), move_trace);
}

void SdaFabric::disconnect_endpoint(const net::MacAddress& mac) {
  const std::uint32_t index = endpoint_index(mac);
  if (index == kNoEndpoint || attachments_[index].edge == kDetached) return;
  Attachment& attachment = attachments_[index];
  services_.withdraw_provider(endpoints_[index].definition.vn, mac);  // mDNS goodbye
  edges_[attachment.edge]->detach_endpoint(mac, /*deregister=*/true);
  attachment.edge = kDetached;
}

void SdaFabric::onboard(std::uint32_t endpoint, std::uint32_t edge_index,
                        dataplane::PortId port, bool fast_reauth, OnboardCallback callback,
                        std::uint64_t move_trace) {
  assert(finalized_);
  EndpointState& state = endpoints_[endpoint];
  // An endpoint can only be attached in one place: a fresh connect while
  // attached elsewhere behaves like an unplug + replug.
  Attachment& attachment = attachments_[endpoint];
  if (attachment.edge != kDetached && attachment.edge != edge_index) {
    edges_[attachment.edge]->detach_endpoint(state.definition.mac, /*deregister=*/false);
    attachment.edge = kDetached;
  }
  dataplane::EdgeRouter& edge = *edges_[edge_index];
  const std::string& edge_name = edge.name();
  const sim::SimTime started = simulator_.now();
  const EndpointDefinition def = state.definition;
  state.onboarding = true;

  auto fail = [this, endpoint, def, edge_name, started, callback, move_trace](const char*) {
    endpoints_[endpoint].onboarding = false;
    if (move_trace != 0) telemetry_.causal.abandon(move_trace);
    if (!callback) return;
    OnboardResult result;
    result.success = false;
    result.credential = def.credential;
    result.mac = def.mac;
    result.edge = edge_name;
    result.elapsed = simulator_.now() - started;
    callback(result);
  };

  // Control-plane RTT between the edge and the (co-located) policy/DHCP
  // servers. If the underlay is partitioned, onboarding fails outright.
  const auto one_way = underlay_->transit_delay(edge.config().node, policy_server_rloc_, 0, 256);
  if (!one_way) {
    fail("underlay unreachable");
    return;
  }
  const sim::Duration rtt = *one_way * 2;
  const FabricTimings& t = config_.timings;

  const unsigned rounds = fast_reauth ? kRoamAuthRoundTrips : kAuthRoundTrips;
  // Radio detection and server processing jitter (lognormal multiplier).
  const double jitter = rng_.lognormal(0.0, kOnboardJitterSigma);
  const auto jittered = [jitter](sim::Duration d) {
    return sim::Duration{static_cast<std::int64_t>(static_cast<double>(d.count()) * jitter)};
  };
  // Client-side path cost (detection + EAP round trips). The policy
  // server's CPU work is reserved separately so onboarding storms queue.
  const sim::Duration auth_client_delay = jittered(t.detection + rtt * rounds);
  const sim::Duration auth_cpu = jittered(t.auth_processing * rounds);
  // Roaming endpoints keep their sticky lease: no DHCP round trip (802.11r
  // style fast transition; the address must survive the move for L3
  // mobility to be seamless).
  const sim::Duration dhcp_delay =
      fast_reauth ? sim::Duration{0} : jittered(rtt + kDhcpProcessing);
  const sim::Duration rules_delay = jittered(rtt + t.rule_download_processing);

  // Reserve the auth CPU up front: requests hit the RADIUS queue in
  // arrival order regardless of their radio-side latency.
  const sim::SimTime cpu_done = reserve_policy_cpu(auth_cpu);
  const sim::SimTime auth_done = std::max(cpu_done, simulator_.now() + auth_client_delay);

  simulator_.schedule_at(auth_done, [this, endpoint, &edge, def, edge_index, port, started,
                                     dhcp_delay, rules_delay, fail, callback, fast_reauth,
                                     move_trace] {
    // Step 1-2: authenticate and fetch (VN, GroupId).
    policy::AccessRequest request;
    request.credential = def.credential;
    request.secret = def.secret;
    request.calling_mac = def.mac;
    request.nas_port = port;
    const auto policy = policy_server_.authenticate(request, edge.rloc());
    if (!policy) {
      fail("authentication rejected");
      return;
    }

    simulator_.schedule_after(rules_delay + dhcp_delay, [this, endpoint, &edge, def, edge_index,
                                                         port, started, policy, callback,
                                                         fail, fast_reauth, move_trace] {
      // Step 3: DHCP address (sticky lease).
      const auto ip = dhcp_.acquire(policy->vn, def.mac);
      if (!ip) {
        fail("address pool exhausted");
        return;
      }

      // Step 4: attach + register location (IPv4 + optional IPv6 + MAC).
      dataplane::AttachedEndpoint attached;
      attached.mac = def.mac;
      attached.ip = *ip;
      attached.vn = policy->vn;
      attached.group = policy->group;
      attached.port = port;
      attached.credential = def.credential;
      attached.register_mac = def.l2_services;
      attached.vlan = def.access_vlan;
      if (const auto slaac = slaac_prefixes_.find(policy->vn.value());
          slaac != slaac_prefixes_.end()) {
        attached.ipv6 = l2::slaac_address(slaac->second, def.mac);
      }

      EndpointState& onboarded = endpoints_[endpoint];
      attachments_[endpoint].edge = edge_index;
      onboarded.port = port;
      onboarded.onboarding = false;
      onboarded.definition.group = policy->group;

      if (def.l2_services) {
        const net::VnEid l2_eid{policy->vn, net::Eid{*ip}};
        map_server_.bind_l2(l2_eid, def.mac);
        // Replicas answer L2 lookups after a failover, so the IP->MAC
        // binding fans out like every registration.
        for (auto& replica : replica_dbs_) replica->bind_l2(l2_eid, def.mac);
      }

      // Fire once the Map-Register completes at the routing server. The
      // waiter is always registered (not just when a callback was supplied):
      // it also feeds the onboarding/roam latency histograms and the flight
      // recorder, so passive observers see every arrival.
      const net::VnEid ip_eid{policy->vn, net::Eid{*ip}};
      if (move_trace != 0) {
        // The mobility Map-Notify / Publish for this EID carries the Move
        // trace; the op closes when the old edge applies the notify.
        move_trace_by_eid_[ip_eid] = move_trace;
      }
      pending_onboards_[ip_eid].push_back(
          [this, def, &edge_name = edge.name(), edge_ref = recorder_ref(edge.rloc()), started,
           policy, ip = *ip, ipv6 = attached.ipv6, callback, fast_reauth] {
            const sim::Duration elapsed = simulator_.now() - started;
            telemetry::LatencyHistogram* hist = fast_reauth ? roam_ms_ : onboard_ms_;
            if (hist) {
              hist->observe(std::chrono::duration<double, std::milli>(elapsed).count());
            }
            record_event(
                fast_reauth ? telemetry::EventKind::Roam : telemetry::EventKind::Onboard,
                edge_ref,
                fast_reauth ? telemetry::DetailForm::RoamedTo : telemetry::DetailForm::OnboardedAt,
                net::VnEid{policy->vn, net::Eid{ip}}, {}, 0, def.credential);
            if (!callback) return;
            OnboardResult result;
            result.success = true;
            result.credential = def.credential;
            result.mac = def.mac;
            result.ip = ip;
            result.ipv6 = ipv6;
            result.vn = policy->vn;
            result.group = policy->group;
            result.edge = edge_name;
            result.elapsed = simulator_.now() - started;
            callback(result);
          });
      attachments_[endpoint].slot = edge.attach_endpoint(attached);
    });
  });
}

// ---------------------------------------------------------------------------
// Traffic injection
// ---------------------------------------------------------------------------

std::pair<dataplane::EdgeRouter*, const dataplane::AttachedEndpoint*> SdaFabric::sender_of(
    const net::MacAddress& mac) {
  const std::uint32_t index = endpoint_index(mac);
  if (index == kNoEndpoint || attachments_[index].edge == kDetached) return {nullptr, nullptr};
  dataplane::EdgeRouter* edge = edges_[attachments_[index].edge].get();
  return {edge, edge->vrf().at(attachments_[index].slot, mac)};
}

bool SdaFabric::endpoint_send_udp(const net::MacAddress& mac, net::Ipv4Address destination,
                                  std::uint16_t dport, std::uint16_t payload_bytes) {
  const auto [edge, attached] = sender_of(mac);
  if (!attached) return false;

  net::OverlayFrame frame;
  frame.source_mac = mac;
  frame.destination_mac = kGatewayMac;
  frame.vlan_id = attached->vlan;  // hosts on tagged ports send tagged frames
  net::Ipv4Datagram dgram;
  dgram.source = attached->ip;
  dgram.destination = destination;
  dgram.protocol = net::IpProtocol::Udp;
  dgram.source_port = static_cast<std::uint16_t>(0x8000 | (mac.to_u64() & 0x7FFF));
  dgram.destination_port = dport;
  dgram.payload_size = payload_bytes;
  frame.l3 = dgram;
  if (config_.trace_first_packets) {
    // Arm a first-packet operation for every new flow so the first-packet
    // latency histogram decomposes hop by hop.
    const std::pair flow{net::VnEid{attached->vn, net::Eid{attached->ip}},
                         net::VnEid{attached->vn, net::Eid{destination}}};
    if (traced_flows_.insert(flow).second) telemetry_.causal.arm_flow(flow.first, flow.second);
  }
  edge->endpoint_transmit(*attached, frame);
  return true;
}

bool SdaFabric::endpoint_send_udp6(const net::MacAddress& mac,
                                   const net::Ipv6Address& destination, std::uint16_t dport,
                                   std::uint16_t payload_bytes) {
  const auto [edge, attached] = sender_of(mac);
  if (!attached || !attached->ipv6) return false;

  net::OverlayFrame frame;
  frame.source_mac = mac;
  frame.destination_mac = kGatewayMac;
  frame.vlan_id = attached->vlan;  // hosts on tagged ports send tagged frames
  net::Ipv6Datagram dgram;
  dgram.source = *attached->ipv6;
  dgram.destination = destination;
  dgram.protocol = net::IpProtocol::Udp;
  dgram.source_port = static_cast<std::uint16_t>(0x8000 | (mac.to_u64() & 0x7FFF));
  dgram.destination_port = dport;
  dgram.payload_size = payload_bytes;
  frame.l3 = dgram;
  edge->endpoint_transmit(*attached, frame);
  return true;
}

void SdaFabric::add_external_prefix(net::VnId vn, const net::Ipv6Prefix& prefix,
                                    net::GroupId group, std::uint32_t ttl_seconds) {
  for (const auto& border : borders_) border->add_external_prefix(vn, prefix, group);
  lisp::MappingRecord record;
  record.rlocs = {net::Rloc{borders_.front()->rloc()}};
  record.group = group;
  record.ttl_seconds = ttl_seconds;
  map_server_.register_prefix(vn, prefix, record);
  for (auto& replica : replica_dbs_) replica->register_prefix(vn, prefix, record);
}

bool SdaFabric::endpoint_send_arp(const net::MacAddress& mac, net::Ipv4Address target) {
  const auto [edge, attached] = sender_of(mac);
  if (!attached) return false;

  net::OverlayFrame frame;
  frame.source_mac = mac;
  frame.destination_mac = net::MacAddress::broadcast();
  frame.vlan_id = attached->vlan;  // hosts on tagged ports send tagged frames
  net::ArpPacket arp;
  arp.op = net::ArpPacket::Op::Request;
  arp.sender_mac = mac;
  arp.sender_ip = attached->ip;
  arp.target_mac = net::MacAddress{};
  arp.target_ip = target;
  frame.l3 = arp;
  edge->endpoint_transmit(*attached, frame);
  return true;
}

bool SdaFabric::advertise_service(const net::MacAddress& mac, const std::string& type,
                                  const std::string& name, std::uint16_t port) {
  const auto [edge, attached] = sender_of(mac);
  if (!attached) return false;

  l2::ServiceInstance instance{type, name, attached->ip, port, mac};
  const net::VnId vn = attached->vn;
  // The advertisement rides the control plane to the registry.
  control_send(edge->rloc(), map_server_rloc_, 96,
               [this, vn, instance = std::move(instance)] {
                 services_.advertise(vn, instance);
               });
  return true;
}

bool SdaFabric::endpoint_query_service(const net::MacAddress& mac, const std::string& type,
                                       ServiceQueryCallback callback) {
  const auto [edge, attached] = sender_of(mac);
  if (!attached) return false;

  // The "broadcast" query is absorbed at the edge and proxied: one control
  // round trip to the registry, then a unicast answer back to the querier.
  const net::VnId vn = attached->vn;
  const net::Ipv4Address edge_rloc = edge->rloc();
  control_send(edge_rloc, map_server_rloc_, 64,
               [this, vn, type, edge_rloc, callback = std::move(callback)] {
                 auto instances = services_.query(vn, type);
                 control_send(map_server_rloc_, edge_rloc, 64 + 32 * instances.size(),
                              [callback, instances = std::move(instances)] {
                                if (callback) callback(instances);
                              });
               });
  return true;
}

void SdaFabric::external_send_udp(const std::string& border, net::VnId vn,
                                  net::Ipv4Address source, net::Ipv4Address destination,
                                  std::uint16_t payload_bytes, net::GroupId source_group) {
  net::OverlayFrame frame;
  frame.source_mac = kGatewayMac;
  frame.destination_mac = kGatewayMac;
  net::Ipv4Datagram dgram;
  dgram.source = source;
  dgram.destination = destination;
  dgram.protocol = net::IpProtocol::Udp;
  dgram.payload_size = payload_bytes;
  frame.l3 = dgram;
  borders_[border_index_.at(border)]->external_receive(vn, source_group, frame);
}

// ---------------------------------------------------------------------------
// Operational events
// ---------------------------------------------------------------------------

void SdaFabric::set_link_state(const std::string& a, const std::string& b, bool up) {
  const underlay::NodeId na = nodes_by_name_.at(a);
  const underlay::NodeId nb = nodes_by_name_.at(b);
  for (const underlay::LinkId id : topology_.links_of(na)) {
    const underlay::Link& l = topology_.link(id);
    if (l.other(na) == nb) {
      topology_.set_link_state(id, up);
      underlay_->topology_changed();
      if (telemetry_.recorder.enabled()) {
        std::string detail = a;
        detail += " <-> ";
        detail += b;
        detail += up ? " up" : " down";
        record_event(telemetry::EventKind::LinkState, "fabric", detail);
      }
      return;
    }
  }
  throw std::invalid_argument("no link between " + a + " and " + b);
}

void SdaFabric::reboot_edge(const std::string& name, sim::Duration downtime) {
  const std::uint32_t index = edge_index_.at(name);
  dataplane::EdgeRouter& edge = *edges_[index];
  record_event(telemetry::EventKind::Reboot, name, "down");
  edge.reboot();
  topology_.set_node_state(edge.config().node, false);
  underlay_->topology_changed();

  // Collect the endpoints that were attached here, in credential-table
  // order; they re-onboard when the router returns.
  std::vector<std::uint32_t> stranded;
  for (const auto& [credential, endpoint] : endpoint_by_credential_) {
    Attachment& attachment = attachments_[endpoint];
    if (attachment.edge == index) {
      attachment.edge = kDetached;
      stranded.push_back(endpoint);
    }
  }

  simulator_.schedule_after(downtime, [this, index, stranded] {
    dataplane::EdgeRouter& rebooted = *edges_[index];
    record_event(telemetry::EventKind::Reboot, rebooted.name(), "up");
    topology_.set_node_state(rebooted.config().node, true);
    underlay_->topology_changed();
    for (const std::uint32_t endpoint : stranded) {
      onboard(endpoint, index, endpoints_[endpoint].port, /*fast_reauth=*/false, {});
    }
  });
}

bool SdaFabric::reassign_endpoint_group(const std::string& credential, net::GroupId new_group) {
  return policy_server_.reassign_group(credential, new_group);
}

void SdaFabric::set_border_feed_connected(const std::string& border, bool connected) {
  BorderFeedState& feed = border_feeds_.at(border);
  if (feed.connected == connected) return;
  feed.connected = connected;
  record_event(telemetry::EventKind::FeedState, border,
               connected ? "connected" : "disconnected");
  // Reconnect: the border cannot know how many updates it missed, so it
  // always pulls a snapshot (gap detection would only catch the loss once
  // the *next* publish arrives — possibly much later).
  if (connected) borders_[border_index_.at(border)]->request_resync();
}

bool SdaFabric::border_feed_connected(const std::string& border) const {
  return border_feeds_.at(border).connected;
}

std::uint64_t SdaFabric::border_publishes_dropped(const std::string& border) const {
  return border_feeds_.at(border).dropped_publishes;
}

void SdaFabric::resync_border(const std::string& name) {
  dataplane::BorderRouter& border = *borders_[border_index_.at(name)];
  // Leaderless window (open election, or a quorum-stalled minority): there
  // is no authority to snapshot from. The border's resync retry timer
  // re-requests until a quorate leader exists.
  if (control_leader() == HaMonitor::kNoLeader) return;
  record_event(telemetry::EventKind::Resync, name, "snapshot requested");
  // While a leader-change re-home is open, each border's resync round trip
  // is a span of the FailoverRehome op (retries open additional spans).
  const std::uint64_t rh_span =
      (rehome_trace_ != 0 && rehome_pending_.count(name) > 0)
          ? telemetry_.causal.span_begin(rehome_trace_, 0, "resync", name, simulator_.now())
          : 0;
  // Re-subscribe rides the control plane to the current feed authority —
  // server 0, or the elected leader — not a hardcoded primary; the
  // snapshot is captured when the request *arrives* and is paired with the
  // feed position the next publish will occupy, so replaying the sequenced
  // feed from `next_seq` onward is gap-free by construction. The leader's
  // term rides on the snapshot so the border's epoch fence advances.
  const std::size_t leader = control_leader();
  const net::Ipv4Address authority_rloc = server_nodes_[leader]->rloc();
  const lisp::Subscribe subscribe{border.rloc(), 0};
  control_send(border.rloc(), authority_rloc,
               subscribe.wire_size(),
               [this, name, leader, authority_rloc, rh_span] {
    auto entries =
        std::make_shared<std::vector<std::pair<net::VnEid, lisp::MappingRecord>>>();
    const lisp::MapServer& db = leader == 0 ? map_server_ : *replica_dbs_[leader - 1];
    db.walk([&entries](const net::VnEid& eid, const lisp::MappingRecord& record) {
      entries->emplace_back(eid, record);
    });
    const std::uint64_t next_seq = publish_seq_ + 1;
    const std::uint64_t epoch = control_epoch_of(leader);
    dataplane::BorderRouter& target = *borders_[border_index_.at(name)];
    control_send(authority_rloc, target.rloc(), 64 + 48 * entries->size(),
                 [this, &target, name, entries, next_seq, epoch, rh_span] {
                   // A snapshot for a disconnected feed is lost like any
                   // other update; the border's retry timer re-requests.
                   if (!border_feeds_.at(name).connected) return;
                   if (telemetry_.recorder.enabled()) {
                     std::string detail = std::to_string(entries->size());
                     detail += " entries, next seq ";
                     detail += std::to_string(next_seq);
                     record_event(telemetry::EventKind::SnapshotApplied, name,
                                  detail);
                   }
                   target.apply_snapshot(*entries, next_seq, epoch);
                   // Applying the snapshot re-homes this border; the op
                   // completes when the last pending border has re-homed.
                   if (rehome_trace_ != 0 && rehome_pending_.erase(name) > 0) {
                     telemetry_.causal.span_end(rehome_trace_, rh_span, simulator_.now());
                     if (rehome_pending_.empty()) {
                       telemetry_.causal.finish(rehome_trace_, simulator_.now());
                       rehome_trace_ = 0;
                     }
                   }
                 });
  });
}

bool SdaFabric::is_feed_authority(std::size_t i) const {
  return ha_ && ha_->election_enabled() ? ha_->node_believes_leader(i) : i == 0;
}

std::uint64_t SdaFabric::control_epoch_of(std::size_t i) const {
  return ha_ && ha_->election_enabled() ? ha_->node_epoch(i) : 0;
}

std::size_t SdaFabric::control_leader() const {
  return ha_ && ha_->election_enabled() ? ha_->leader() : 0;
}

void SdaFabric::on_leader_changed(std::size_t leader, std::uint64_t epoch) {
  // Election-aware shedding (PR 9): the fresh leader absorbs the fabric's
  // re-registration stampede behind a ramped admission limit instead of
  // queueing it unboundedly.
  server_nodes_[leader]->begin_admission_ramp(config_.ha.post_election_ramp);
  // A freshly elected leader re-homes the control plane: every border
  // pulls a snapshot from the new authority (gap-free feed restart under
  // the new term), and every edge learns the new epoch so a resurrected
  // ex-leader's in-flight acks are fenced on arrival.
  if (telemetry_.causal.enabled()) {
    // A re-election mid-re-home supersedes the previous FailoverRehome op.
    if (rehome_trace_ != 0) telemetry_.causal.abandon(rehome_trace_);
    rehome_trace_ = telemetry_.causal.begin(telemetry::OpKind::FailoverRehome,
                                            "epoch " + std::to_string(epoch),
                                            simulator_.now());
    rehome_pending_.clear();
    for (const auto& border : borders_) rehome_pending_.insert(border->name());
  }
  const net::Ipv4Address leader_rloc = server_nodes_[leader]->rloc();
  for (const auto& border : borders_) border->request_resync();
  for (const auto& edge_ptr : edges_) {
    dataplane::EdgeRouter& edge = *edge_ptr;
    control_send(leader_rloc, edge.rloc(), 32,
                 [&edge, epoch] { edge.observe_control_epoch(epoch); });
  }
}

// ---------------------------------------------------------------------------
// Plumbing
// ---------------------------------------------------------------------------

void SdaFabric::dispatch_fabric_frame(const net::FabricFrame& frame) {
  if (config_.validate_wire_format) {
    // Round-trip through the real VXLAN-GPO wire format; any asymmetry
    // between the structured model and the codecs is a bug.
    const auto decoded = net::FabricFrame::decode(frame.encode());
    if (!decoded || *decoded != frame) {
      throw std::logic_error("fabric frame failed wire-format round-trip");
    }
  }
  // The frame must outlive dispatch (the caller's copy dies before
  // arrival) but is too big to ride inline in the event, so it waits in a
  // recycled slab slot and the event carries only the slot number.
  const std::uint32_t slot = frames_.acquire();
  frames_[slot] = frame;
  // The receiving router, resolved once here rather than again on arrival.
  const RlocOwner* to = owner_of(frame.outer_destination);
  const bool border = to != nullptr && to->border;
  const std::uint32_t index = to != nullptr ? to->index : kDetached;
  auto arrive = [this, slot, border, index] {
    // Move the frame out first: receiving it can dispatch again and grow
    // the slab.
    const net::FabricFrame arrived = release_frame(slot);
    if (telemetry_.causal.tracing_flows()) {
      telemetry_.causal.hop(arrived.vn, arrived.inner, "transit", "underlay", simulator_.now());
    }
    if (border) {
      borders_[index]->receive_fabric_frame(arrived);
    } else if (index != kDetached) {
      edges_[index]->receive_fabric_frame(arrived);
    }
  };
  static_assert(sim::InlineAction::fits_inline<decltype(arrive)>);
  const underlay::NodeId from = node_of_rloc(frame.outer_source);
  assert(from != underlay::kInvalidNode);
  // A foreign destination (kInvalidNode) is dropped as unreachable.
  if (underlay_->deliver(from, to != nullptr ? to->node : underlay::kInvalidNode,
                         frame.wire_size(), std::move(arrive))) {
    return;
  }
  (void)release_frame(slot);
  if (telemetry_.causal.tracing_flows()) {
    telemetry_.causal.hop(frame.vn, frame.inner, "drop", "underlay", simulator_.now());
  }
}

net::FabricFrame SdaFabric::release_frame(std::uint32_t slot) {
  frames_.release(slot);
  return std::move(frames_[slot]);
}

bool SdaFabric::control_send(net::Ipv4Address from, net::Ipv4Address to, std::size_t bytes,
                             sim::InlineAction action) {
  if (from == to) {
    simulator_.schedule_after(sim::Duration{0}, std::move(action));
    return true;
  }
  const underlay::NodeId from_node = node_of_rloc(from);
  assert(from_node != underlay::kInvalidNode);
  return underlay_->deliver(from_node, node_of_rloc(to), bytes, std::move(action),
                            underlay::TrafficClass::Control);
}

// ---------------------------------------------------------------------------
// The first packet's resolution round (§3.2.2): Map-Request -> map-server
// job -> Map-Reply, carried in a recycled control slab
// ---------------------------------------------------------------------------

void SdaFabric::release_control(std::uint32_t slot) {
  controls_[slot].l2_done = nullptr;
  controls_.release(slot);
}

void SdaFabric::send_map_request(std::uint32_t edge_index, const lisp::MapRequest& request) {
  // Each edge group queries its assigned routing server (§4.1) — or, with
  // HA failover on and that server declared down, the next live replica.
  // The choice is re-evaluated on every (re)transmit, so a retransmission
  // after a failover rides the new server.
  const dataplane::EdgeRouter& edge = *edges_[edge_index];
  const std::size_t server = active_server_index(edge.rloc());
  record_event(telemetry::EventKind::MapRequest, recorder_ref(edge.rloc()),
               telemetry::DetailForm::ForEidToRloc, request.eid, server_nodes_[server]->rloc());
  const std::uint32_t slot = controls_.acquire();
  ControlSlot& c = controls_[slot];
  c.request = request;
  c.server = static_cast<std::uint32_t>(server);
  c.edge = edge_index;
  c.requester = edge.rloc();
  // A traced first packet's id stays in the edge's pending entry, off the
  // wire; an SMR's rides the request too.
  c.trace = telemetry_.causal.tracing_flows() ? edge.pending_request_trace(request.eid)
                                              : request.trace;
  c.span = telemetry_.causal.span_begin(c.trace, 0, "map-request", edge.name(),
                                        simulator_.now());
  send_request_leg(slot);
}

void SdaFabric::send_request_leg(std::uint32_t slot) {
  const ControlSlot& c = controls_[slot];
  auto arrive = [this, slot] {
    // The server answers (or sheds) through its sinks; a server that is
    // offline swallows the request, which ends the round here.
    if (!server_nodes_[controls_[slot].server]->submit_request(controls_[slot].request, slot)) {
      release_control(slot);
    }
  };
  static_assert(sim::InlineAction::fits_inline<decltype(arrive)>);
  if (!control_send(c.requester, server_nodes_[c.server]->rloc(), c.request.wire_size(),
                    std::move(arrive))) {
    release_control(slot);
  }
}

void SdaFabric::on_map_reply(std::uint32_t slot, const lisp::MapReply& reply) {
  ControlSlot& c = controls_[slot];
  c.reply = reply;  // reuses the slot's locator capacity
  if (c.edge != kDetached) {
    const dataplane::EdgeRouter& edge = *edges_[c.edge];
    const std::string& edge_name = edge.name();
    record_event(telemetry::EventKind::MapReply, recorder_ref(edge.rloc()),
                 reply.negative() ? telemetry::DetailForm::NegativeForEid
                                  : telemetry::DetailForm::ForEid,
                 reply.eid);
    telemetry_.causal.span_end(c.trace, c.span, simulator_.now());
    c.span = telemetry_.causal.span_begin(c.trace, c.span, "map-reply", edge_name,
                                          simulator_.now());
  }
  auto arrive = [this, slot] { on_map_reply_arrival(slot); };
  static_assert(sim::InlineAction::fits_inline<decltype(arrive)>);
  if (!control_send(server_nodes_[c.server]->rloc(), c.requester, c.reply.wire_size(),
                    std::move(arrive))) {
    release_control(slot);
  }
}

void SdaFabric::on_request_shed(std::uint32_t slot, sim::Duration retry_after) {
  // The caller (send_request_leg's arrival) frees the slot.
  const ControlSlot& c = controls_[slot];
  if (c.edge == kDetached) return;  // the L2 gateway's lookup is dropped
  // Bounded admission shed the request: an explicit busy + retry-after
  // rides back to the edge, which backs off for the server's hint instead
  // of its local RTO.
  dataplane::EdgeRouter& edge = *edges_[c.edge];
  record_event(telemetry::EventKind::Shed, recorder_ref(edge.rloc()),
               telemetry::DetailForm::RequestForEid,
               c.request.eid);
  auto busy = [&edge, eid = c.request.eid, retry_after] {
    edge.receive_map_request_busy(eid, retry_after);
  };
  static_assert(sim::InlineAction::fits_inline<decltype(busy)>);
  control_send(server_nodes_[c.server]->rloc(), edge.rloc(), 32, std::move(busy));
}

void SdaFabric::on_map_reply_arrival(std::uint32_t slot) {
  ControlSlot& c = controls_[slot];
  if (c.edge == kDetached) {
    const auto done = std::move(c.l2_done);
    const std::optional<net::Ipv4Address> rloc =
        c.reply.negative() ? std::nullopt
                           : std::optional<net::Ipv4Address>{c.reply.rlocs.front().address};
    release_control(slot);
    if (done) done(rloc);
    return;
  }
  // Swap the reply out before the edge reacts: flushing parked frames can
  // resolve again and grow the slab.
  std::swap(arrived_reply_, c.reply);
  const std::uint32_t edge = c.edge;
  const std::uint64_t trace = c.trace;
  const std::uint64_t span = c.span;
  const bool smr_invoked = c.request.smr_invoked;
  release_control(slot);
  edges_[edge]->receive_map_reply(arrived_reply_);
  if (smr_invoked && peer_sync_listener_ && !arrived_reply_.negative()) {
    peer_sync_listener_(edges_[edge]->name(), arrived_reply_.eid);
  }
  telemetry_.causal.span_end(trace, span, simulator_.now());
  // An SMR-invoked resolution landing at the stale sender closes the SMR
  // fan-out operation; a first packet's closes at its terminal hop.
  if (smr_invoked) telemetry_.causal.finish(trace, simulator_.now());
}

underlay::NodeId SdaFabric::node_of_rloc(net::Ipv4Address rloc) const {
  const RlocOwner* owner = owner_of(rloc);
  return owner != nullptr ? owner->node : underlay::kInvalidNode;
}

std::optional<std::uint32_t> SdaFabric::edge_at(net::Ipv4Address rloc) const {
  const RlocOwner* owner = owner_of(rloc);
  if (owner == nullptr || owner->border || owner->index == kDetached) return std::nullopt;
  return owner->index;
}

dataplane::EdgeRouter& SdaFabric::edge(const std::string& name) {
  return *edges_[edge_index_.at(name)];
}

dataplane::BorderRouter& SdaFabric::border(const std::string& name) {
  return *borders_[border_index_.at(name)];
}

std::vector<std::string> SdaFabric::edge_names() const { return names_of(edges_); }
std::vector<std::string> SdaFabric::border_names() const { return names_of(borders_); }

std::optional<std::string> SdaFabric::location_of(const net::MacAddress& mac) const {
  const std::uint32_t index = endpoint_index(mac);
  if (index == kNoEndpoint || attachments_[index].edge == kDetached) return std::nullopt;
  return edges_[attachments_[index].edge]->name();
}

}  // namespace sda::fabric
