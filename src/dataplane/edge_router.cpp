#include "dataplane/edge_router.hpp"

#include <algorithm>
#include <cassert>

#include "telemetry/metrics.hpp"

namespace sda::dataplane {

namespace {

std::uint64_t group_key(net::VnId vn, net::GroupId group) {
  return (std::uint64_t{vn.value()} << 16) | group.value();
}

}  // namespace

EdgeRouter::EdgeRouter(sim::Simulator& simulator, EdgeRouterConfig config)
    : simulator_(simulator),
      config_(std::move(config)),
      rng_(config_.seed ^ config_.rloc.value()),
      cache_(config_.map_cache_capacity),
      sgacl_(config_.default_action) {
  sgacl_.set_fail_mode(config_.policy_fail_mode);
}

// ---------------------------------------------------------------------------
// Endpoint lifecycle
// ---------------------------------------------------------------------------

VrfSet::Slot EdgeRouter::attach_endpoint(const AttachedEndpoint& endpoint) {
  assert(!endpoint.ip.is_unspecified());
  // Replace any stale attachment of the same MAC.
  detach_endpoint(endpoint.mac, /*deregister=*/false);

  const VrfSet::Slot slot = local_.install(endpoint);
  for_each_identity(endpoint, [&](const net::VnEid& eid) {
    // A mapping cached while the EID lived elsewhere would outlive its next
    // departure and point at an older edge (Fig. 6 would then stale-forward
    // there and solicit before the Map-Notify); it is ours now.
    cache_.invalidate(eid);
    mobility_.erase(eid);
  });

  // Download the SGACL rules where this endpoint's group is the destination
  // (Fig. 3 step 2; egress enforcement needs only these, §5.3).
  if (++group_refcounts_[group_key(endpoint.vn, endpoint.group)] == 1 && download_rules_) {
    try_download_rules(endpoint.vn, endpoint.group);
  }

  // Publish the endpoint's location (Fig. 3 step 4) — one route per
  // identity (IPv4, IPv6, MAC): the paper's "3 routes per endpoint" (§4.1).
  for_each_identity(endpoint, [&](const net::VnEid& eid) { register_eid(eid, endpoint.group); });
  maybe_schedule_register_refresh();
  return slot;
}

void EdgeRouter::maybe_schedule_register_refresh() {
  if (config_.register_refresh_interval.count() == 0 || register_refresh_armed_) return;
  if (local_.endpoint_count() == 0) return;
  register_refresh_armed_ = true;
  simulator_.schedule_after(config_.register_refresh_interval, [this] {
    register_refresh_armed_ = false;
    // Soft-state refresh: re-register every identity of every endpoint.
    local_.for_each([this](const AttachedEndpoint& endpoint) {
      for_each_identity(endpoint,
                        [&](const net::VnEid& eid) { register_eid(eid, endpoint.group); });
    });
    maybe_schedule_register_refresh();
  });
}

void EdgeRouter::detach_endpoint(const net::MacAddress& mac, bool deregister) {
  const AttachedEndpoint* removed = local_.remove(mac);
  if (removed == nullptr) return;
  const AttachedEndpoint endpoint = *removed;

  const auto ref = group_refcounts_.find(group_key(endpoint.vn, endpoint.group));
  if (ref != group_refcounts_.end() && --ref->second == 0) {
    group_refcounts_.erase(ref);
    sgacl_.remove_destination_rules(endpoint.vn, endpoint.group);
    pending_rule_downloads_.erase(group_key(endpoint.vn, endpoint.group));
    if (release_group_) release_group_(endpoint.vn, endpoint.group);
  }

  // Any in-flight registration retransmit for a departed identity must die
  // with it: a stale resend could overwrite the EID's new home.
  for_each_identity(endpoint, [&](const net::VnEid& eid) { abandon_pending_register(eid); });

  if (deregister) {
    // Withdrawal is modeled as a zero-TTL register; roaming departures
    // skip this (the new edge overwrites the mapping). Every registered
    // identity (IPv4/IPv6/MAC) is withdrawn.
    for_each_identity(endpoint, [&](const net::VnEid& eid) {
      send_register(eid, net::GroupId::unknown(), 0);
    });
    return;
  }
  // A roam: senders re-resolving now would still get this edge back, so
  // SMRs for the EID wait for the Map-Notify of its new location (Fig. 6).
  const sim::SimTime hold_until = simulator_.now() + kSmrMinInterval;
  for_each_identity(endpoint, [&](const net::VnEid& eid) {
    mobility_record(eid).hold_until = hold_until;
  });
}

bool EdgeRouter::retag_endpoint(const net::MacAddress& mac, net::GroupId new_group) {
  const AttachedEndpoint* found = local_.find(mac);
  if (found == nullptr) return false;
  const AttachedEndpoint& endpoint = *found;
  if (endpoint.group == new_group) return true;

  const auto old_key = group_key(endpoint.vn, endpoint.group);
  const auto ref = group_refcounts_.find(old_key);
  if (ref != group_refcounts_.end() && --ref->second == 0) {
    group_refcounts_.erase(ref);
    sgacl_.remove_destination_rules(endpoint.vn, endpoint.group);
    pending_rule_downloads_.erase(old_key);
    if (release_group_) release_group_(endpoint.vn, endpoint.group);
  }

  local_.retag(mac, new_group);
  if (++group_refcounts_[group_key(endpoint.vn, new_group)] == 1 && download_rules_) {
    try_download_rules(endpoint.vn, new_group);
  }
  // Refresh the mapping's group tag.
  register_eid(net::VnEid{endpoint.vn, net::Eid{endpoint.ip}}, new_group);
  return true;
}

void EdgeRouter::try_download_rules(net::VnId vn, net::GroupId group) {
  if (!download_rules_) return;
  if (const auto rules = download_rules_(vn, group)) {
    sgacl_.install_destination_rules(vn, group, *rules);
    pending_rule_downloads_.erase(group_key(vn, group));
    return;
  }
  // Policy server unreachable: the group stays unprovisioned (the SGACL
  // fail mode decides what its traffic gets) and a retry is booked.
  ++counters_.rule_download_failures;
  pending_rule_downloads_[group_key(vn, group)] = {vn, group};
  maybe_schedule_rule_retry();
}

void EdgeRouter::maybe_schedule_rule_retry() {
  if (config_.rule_retry_interval.count() == 0 || rule_retry_armed_) return;
  if (pending_rule_downloads_.empty()) return;
  rule_retry_armed_ = true;
  simulator_.schedule_after(config_.rule_retry_interval, [this] {
    rule_retry_armed_ = false;
    const auto snapshot = pending_rule_downloads_;  // retries mutate the set
    for (const auto& [key, pair] : snapshot) {
      if (!group_refcounts_.contains(key)) {
        pending_rule_downloads_.erase(key);  // group left while we waited
        continue;
      }
      ++counters_.rule_download_retries;
      try_download_rules(pair.first, pair.second);
    }
    maybe_schedule_rule_retry();  // re-arm while failures remain
  });
}

// ---------------------------------------------------------------------------
// Ingress pipeline
// ---------------------------------------------------------------------------

void EdgeRouter::endpoint_transmit(const net::MacAddress& source_mac,
                                   const net::OverlayFrame& frame) {
  if (const AttachedEndpoint* source = local_.find(source_mac)) {
    endpoint_transmit(*source, frame);
    return;
  }
  ++counters_.frames_from_endpoints;
  ++counters_.no_route_drops;  // unauthenticated port: drop
}

void EdgeRouter::endpoint_transmit(const AttachedEndpoint& source,
                                   const net::OverlayFrame& tagged_frame) {
  ++counters_.frames_from_endpoints;

  // Access-VLAN check (§3.5 element i): the frame's tag must match the
  // port's VLAN (both absent counts as matching). The tag is then stripped
  // — VLANs are local to edge ports and never enter the overlay.
  if (tagged_frame.vlan_id != source.vlan) {
    ++counters_.vlan_drops;
    return;
  }
  std::optional<net::OverlayFrame> untagged;  // a copy only where there is a tag
  if (tagged_frame.vlan_id) untagged.emplace(tagged_frame).vlan_id.reset();
  const net::OverlayFrame& frame = untagged ? *untagged : tagged_frame;

  // Broadcast traffic is absorbed by the L2 gateway (§3.5): it never floods
  // the fabric.
  if (frame.destination_mac.is_broadcast()) {
    if (broadcast_handler_) broadcast_handler_(*this, source, frame);
    return;
  }

  // Unicast ARP (gateway-converted requests, and replies) rides the L2
  // MAC-keyed pipeline.
  if (frame.is_arp()) {
    forward_by_mac(source, frame);
    return;
  }

  const net::VnEid destination{source.vn, frame.destination_eid()};
  const std::uint64_t trace =
      tracing() ? tracer_->ingress(source.vn, frame, config_.name, simulator_.now()) : 0;

  // Same-edge destination: run the egress pipeline directly.
  if (const AttachedEndpoint* local = local_.lookup(destination)) {
    ++counters_.locally_switched;
    trace_hop(source.vn, frame, "local-switch");
    egress_deliver(*local, source.group, false, frame);
    return;
  }

  const lisp::MapCacheEntry* entry = cache_.lookup(destination, simulator_.now());
  if (entry != nullptr && !entry->negative() && !rloc_usable(entry->primary_rloc())) {
    // Mapping points at an RLOC the IGP says is gone (§5.1): bypass it and
    // ride the border default until the endpoint re-registers elsewhere.
    ++counters_.default_routed;
    trace_hop(source.vn, frame, "default-route");
    encap_to(config_.border_rloc, destination, source.group, false, frame);
    return;
  }
  if (entry != nullptr && !entry->negative()) {
    if (config_.enforce_on_ingress) {
      // §5.3 ablation: enforce here using the (possibly stale) cached group.
      if (sgacl_.evaluate(source.vn, source.group, entry->group) == policy::Action::Deny) {
        ++counters_.policy_drops;
        trace_hop(source.vn, frame, "sgacl-deny");
        return;
      }
      encap_to(entry->primary_rloc(), destination, source.group, true, frame);
      return;
    }
    encap_to(entry->primary_rloc(), destination, source.group, false, frame);
    return;
  }

  if (entry == nullptr) resolve(destination, false, trace);
  if (!config_.default_route_fallback) {
    // Classic LISP (§3.2.2 ablation): nothing rides a default route while
    // the Map-Reply is outstanding. With a pending-packet queue configured
    // the flow's first packets wait for the reply instead of being lost;
    // negative entries (the EID truly is unknown) still drop.
    if (config_.pending_packet_limit > 0 && entry == nullptr) {
      auto& queue = pending_l3_[destination];
      if (queue.size() < config_.pending_packet_limit) {
        ++counters_.packets_parked;
        queue.emplace_back(source.group, frame);
        return;
      }
    }
    ++counters_.resolution_drops;
    trace_hop(source.vn, frame, "drop");
    return;
  }
  // Miss (or negative): default route to the border while resolution runs.
  ++counters_.default_routed;
  trace_hop(source.vn, frame, "default-route");
  encap_to(config_.border_rloc, destination, source.group, false, frame);
}

// ---------------------------------------------------------------------------
// Egress pipeline
// ---------------------------------------------------------------------------

void EdgeRouter::receive_fabric_frame(const net::FabricFrame& frame) {
  ++counters_.decapsulated;
  trace_hop(frame.vn, frame.inner, "decap");  // ARP is never traced
  if (frame.inner.is_arp()) {
    // Unicast-converted ARP from an L2 gateway: deliver to the target MAC.
    const net::VnEid mac_eid{frame.vn, net::Eid{frame.inner.destination_mac}};
    if (const AttachedEndpoint* target = local_.lookup(mac_eid)) {
      ++counters_.frames_delivered;
      hand_to_port(*target, frame.inner);
    } else {
      ++counters_.no_route_drops;
    }
    return;
  }

  const net::VnEid destination{frame.vn, frame.inner.destination_eid()};

  // Stage 1: VRF lookup -> the attached endpoint's (port, GroupId).
  if (const AttachedEndpoint* local = local_.lookup(destination)) {
    egress_deliver(*local, frame.source_group, frame.policy_applied, frame.inner);
    return;
  }

  // Not local: the endpoint roamed away (or never was here). Tell the
  // sender to refresh (Fig. 6 step 2, once the new location is known) and
  // forward the traffic onward so it is not lost (step 3).
  solicit(destination, frame.outer_source);

  net::OverlayFrame inner = frame.inner;
  if (inner.hop_limit() <= 1) {
    ++counters_.ttl_drops;  // transient edge<->border loop protection (§5.2)
    trace_hop(frame.vn, inner, "drop");
    return;
  }
  inner.set_hop_limit(static_cast<std::uint8_t>(inner.hop_limit() - 1));

  const lisp::MapCacheEntry* entry = cache_.lookup(destination, simulator_.now());
  if (entry != nullptr && !entry->negative() && entry->primary_rloc() != config_.rloc) {
    ++counters_.stale_forwards;
    trace_hop(frame.vn, inner, "stale-forward");
    encap_to(entry->primary_rloc(), destination, frame.source_group, frame.policy_applied,
             inner);
    return;
  }
  if (entry == nullptr) resolve(destination, false);
  if (is_border(frame.outer_source)) {
    // Came *from* a border and we have no better idea: bouncing it back
    // would loop (§5.2); hold the line and drop after resolution kicks in.
    ++counters_.no_route_drops;
    trace_hop(frame.vn, inner, "drop");
    return;
  }
  ++counters_.default_routed;
  encap_to(config_.border_rloc, destination, frame.source_group, frame.policy_applied, inner);
}

void EdgeRouter::egress_deliver(const AttachedEndpoint& destination, net::GroupId source_group,
                                bool policy_already_applied, const net::OverlayFrame& frame) {
  // Stage 2: exact-match group ACL, unless already enforced upstream.
  if (!policy_already_applied &&
      sgacl_.evaluate(destination.vn, source_group, destination.group) == policy::Action::Deny) {
    ++counters_.policy_drops;
    trace_hop(destination.vn, frame, "sgacl-deny");
    return;
  }
  trace_hop(destination.vn, frame, "sgacl-permit");

  ++counters_.frames_delivered;
  trace_hop(destination.vn, frame, "deliver");
  hand_to_port(destination, frame);
}

void EdgeRouter::hand_to_port(const AttachedEndpoint& destination,
                              const net::OverlayFrame& frame) {
  if (!deliver_local_) return;
  if (destination.vlan) {
    // Re-apply the destination port's access VLAN (§3.5 element i).
    net::OverlayFrame tagged = frame;
    tagged.vlan_id = destination.vlan;
    deliver_local_(destination, tagged);
  } else {
    deliver_local_(destination, frame);
  }
}

// ---------------------------------------------------------------------------
// Encapsulation and control plane
// ---------------------------------------------------------------------------

void EdgeRouter::encap_to(net::Ipv4Address rloc, const net::VnEid& destination,
                          net::GroupId source_group, bool policy_applied,
                          const net::OverlayFrame& frame) {
  trace_hop(destination.vn, frame, "encap");
  net::FabricFrame out;
  out.outer_source = config_.rloc;
  out.outer_destination = rloc;
  out.vn = destination.vn;
  out.source_group = source_group;
  out.policy_applied = policy_applied;
  out.inner = frame;
  ++counters_.encapsulated;
  if (send_data_) send_data_(out);
}

void EdgeRouter::resolve(const net::VnEid& eid, bool smr_invoked, std::uint64_t trace) {
  if (!send_map_request_) return;
  const auto [pending, fresh] = pending_requests_.find_or_insert_reused(eid);
  if (!fresh) return;  // already resolving
  *pending = PendingRequest{next_nonce_++, config_.map_request_retries, smr_invoked, trace,
                            kInitialRto};
  transmit_map_request(eid, *pending);
}

void EdgeRouter::transmit_map_request(const net::VnEid& eid, PendingRequest& attempt) {
  lisp::MapRequest request;
  request.nonce = attempt.nonce;
  request.eid = eid;
  request.itr_rloc = config_.rloc;
  request.smr_invoked = attempt.smr_invoked;
  // Only an SMR's id rides the wire: a first packet's would add 8 bytes to
  // the request and its reply, and so change the run being traced.
  request.trace = attempt.smr_invoked ? attempt.trace : 0;
  ++counters_.map_requests_sent;
  // The hook queues the request and never re-enters this edge, so
  // `attempt` stays valid across it.
  send_map_request_(request);

  // Arm the retransmission timer: fires only if still unanswered. When no
  // retries remain, the timer's job is to clear the pending entry so a
  // later packet can retrigger resolution. Each retransmit backs off with
  // decorrelated jitter so loss-induced storms spread out.
  auto retransmit = [this, eid, nonce = request.nonce] {
    PendingRequest* pending = pending_requests_.find(eid);
    if (pending == nullptr) return;
    if (pending->nonce != nonce) return;  // superseded by a newer attempt
    if (pending->retries_left == 0) {
      // Out of retries: give up so a later packet can retrigger resolution.
      pending_requests_.erase(eid);
      drop_parked(eid);
      return;
    }
    --pending->retries_left;
    pending->nonce = next_nonce_++;
    pending->timeout = sim::decorrelated_backoff(rng_, pending->timeout, kInitialRto,
                                                 kMapRequestTimeoutCap);
    ++counters_.map_request_retries;
    transmit_map_request(eid, *pending);
  };
  // Per-resolution timer: must stay in the scheduler's inline buffer. If a
  // future capture (a Packet, a MapReply) pushes it past the SBO threshold,
  // fail the build here instead of silently allocating per miss.
  static_assert(sim::InlineAction::fits_inline<decltype(retransmit)>,
                "map-request retransmit timer must not heap-allocate");
  attempt.timer = simulator_.schedule_after(attempt.timeout, std::move(retransmit));
}

void EdgeRouter::receive_map_request_busy(const net::VnEid& eid, sim::Duration retry_after) {
  PendingRequest* pending = pending_requests_.find(eid);
  if (pending == nullptr) return;  // answered (or given up) meanwhile
  ++counters_.server_busy;
  simulator_.cancel(pending->timer);
  if (pending->retries_left == 0) {
    pending_requests_.erase(eid);
    drop_parked(eid);
    return;
  }
  --pending->retries_left;
  pending->nonce = next_nonce_++;
  // Honor the server's retry-after instead of the local RTO — but jitter
  // it: every shed client hears the same hint, and retrying at the exact
  // deadline re-synchronizes the stampede the shed was deflecting.
  pending->timer =
      simulator_.schedule_after(jittered_retry_after(retry_after), [this, eid] {
        if (PendingRequest* attempt = pending_requests_.find(eid)) {
          transmit_map_request(eid, *attempt);  // unless answered meanwhile
        }
      });
}

void EdgeRouter::receive_map_register_busy(const net::VnEid& eid, sim::Duration retry_after) {
  PendingRegister* pending = pending_registers_.find(eid);
  if (pending == nullptr) return;  // acked or abandoned meanwhile
  ++counters_.server_busy;
  simulator_.cancel(pending->timer);
  if (pending->retries_left == 0) {
    pending_registers_.erase(eid);
    return;
  }
  --pending->retries_left;
  pending->timer = simulator_.schedule_after(jittered_retry_after(retry_after),
                                             [this, eid] { transmit_map_register(eid); });
}

sim::Duration EdgeRouter::jittered_retry_after(sim::Duration retry_after) {
  // Uniform in [retry_after, 3*retry_after): never earlier than the
  // server's hint, spread enough that shed peers do not re-collide.
  return sim::decorrelated_backoff(rng_, retry_after, retry_after, retry_after * 3);
}

void EdgeRouter::drop_parked(const net::VnEid& eid) {
  const auto it = pending_l3_.find(eid);
  if (it == pending_l3_.end()) return;
  drop_unresolved(eid.vn, it->second);
  pending_l3_.erase(it);
}

void EdgeRouter::drop_unresolved(net::VnId vn, const ParkedFrames& held) {
  counters_.resolution_drops += held.size();
  for (const auto& [group, frame] : held) trace_hop(vn, frame, "drop");
}

void EdgeRouter::solicit(const net::VnEid& eid, net::Ipv4Address sender_rloc) {
  if (!send_smr_ || sender_rloc == config_.rloc) return;
  const sim::SimTime now = simulator_.now();
  MobilityRecord& record = mobility_record(eid);
  if (now < record.hold_until) return;  // the Map-Notify is not in yet
  auto& throttles = record.smr_until;
  auto it = std::find_if(throttles.begin(), throttles.end(),
                         [sender_rloc](const auto& t) { return t.first == sender_rloc; });
  if (it == throttles.end()) it = throttles.emplace(it, sender_rloc, sim::SimTime{});
  if (now < it->second) return;
  it->second = now + kSmrMinInterval;
  ++counters_.smr_sent;
  send_smr_(sender_rloc, lisp::SolicitMapRequest{eid, config_.rloc});
}

EdgeRouter::MobilityRecord& EdgeRouter::mobility_record(const net::VnEid& eid) {
  if (MobilityRecord* record = mobility_.find(eid)) return *record;
  if (!mobility_.has_free_slot()) {
    // Sweep settled records before growing the table, so it stays the size
    // of the EIDs still in motion.
    const sim::SimTime now = simulator_.now();
    mobility_.erase_if([now](const net::VnEid&, const MobilityRecord& record) {
      return record.settled(now);
    });
  }
  MobilityRecord& record = mobility_.insert_reused(eid);
  record.hold_until = sim::SimTime{};
  record.smr_until.clear();
  return record;
}

void EdgeRouter::register_eid(const net::VnEid& eid, net::GroupId group) {
  send_register(eid, group, config_.register_ttl_seconds);
}

void EdgeRouter::send_register(const net::VnEid& eid, net::GroupId group,
                               std::uint32_t ttl_seconds) {
  if (!send_map_register_) return;
  if (ttl_seconds != 0) ++counters_.registers_sent;  // withdrawals not counted

  if (config_.map_register_retries == 0) {
    // Classic fire-and-forget registration.
    lisp::MapRegister reg;
    reg.nonce = next_nonce_++;
    reg.eid = eid;
    reg.rlocs = {net::Rloc{config_.rloc}};
    reg.ttl_seconds = ttl_seconds;
    if (ttl_seconds != 0) reg.group = group.value();
    send_map_register_(reg);
    return;
  }

  // Reliable registration: book (or replace) the pending entry and
  // retransmit until the Map-Notify ack comes back. A fresh registration
  // for an EID supersedes any pending one (latest intent wins).
  PendingRegister* pending = pending_registers_.find(eid);
  if (pending != nullptr) {
    simulator_.cancel(pending->timer);
  } else {
    pending = &pending_registers_.insert(eid, PendingRegister{});
  }
  pending->nonce = next_nonce_++;
  pending->group = group;
  pending->ttl_seconds = ttl_seconds;
  pending->retries_left = config_.map_register_retries;
  pending->timeout = kInitialRto;
  transmit_map_register(eid);
}

void EdgeRouter::transmit_map_register(const net::VnEid& eid) {
  const PendingRegister* pending = pending_registers_.find(eid);
  if (pending == nullptr) return;

  lisp::MapRegister reg;
  reg.nonce = pending->nonce;  // same nonce on every retransmit: acks match any copy
  reg.eid = eid;
  reg.rlocs = {net::Rloc{config_.rloc}};
  reg.ttl_seconds = pending->ttl_seconds;
  if (pending->ttl_seconds != 0) reg.group = pending->group.value();
  const sim::Duration timeout = pending->timeout;
  send_map_register_(reg);

  auto retransmit = [this, eid] {
    PendingRegister* entry = pending_registers_.find(eid);
    if (entry == nullptr) return;
    if (entry->retries_left == 0) {
      // Out of retries. Keep nothing: the soft-state refresh timer (or the
      // next attach) re-registers the EID.
      pending_registers_.erase(eid);
      return;
    }
    --entry->retries_left;
    entry->timeout = sim::decorrelated_backoff(rng_, entry->timeout, kInitialRto,
                                               kMapRegisterTimeoutCap);
    ++counters_.map_register_retries;
    transmit_map_register(eid);
  };
  static_assert(sim::InlineAction::fits_inline<decltype(retransmit)>,
                "map-register retransmit timer must not heap-allocate");
  const sim::EventHandle timer = simulator_.schedule_after(timeout, std::move(retransmit));
  // The send hook may have consumed the entry (a synchronous ack).
  if (PendingRegister* armed = pending_registers_.find(eid)) armed->timer = timer;
}

void EdgeRouter::abandon_pending_register(const net::VnEid& eid) {
  const PendingRegister* pending = pending_registers_.find(eid);
  if (pending == nullptr) return;
  simulator_.cancel(pending->timer);
  pending_registers_.erase(eid);
}

void EdgeRouter::maybe_schedule_probe_sweep() {
  if (!config_.rloc_probing || !send_probe_ || probe_sweep_armed_) return;
  if (cache_.positive_size() == 0) return;
  probe_sweep_armed_ = true;
  simulator_.schedule_after(config_.probe_interval, [this] {
    probe_sweep_armed_ = false;
    run_probe_sweep();
    maybe_schedule_probe_sweep();  // re-arm while positive entries remain
  });
}

void EdgeRouter::run_probe_sweep() {
  // Collect the distinct RLOCs the cache currently points at.
  std::unordered_set<net::Ipv4Address> rlocs;
  cache_.walk([&rlocs](const net::VnEid&, const lisp::MapCacheEntry& entry) {
    if (!entry.negative()) rlocs.insert(entry.primary_rloc());
  });
  for (const net::Ipv4Address rloc : rlocs) {
    ++counters_.probes_sent;
    send_probe_(rloc, [this, rloc](bool alive) {
      if (alive) {
        down_rlocs_.erase(rloc);
        return;
      }
      ++counters_.probes_failed;
      down_rlocs_.insert(rloc);
      counters_.rloc_fallbacks += cache_.invalidate_rloc(rloc);
    });
  }
}

void EdgeRouter::receive_map_reply(const lisp::MapReply& reply) {
  if (const PendingRequest* answered = pending_requests_.take(reply.eid)) {
    simulator_.cancel(answered->timer);
  }
  cache_.install(reply.eid, reply, simulator_.now());
  maybe_schedule_probe_sweep();

  // Flush any L3 frames parked while this EID resolved (classic-LISP mode
  // with a pending-packet queue). A negative reply drops them: the EID is
  // genuinely unknown and the negative cache entry stops re-resolution.
  // Both parking queues are almost always empty: skip their probes then.
  const auto l3 = pending_l3_.empty() ? pending_l3_.end() : pending_l3_.find(reply.eid);
  if (l3 != pending_l3_.end()) {
    auto held = std::move(l3->second);
    pending_l3_.erase(l3);
    const lisp::MapCacheEntry* entry = cache_.lookup(reply.eid, simulator_.now());
    if (entry != nullptr && !entry->negative()) {
      for (const auto& [group, frame] : held) {
        ++counters_.parked_flushed;
        encap_to(entry->primary_rloc(), reply.eid, group, false, frame);
      }
    } else {
      drop_unresolved(reply.eid.vn, held);
    }
  }

  // Flush any L2 frames parked on this EID.
  if (pending_l2_.empty()) return;
  const auto parked = pending_l2_.find(reply.eid);
  if (parked == pending_l2_.end()) return;
  auto frames = std::move(parked->second);
  pending_l2_.erase(parked);
  if (reply.negative()) return;  // target unknown: parked frames are dropped
  for (const auto& [source_mac, frame] : frames) {
    if (const AttachedEndpoint* source = find_endpoint(source_mac)) {
      forward_by_mac(*source, frame);
    }
  }
}

void EdgeRouter::forward_by_mac(const AttachedEndpoint& source, const net::OverlayFrame& frame) {
  const net::VnEid destination{source.vn, net::Eid{frame.destination_mac}};

  if (const AttachedEndpoint* target = local_.lookup(destination)) {
    // Local L2 delivery still passes micro-segmentation.
    if (sgacl_.evaluate(source.vn, source.group, target->group) == policy::Action::Deny) {
      ++counters_.policy_drops;
      return;
    }
    ++counters_.frames_delivered;
    ++counters_.locally_switched;
    hand_to_port(*target, frame);
    return;
  }

  const lisp::MapCacheEntry* entry = cache_.lookup(destination, simulator_.now());
  if (entry != nullptr && !entry->negative()) {
    encap_to(entry->primary_rloc(), destination, source.group, false, frame);
    return;
  }
  if (entry != nullptr) {
    ++counters_.no_route_drops;  // negative-cached MAC: nothing to do
    return;
  }
  resolve(destination, false);
  auto& queue = pending_l2_[destination];
  constexpr std::size_t kMaxParkedPerEid = 8;
  if (queue.size() < kMaxParkedPerEid) {
    queue.emplace_back(source.mac, frame);
  } else {
    ++counters_.no_route_drops;
  }
}

void EdgeRouter::transmit_l2(const AttachedEndpoint& source, const net::OverlayFrame& frame,
                             net::Ipv4Address target_rloc) {
  const net::VnEid destination{source.vn, net::Eid{frame.destination_mac}};
  encap_to(target_rloc, destination, source.group, false, frame);
}

bool EdgeRouter::receive_map_notify(const lisp::MapNotify& notify) {
  // Split-brain fence: a notify from an older election epoch comes from a
  // deposed primary — neither its ack (the retransmit keeps running until
  // the real leader answers) nor its mobility payload may be believed.
  if (notify.epoch != 0) {
    if (notify.epoch < control_epoch_) {
      ++counters_.stale_epoch_rejected;
      return false;
    }
    control_epoch_ = notify.epoch;
  }
  // Reliable-registration ack: a notify whose nonce matches a pending
  // register acknowledges it — consume it, never install it as a mapping.
  const PendingRegister* pending = pending_registers_.find(notify.eid);
  if (pending != nullptr && pending->nonce == notify.nonce) {
    simulator_.cancel(pending->timer);
    pending_registers_.erase(notify.eid);
    ++counters_.registers_acked;
    return true;
  }
  // A duplicate ack for our *own* still-attached endpoint (retransmit
  // crossed the first ack on the wire) must not masquerade as a mobility
  // update either.
  if (local_.lookup(notify.eid) != nullptr) return true;

  // Fig. 5 steps 2-3: the mapping moved; cache the new location so in-flight
  // traffic for the roamed endpoint is forwarded to its new edge. The new
  // location is what the senders will now resolve, so SMRs flow again and
  // any throttle left from an older location is void (Fig. 6).
  mobility_.erase(notify.eid);
  if (notify.rlocs.empty()) {
    cache_.invalidate(notify.eid);
    return true;
  }
  cache_.install(notify.eid, notify.rlocs, config_.register_ttl_seconds, simulator_.now());
  maybe_schedule_probe_sweep();
  return true;
}

void EdgeRouter::receive_smr(const lisp::SolicitMapRequest& smr) {
  // Our cached mapping for this EID is stale: drop it and re-resolve now.
  ++counters_.smr_received;
  cache_.invalidate(smr.eid);
  resolve(smr.eid, true, smr.trace);
}

void EdgeRouter::on_rloc_reachability(net::Ipv4Address rloc, bool reachable) {
  if (reachable) {
    down_rlocs_.erase(rloc);
    reselect_border();  // fail back once the primary border returns
    return;
  }
  down_rlocs_.insert(rloc);
  // §5.1: fall back to the border default route until the EIDs re-register.
  counters_.rloc_fallbacks += cache_.invalidate_rloc(rloc);
  reselect_border();  // repoint the default route if a border just died
}

void EdgeRouter::set_border_rlocs(std::vector<net::Ipv4Address> rlocs) {
  border_rlocs_ = std::move(rlocs);
  if (!border_rlocs_.empty()) config_.border_rloc = border_rlocs_.front();
  reselect_border();
}

void EdgeRouter::reselect_border() {
  if (border_rlocs_.size() < 2) return;  // nothing to fail over to
  // First live candidate wins; with everything down, stick to the primary
  // (any choice blackholes equally, and this makes recovery deterministic).
  net::Ipv4Address desired = border_rlocs_.front();
  for (const net::Ipv4Address candidate : border_rlocs_) {
    if (rloc_usable(candidate)) {
      desired = candidate;
      break;
    }
  }
  if (desired == config_.border_rloc) return;
  if (desired == border_rlocs_.front()) {
    ++counters_.border_failbacks;
  } else {
    ++counters_.border_failovers;
  }
  config_.border_rloc = desired;
}

bool EdgeRouter::is_border(net::Ipv4Address rloc) const {
  if (rloc == config_.border_rloc) return true;
  return std::find(border_rlocs_.begin(), border_rlocs_.end(), rloc) != border_rlocs_.end();
}

void EdgeRouter::install_rules(net::VnId vn, net::GroupId destination,
                               const std::vector<policy::Rule>& rules) {
  sgacl_.install_destination_rules(vn, destination, rules);
  // A server push satisfies any pending download retry for the group.
  pending_rule_downloads_.erase(group_key(vn, destination));
}

void EdgeRouter::register_metrics(telemetry::MetricsRegistry& registry,
                                  const std::string& prefix) const {
  const auto add = [&](const char* leaf, const std::uint64_t& field) {
    registry.register_counter(telemetry::join(prefix, leaf), [&field] { return field; });
  };
  add("frames_from_endpoints", counters_.frames_from_endpoints);
  add("frames_delivered", counters_.frames_delivered);
  add("encapsulated", counters_.encapsulated);
  add("decapsulated", counters_.decapsulated);
  add("locally_switched", counters_.locally_switched);
  add("default_routed", counters_.default_routed);
  add("map_requests_sent", counters_.map_requests_sent);
  add("registers_sent", counters_.registers_sent);
  add("smr_sent", counters_.smr_sent);
  add("smr_received", counters_.smr_received);
  add("stale_forwards", counters_.stale_forwards);
  add("policy_drops", counters_.policy_drops);
  add("ttl_drops", counters_.ttl_drops);
  add("no_route_drops", counters_.no_route_drops);
  add("rloc_fallbacks", counters_.rloc_fallbacks);
  add("probes_sent", counters_.probes_sent);
  add("probes_failed", counters_.probes_failed);
  add("map_request_retries", counters_.map_request_retries);
  add("map_register_retries", counters_.map_register_retries);
  add("registers_acked", counters_.registers_acked);
  add("resolution_drops", counters_.resolution_drops);
  add("vlan_drops", counters_.vlan_drops);
  add("server_busy", counters_.server_busy);
  add("packets_parked", counters_.packets_parked);
  add("parked_flushed", counters_.parked_flushed);
  add("border_failovers", counters_.border_failovers);
  add("border_failbacks", counters_.border_failbacks);
  add("rule_download_failures", counters_.rule_download_failures);
  add("rule_download_retries", counters_.rule_download_retries);
  add("stale_epoch_rejected", counters_.stale_epoch_rejected);
  registry.register_gauge(telemetry::join(prefix, "fib_size"),
                          [this] { return static_cast<double>(fib_size()); });
  registry.register_gauge(telemetry::join(prefix, "endpoints"),
                          [this] { return static_cast<double>(endpoint_count()); });
  cache_.register_metrics(registry, telemetry::join(prefix, "map_cache"));
  sgacl_.register_metrics(registry, telemetry::join(prefix, "sgacl"));
}

void EdgeRouter::reboot() {
  cache_.clear();
  local_.clear();
  sgacl_.clear();
  group_refcounts_.clear();
  pending_requests_.for_each(
      [this](const net::VnEid&, PendingRequest& pending) { simulator_.cancel(pending.timer); });
  pending_requests_.clear();
  pending_registers_.for_each(
      [this](const net::VnEid&, PendingRegister& pending) { simulator_.cancel(pending.timer); });
  pending_registers_.clear();
  mobility_.clear();
  pending_l2_.clear();
  pending_l3_.clear();
  pending_rule_downloads_.clear();
}

}  // namespace sda::dataplane
