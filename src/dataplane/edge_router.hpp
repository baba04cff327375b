// The SDA edge router (fabric edge node).
//
// Implements the four functions of paper §3.3: encap/decap of endpoint
// traffic, inter-VN isolation via VRFs, roaming detection with location
// update, and group-rule enforcement. The ingress and egress pipelines
// follow Fig. 4; the default route to the border absorbs map-cache misses
// (§3.2.2); data-triggered SMRs refresh stale senders (Fig. 6); underlay
// reachability tracking falls traffic back to the border on outages (§5.1);
// reboot semantics reproduce §5.2.
//
// The router is environment-agnostic: all I/O goes through injected hooks,
// so unit tests can drive it with plain lambdas and the fabric layer wires
// it to the simulator, the underlay, and the control-plane nodes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dataplane/sgacl.hpp"
#include "dataplane/vrf.hpp"
#include "lisp/flat_index.hpp"
#include "lisp/map_cache.hpp"
#include "lisp/messages.hpp"
#include "net/packet.hpp"
#include "policy/matrix.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "telemetry/causal_trace.hpp"
#include "underlay/topology.hpp"

namespace sda::telemetry {
class MetricsRegistry;
}

namespace sda::dataplane {

struct EdgeRouterConfig {
  std::string name;
  net::Ipv4Address rloc;
  underlay::NodeId node = 0;
  net::Ipv4Address border_rloc;  // default-route target
  std::size_t map_cache_capacity = 0;
  /// Map-cache entry TTL requested on registration (paper default 1440 min).
  std::uint32_t register_ttl_seconds = 1440 * 60;
  /// Minimum spacing between SMRs for the same EID (rate limiting).
  sim::Duration smr_min_interval = std::chrono::seconds{1};
  /// §5.3 ablation: enforce SGACL on ingress instead of egress.
  bool enforce_on_ingress = false;
  policy::Action default_action = policy::Action::Allow;
  /// LISP RLOC probing (§5.1's "explicit probing" alternative to watching
  /// the IGP): periodically probe every RLOC the map-cache points at;
  /// unanswered probes purge the affected entries. The probe timer only
  /// runs while positive cache entries exist, so an idle simulator drains.
  bool rloc_probing = false;
  sim::Duration probe_interval = std::chrono::seconds{10};
  /// Map-Requests are retransmitted until answered (control messages can
  /// be lost to underlay outages); 0 retries = fire-and-forget. The timeout
  /// is the *initial* RTO; each retransmit backs off (see below).
  sim::Duration map_request_timeout = std::chrono::seconds{1};
  unsigned map_request_retries = 3;
  /// Retransmission backoff policy, shared by Map-Request and Map-Register
  /// timers. With jitter (default), the next RTO is drawn uniformly from
  /// [initial, 3 * previous] (decorrelated jitter) so retransmit storms
  /// desynchronize across edges; without it, a plain exponential with this
  /// multiplier. Both are capped.
  bool retransmit_jitter = true;
  double retransmit_backoff = 2.0;
  sim::Duration map_request_timeout_cap = std::chrono::seconds{8};
  /// Reliable Map-Register: keep retransmitting (with the same backoff
  /// policy) until the routing server's Map-Notify ack arrives or retries
  /// run out. 0 = classic fire-and-forget registration.
  unsigned map_register_retries = 0;
  sim::Duration map_register_timeout = std::chrono::seconds{1};
  sim::Duration map_register_timeout_cap = std::chrono::seconds{16};
  /// Seed for the retransmission-jitter RNG (mixed with the RLOC so edges
  /// decorrelate even with identical config).
  std::uint64_t seed = 0x5DA;
  /// Periodic re-registration of every attached endpoint (LISP soft-state
  /// refresh; pairs with MapServer::expire_registrations). 0 = disabled.
  /// The timer runs only while endpoints are attached.
  sim::Duration register_refresh_interval{0};
  /// §3.2.2 design decision: with the border default route, packets are
  /// forwarded (and hairpinned by the synchronized border) while the
  /// routing server answers. false models classic LISP behaviour — the
  /// first packets of a flow are dropped until the Map-Reply arrives.
  bool default_route_fallback = true;
  /// Without the border default route, park up to this many frames per
  /// unresolved EID instead of dropping them; parked frames flush when the
  /// positive Map-Reply lands. 0 = classic drop-until-resolved.
  std::size_t pending_packet_limit = 0;
  /// What traffic gets when its destination group's SGACL rules have not
  /// downloaded (policy-server outage): fall through (Open, legacy) or
  /// deny until the rules arrive (Closed).
  PolicyFailMode policy_fail_mode = PolicyFailMode::Open;
  /// Retry cadence for rule downloads the policy server refused (outage).
  /// The timer runs only while failed downloads are outstanding. 0 = never
  /// retry (rules arrive only via a later attach or a server push).
  sim::Duration rule_retry_interval = std::chrono::seconds{1};
};

class EdgeRouter {
 public:
  // --- Environment hooks (wired by the fabric layer or by tests) ---------
  /// Data plane: transmit an encapsulated frame into the underlay.
  using SendData = std::function<void(const net::FabricFrame&)>;
  /// Control plane: send a Map-Request to the routing server.
  using SendMapRequest = std::function<void(const lisp::MapRequest&)>;
  /// Control plane: send a Map-Register to the routing server.
  using SendMapRegister = std::function<void(const lisp::MapRegister&)>;
  /// Control plane: send an SMR to another edge's RLOC.
  using SendSmr = std::function<void(net::Ipv4Address to, const lisp::SolicitMapRequest&)>;
  /// Local delivery: the frame reached its destination endpoint.
  using DeliverLocal = std::function<void(const AttachedEndpoint&, const net::OverlayFrame&)>;
  /// Rule download from the policy server (onboarding step 2). nullopt =
  /// the server is unreachable; the edge books a retry and the SGACL fail
  /// mode governs traffic in the meantime.
  using DownloadRules =
      std::function<std::optional<std::vector<policy::Rule>>(net::VnId,
                                                             net::GroupId destination)>;
  /// Tell the policy server this edge no longer hosts a group.
  using ReleaseGroup = std::function<void(net::VnId, net::GroupId)>;
  /// L2 service hook: an ARP (or other broadcast) frame needs gateway help.
  using BroadcastHandler =
      std::function<void(EdgeRouter&, const AttachedEndpoint&, const net::OverlayFrame&)>;
  /// RLOC-probe hook: probe `rloc`, answer asynchronously with liveness.
  using SendProbe = std::function<void(net::Ipv4Address rloc, std::function<void(bool)>)>;

  EdgeRouter(sim::Simulator& simulator, EdgeRouterConfig config);

  void set_send_data(SendData fn) { send_data_ = std::move(fn); }
  void set_send_map_request(SendMapRequest fn) { send_map_request_ = std::move(fn); }
  void set_send_map_register(SendMapRegister fn) { send_map_register_ = std::move(fn); }
  void set_send_smr(SendSmr fn) { send_smr_ = std::move(fn); }
  void set_deliver_local(DeliverLocal fn) { deliver_local_ = std::move(fn); }
  void set_download_rules(DownloadRules fn) { download_rules_ = std::move(fn); }
  void set_release_group(ReleaseGroup fn) { release_group_ = std::move(fn); }
  void set_broadcast_handler(BroadcastHandler fn) { broadcast_handler_ = std::move(fn); }
  void set_send_probe(SendProbe fn) { send_probe_ = std::move(fn); }

  [[nodiscard]] const EdgeRouterConfig& config() const { return config_; }
  [[nodiscard]] net::Ipv4Address rloc() const { return config_.rloc; }
  [[nodiscard]] const std::string& name() const { return config_.name; }

  /// Ordered border candidates for the default route: the first is the
  /// primary. Underlay reachability transitions repoint the default route
  /// at the first live candidate (border failover, and fail-back when the
  /// primary returns).
  void set_border_rlocs(std::vector<net::Ipv4Address> rlocs);
  [[nodiscard]] net::Ipv4Address active_border_rloc() const { return config_.border_rloc; }

  // --- Endpoint lifecycle (driven by the onboarding state machine) -------

  /// Installs a fully authenticated endpoint: VRF entry, SGACL destination
  /// rules, and a Map-Register for its IP (and MAC if register_mac).
  /// Returns its slot, which vrf().at() resolves without a probe.
  VrfSet::Slot attach_endpoint(const AttachedEndpoint& endpoint);

  /// Removes an endpoint. `deregister` withdraws its mapping from the
  /// routing server (clean departure); roaming leaves the registration to
  /// be overwritten by the new edge.
  void detach_endpoint(const net::MacAddress& mac, bool deregister = false);

  /// Re-tags an attached endpoint after a policy-server group change
  /// (egress enforcement keeps the (IP, GroupId) pair fresh, §5.3).
  bool retag_endpoint(const net::MacAddress& mac, net::GroupId new_group);

  [[nodiscard]] const AttachedEndpoint* find_endpoint(const net::MacAddress& mac) const {
    return local_.find(mac);
  }
  [[nodiscard]] const AttachedEndpoint* find_endpoint(const net::VnEid& eid) const {
    return local_.lookup(eid);
  }
  [[nodiscard]] std::size_t endpoint_count() const { return local_.endpoint_count(); }

  // --- Data plane entry points -------------------------------------------

  /// A locally attached endpoint transmits a frame (ingress pipeline).
  /// `source` is this edge's record of the sender.
  void endpoint_transmit(const AttachedEndpoint& source, const net::OverlayFrame& frame);
  /// Same, for a sender known by MAC only; an unknown MAC is dropped.
  void endpoint_transmit(const net::MacAddress& source_mac, const net::OverlayFrame& frame);

  /// An encapsulated frame arrives from the underlay (egress pipeline).
  void receive_fabric_frame(const net::FabricFrame& frame);

  /// Transmits an L2 frame straight to a known RLOC — used by the L2
  /// gateway after it resolved broadcast ARP into a unicast target (§3.5).
  void transmit_l2(const AttachedEndpoint& source, const net::OverlayFrame& frame,
                   net::Ipv4Address target_rloc);

  /// L2 (MAC-keyed) forwarding with resolve-and-buffer on cache miss: MAC
  /// EIDs have no border default route, so frames wait for the Map-Reply.
  void forward_by_mac(const AttachedEndpoint& source, const net::OverlayFrame& frame);

  // --- Control plane entry points ----------------------------------------

  void receive_map_reply(const lisp::MapReply& reply);
  /// Returns false iff the notify carried a stale election epoch and was
  /// fenced off (its ack/mobility payload was ignored).
  bool receive_map_notify(const lisp::MapNotify& notify);
  void receive_smr(const lisp::SolicitMapRequest& smr);

  /// Split-brain fence: the highest election epoch this edge has observed.
  /// Map-Notifies from an older epoch are rejected (a deposed primary must
  /// not ack registers). Advertised by the fabric on leader changes and
  /// learned from any newer-epoch notify.
  void observe_control_epoch(std::uint64_t epoch) {
    control_epoch_ = std::max(control_epoch_, epoch);
  }
  [[nodiscard]] std::uint64_t control_epoch() const { return control_epoch_; }

  /// The routing server shed our Map-Request (bounded admission): back off
  /// for its retry-after instead of the local RTO.
  void receive_map_request_busy(const net::VnEid& eid, sim::Duration retry_after);
  /// Same for a shed Map-Register.
  void receive_map_register_busy(const net::VnEid& eid, sim::Duration retry_after);

  /// Underlay reachability transition for a remote RLOC (§5.1).
  void on_rloc_reachability(net::Ipv4Address rloc, bool reachable);

  /// Installs pushed rules (policy-server rule update fan-out).
  void install_rules(net::VnId vn, net::GroupId destination,
                     const std::vector<policy::Rule>& rules);

  // --- Operational events --------------------------------------------------

  /// Cold reboot (§5.2): all caches, VRFs, endpoints and rules are lost.
  void reboot();

  // --- Introspection -------------------------------------------------------

  /// Overlay-to-underlay mappings currently held (the Fig. 9 FIB metric).
  [[nodiscard]] std::size_t fib_size() const { return cache_.positive_size(); }
  [[nodiscard]] lisp::MapCache& map_cache() { return cache_; }
  [[nodiscard]] const lisp::MapCache& map_cache() const { return cache_; }
  [[nodiscard]] const VrfSet& vrf() const { return local_; }
  [[nodiscard]] Sgacl& sgacl() { return sgacl_; }
  [[nodiscard]] const Sgacl& sgacl() const { return sgacl_; }

  struct Counters {
    std::uint64_t frames_from_endpoints = 0;
    std::uint64_t frames_delivered = 0;
    std::uint64_t encapsulated = 0;
    std::uint64_t decapsulated = 0;
    std::uint64_t locally_switched = 0;   // src and dst on this edge
    std::uint64_t default_routed = 0;     // sent to border on cache miss
    std::uint64_t map_requests_sent = 0;
    std::uint64_t registers_sent = 0;
    std::uint64_t smr_sent = 0;
    std::uint64_t smr_received = 0;
    std::uint64_t stale_forwards = 0;     // old-edge forwarding (Fig. 6 step 3)
    std::uint64_t policy_drops = 0;
    std::uint64_t ttl_drops = 0;          // transient-loop protection (§5.2)
    std::uint64_t no_route_drops = 0;
    std::uint64_t rloc_fallbacks = 0;     // cache entries purged on outage (§5.1)
    std::uint64_t probes_sent = 0;
    std::uint64_t probes_failed = 0;
    std::uint64_t map_request_retries = 0;
    std::uint64_t map_register_retries = 0;  // reliable-registration resends
    std::uint64_t registers_acked = 0;       // Map-Notify acks consumed
    std::uint64_t resolution_drops = 0;  // miss drops when no default route
    std::uint64_t vlan_drops = 0;        // access-VLAN mismatch at ingress (§3.5)
    std::uint64_t server_busy = 0;       // control messages shed by admission
    std::uint64_t packets_parked = 0;    // frames held while resolution runs
    std::uint64_t parked_flushed = 0;    // parked frames sent after the reply
    std::uint64_t border_failovers = 0;  // default route moved off the primary
    std::uint64_t border_failbacks = 0;  // default route back on the primary
    std::uint64_t rule_download_failures = 0;  // policy server unreachable
    std::uint64_t rule_download_retries = 0;   // retry attempts booked
    std::uint64_t stale_epoch_rejected = 0;    // notifies fenced (split-brain)
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  /// Registers pull probes for every counter under `prefix` (e.g.
  /// "edge[3]") and delegates to the embedded map cache ("<prefix>.map_cache")
  /// and SGACL ("<prefix>.sgacl"). Probes capture `this`.
  void register_metrics(telemetry::MetricsRegistry& registry, const std::string& prefix) const;

  /// Attaches the tracer whose armed flows this edge's hooks record
  /// (nullptr detaches); while no flow is armed or in flight every hook is
  /// one inline branch and builds nothing.
  void set_tracer(telemetry::CausalTracer* tracer) { tracer_ = tracer; }

  // --- Assurance-plane leak probes (quiesce invariants) -------------------

  /// Frames currently parked awaiting resolution (L2 + L3 queues).
  [[nodiscard]] std::size_t parked_frame_count() const {
    std::size_t parked = 0;
    for (const auto& [eid, frames] : pending_l2_) parked += frames.size();
    for (const auto& [eid, frames] : pending_l3_) parked += frames.size();
    return parked;
  }
  /// EIDs not attached here with mobility state kept (SMR hold or throttle).
  [[nodiscard]] std::size_t mobility_record_count() const { return mobility_.size(); }
  /// Causal trace id of the in-flight resolution for `eid` (0 if none).
  /// Lets the fabric tell whether an SMR's trace was adopted by the target,
  /// and nest a traced first packet's Map-Request under its operation.
  [[nodiscard]] std::uint64_t pending_request_trace(const net::VnEid& eid) const {
    const PendingRequest* pending = pending_requests_.find(eid);
    return pending == nullptr ? 0 : pending->trace;
  }

 private:
  struct PendingRequest;
  /// L3 frames parked on an EID while it resolves, with their source groups.
  using ParkedFrames = std::vector<std::pair<net::GroupId, net::OverlayFrame>>;
  /// Mobility state of an EID that is not attached here (Fig. 6). An EID
  /// that left for a roam holds its SMRs until the Map-Notify brings the new
  /// location (at most smr_min_interval, in case the notify is lost); after
  /// that every stale sender is solicited, each at most once per
  /// smr_min_interval. The record settles once both have passed: settled
  /// records are swept before the table grows, and a Map-Notify, a
  /// re-attach or a reboot erases the record outright.
  struct MobilityRecord {
    sim::SimTime hold_until;  // SMRs wait for the Map-Notify until then
    /// (sender RLOC, no new SMR to it before this time).
    std::vector<std::pair<net::Ipv4Address, sim::SimTime>> smr_until;

    [[nodiscard]] bool settled(sim::SimTime now) const {
      return now >= hold_until &&
             std::all_of(smr_until.begin(), smr_until.end(),
                         [now](const auto& sender) { return now >= sender.second; });
    }
  };

  /// Egress pipeline stage 2 for a frame whose stage-1 VRF lookup found
  /// `destination` here.
  void egress_deliver(const AttachedEndpoint& destination, net::GroupId source_group,
                      bool policy_already_applied, const net::OverlayFrame& frame);
  /// Hands an untagged overlay frame to `destination`'s port, tagged with
  /// the port's access VLAN if it has one.
  void hand_to_port(const AttachedEndpoint& destination, const net::OverlayFrame& frame);

  /// Encapsulates towards `rloc` and transmits.
  void encap_to(net::Ipv4Address rloc, const net::VnEid& destination, net::GroupId source_group,
                bool policy_applied, const net::OverlayFrame& frame);

  /// Issues a Map-Request for `eid` unless one is already pending. A
  /// nonzero `trace` attributes the resolution to a causal trace: the SMR
  /// fan-out op that triggered it, whose id rides the Map-Request, or the
  /// traced first packet that missed, whose id stays in the pending entry.
  void resolve(const net::VnEid& eid, bool smr_invoked, std::uint64_t trace = 0);

  /// Sends (or resends) the Map-Request for a pending resolution and arms
  /// the retransmission timer.
  void transmit_map_request(const net::VnEid& eid, PendingRequest& attempt);

  /// Data-triggered SMR to a sender holding a stale mapping: held while a
  /// roamed-away EID awaits its Map-Notify, then rate-limited per sender.
  void solicit(const net::VnEid& eid, net::Ipv4Address sender_rloc);

  /// The mobility record for `eid`, reset for reuse if it was absent.
  MobilityRecord& mobility_record(const net::VnEid& eid);

  /// (Re)arms the RLOC-probe timer if probing is enabled and the cache
  /// holds positive entries; self-disarms when the cache empties.
  void maybe_schedule_probe_sweep();
  void run_probe_sweep();

  /// (Re)arms the registration-refresh timer while endpoints are attached.
  void maybe_schedule_register_refresh();

  void register_eid(const net::VnEid& eid, net::GroupId group);

  /// Sends a (re-)registration or withdrawal (ttl 0). With reliable
  /// registration enabled this books a pending entry that retransmits
  /// until the Map-Notify ack arrives.
  void send_register(const net::VnEid& eid, net::GroupId group, std::uint32_t ttl_seconds);

  /// Transmits the pending registration for `eid` and arms its timer.
  void transmit_map_register(const net::VnEid& eid);

  /// Drops (and disarms) any pending registration state for `eid` — used
  /// when the endpoint detaches so a stale retransmit cannot overwrite the
  /// EID's new home.
  void abandon_pending_register(const net::VnEid& eid);

  /// Next retransmission timeout under the configured backoff policy.
  [[nodiscard]] sim::Duration next_backoff(sim::Duration current, sim::Duration initial,
                                           sim::Duration cap);

  /// A shed server's retry-after hint, de-synchronized: uniform in
  /// [retry_after, 3*retry_after) so the deflected stampede does not
  /// re-collide at the exact deadline. Identity with jitter disabled.
  [[nodiscard]] sim::Duration jittered_retry_after(sim::Duration retry_after);

  /// Downloads (vn, group)'s rules; on refusal books the pair for retry.
  void try_download_rules(net::VnId vn, net::GroupId group);
  /// (Re)arms the rule-retry timer while refused downloads are outstanding.
  void maybe_schedule_rule_retry();

  /// Drops (and counts) every frame parked on `eid` — resolution failed.
  void drop_parked(const net::VnEid& eid);
  /// Drops frames whose destination did not resolve: counted, and a "drop"
  /// hop each, so a traced first packet among them completes.
  void drop_unresolved(net::VnId vn, const ParkedFrames& held);

  /// Repoints the default route at the first live border candidate.
  void reselect_border();
  [[nodiscard]] bool is_border(net::Ipv4Address rloc) const;

  /// Tracer hooks: one inline branch while no flow is armed or in flight,
  /// taken before any argument is built.
  [[nodiscard]] bool tracing() const { return tracer_ != nullptr && tracer_->tracing_flows(); }
  void trace_hop(net::VnId vn, const net::OverlayFrame& frame, const char* hop) {
    if (tracing()) tracer_->hop(vn, frame, hop, config_.name, simulator_.now());
  }

  sim::Simulator& simulator_;
  EdgeRouterConfig config_;
  sim::Rng rng_;

  VrfSet local_;  // the attached endpoints, by identity and by MAC
  lisp::MapCache cache_;
  /// RLOCs currently unreachable per the IGP (LISP RLOC liveness, §5.1):
  /// mappings towards them are bypassed in favour of the border default.
  /// Tested after every map-cache hit, so it sits beside the cache; almost
  /// always empty, so the common case costs no hash probe.
  std::unordered_set<net::Ipv4Address> down_rlocs_;
  [[nodiscard]] bool rloc_usable(net::Ipv4Address rloc) const {
    return down_rlocs_.empty() || !down_rlocs_.contains(rloc);
  }
  telemetry::CausalTracer* tracer_ = nullptr;
  Sgacl sgacl_;

  /// Ordered default-route candidates (front = primary); empty when the
  /// edge was wired with a single static border_rloc only.
  std::vector<net::Ipv4Address> border_rlocs_;
  // (vn, group) -> number of attached endpoints with that group.
  std::unordered_map<std::uint64_t, std::size_t> group_refcounts_;
  struct PendingRequest {
    std::uint64_t nonce = 0;
    unsigned retries_left = 0;
    bool smr_invoked = false;
    /// The operation the resolution serves: an SMR fan-out, whose id the
    /// Map-Request carries, or a traced first packet, whose id stays here.
    std::uint64_t trace = 0;
    sim::Duration timeout{0};  // current RTO (grows under backoff)
    sim::EventHandle timer;    // armed retransmit (cancelled by busy/reply)
  };
  /// Flat, so a miss's resolution allocates no table node.
  lisp::FlatMap<net::VnEid, PendingRequest, net::VnEidHash> pending_requests_;
  /// Registrations awaiting their Map-Notify ack (reliable Map-Register);
  /// mirrors pending_requests_. ttl_seconds 0 marks a pending withdrawal.
  struct PendingRegister {
    std::uint64_t nonce = 0;
    net::GroupId group;
    std::uint32_t ttl_seconds = 0;
    unsigned retries_left = 0;
    sim::Duration timeout{0};
    sim::EventHandle timer;
  };
  lisp::FlatMap<net::VnEid, PendingRegister, net::VnEidHash> pending_registers_;
  /// Flat and recycled: a warm edge records roams without allocating.
  lisp::FlatMap<net::VnEid, MobilityRecord, net::VnEidHash> mobility_;
  /// Frames parked while a MAC EID resolves (bounded per EID).
  std::unordered_map<net::VnEid, std::vector<std::pair<net::MacAddress, net::OverlayFrame>>>
      pending_l2_;
  /// L3 frames parked while resolution runs (classic-LISP mode with
  /// pending_packet_limit > 0); flushed on a positive Map-Reply, dropped
  /// on a negative one or when resolution gives up.
  std::unordered_map<net::VnEid, ParkedFrames> pending_l3_;
  /// (vn, group) pairs whose rule download the policy server refused —
  /// retried on a timer while the group is still hosted here.
  std::unordered_map<std::uint64_t, std::pair<net::VnId, net::GroupId>> pending_rule_downloads_;
  std::uint64_t next_nonce_ = 1;
  /// Highest election epoch observed (0 until the fabric runs elections).
  std::uint64_t control_epoch_ = 0;

  bool probe_sweep_armed_ = false;
  bool register_refresh_armed_ = false;
  bool rule_retry_armed_ = false;

  SendData send_data_;
  SendProbe send_probe_;
  SendMapRequest send_map_request_;
  SendMapRegister send_map_register_;
  SendSmr send_smr_;
  DeliverLocal deliver_local_;
  DownloadRules download_rules_;
  ReleaseGroup release_group_;
  BroadcastHandler broadcast_handler_;

  Counters counters_;
};

}  // namespace sda::dataplane
