// SdaFabric: the public facade tying every subsystem together.
//
// Owns the underlay, the routing server (LISP map server + queueing node),
// the policy server, the DHCP server, the edge/border routers, and the L2
// gateways, and wires the hooks between them:
//
//   endpoint --(detect/auth/dhcp/register: Fig. 3)--> edge --(VXLAN-GPO)-->
//   underlay --> egress edge --(VRF + SGACL: Fig. 4)--> endpoint
//
//   mobility: re-register -> Map-Notify old edge (Fig. 5) + pub/sub to the
//   border; stale senders refreshed by data-triggered SMR (Fig. 6).
//
// All interactions run on the shared discrete-event simulator with modeled
// underlay latencies, so every experiment in the paper's evaluation can be
// replayed against this one object.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "dataplane/border_router.hpp"
#include "dataplane/edge_router.hpp"
#include "fabric/config.hpp"
#include "fabric/ha.hpp"
#include "l2/dhcp.hpp"
#include "l2/l2_gateway.hpp"
#include "l2/service_discovery.hpp"
#include "lisp/flat_index.hpp"
#include "lisp/map_server.hpp"
#include "lisp/map_server_node.hpp"
#include "policy/policy_server.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/slab.hpp"
#include "telemetry/telemetry.hpp"
#include "underlay/network.hpp"
#include "underlay/topology.hpp"

namespace sda::fabric {

/// Result handed to the onboarding-complete callback.
struct OnboardResult {
  bool success = false;
  std::string credential;
  net::MacAddress mac;
  net::Ipv4Address ip;                   // assigned overlay address
  std::optional<net::Ipv6Address> ipv6;  // SLAAC identity, if the VN has one
  net::VnId vn;
  net::GroupId group;
  std::string edge;        // edge router name
  sim::Duration elapsed{};  // detection -> location registered
};

class SdaFabric {
 public:
  using OnboardCallback = std::function<void(const OnboardResult&)>;
  /// (endpoint, frame, time) — every successful local delivery fabric-wide.
  using DeliveryListener = std::function<void(const dataplane::AttachedEndpoint&,
                                              const net::OverlayFrame&, sim::SimTime)>;
  /// (eid, record) — border installed a mapping via pub/sub (nullptr =
  /// withdrawal). Used by the mobility experiment to timestamp convergence.
  using BorderSyncListener =
      std::function<void(const std::string& border, const net::VnEid&,
                         const lisp::MappingRecord*)>;
  /// (edge, eid) — an edge took up a moved EID's new location: the old edge
  /// applied the mobility Map-Notify (Fig. 5), or a solicited sender's
  /// re-resolution landed (Fig. 6). Timestamps when the peers converged.
  using PeerSyncListener = std::function<void(const std::string& edge, const net::VnEid&)>;

  explicit SdaFabric(sim::Simulator& simulator, FabricConfig config = {});
  ~SdaFabric();
  SdaFabric(const SdaFabric&) = delete;
  SdaFabric& operator=(const SdaFabric&) = delete;

  // --- Topology construction (call before finalize()) ---------------------

  /// Adds a border router; the first border hosts the routing server and
  /// receives the fabric default route.
  void add_border(const std::string& name);
  void add_edge(const std::string& name);
  /// Adds a pure underlay router (no fabric function).
  void add_underlay_node(const std::string& name);
  /// Connects two named nodes with a link.
  void link(const std::string& a, const std::string& b,
            sim::Duration latency = std::chrono::microseconds{50}, std::uint32_t cost = 1);

  /// Wires every hook; must be called once after topology construction and
  /// before any endpoint activity.
  void finalize();

  // --- Declarative configuration ------------------------------------------

  void define_vn(const VnDefinition& vn);
  void define_group(const GroupDefinition& group);
  void set_rule(const RuleDefinition& rule);
  void provision_endpoint(const EndpointDefinition& endpoint);

  /// Declares an external prefix reachable via the borders (Internet/DC).
  /// `ttl_seconds` bounds how long edges cache resolutions under it —
  /// external mappings typically use shorter TTLs than endpoint routes.
  void add_external_prefix(net::VnId vn, const net::Ipv4Prefix& prefix,
                           net::GroupId group = net::GroupId::unknown(),
                           std::uint32_t ttl_seconds = 4 * 3600);
  void add_external_prefix(net::VnId vn, const net::Ipv6Prefix& prefix,
                           net::GroupId group = net::GroupId::unknown(),
                           std::uint32_t ttl_seconds = 4 * 3600);

  // --- Endpoint runtime -----------------------------------------------------

  /// Plugs a provisioned endpoint into an edge port and runs the Fig. 3
  /// onboarding flow. The callback fires when the location is registered.
  void connect_endpoint(const std::string& credential, const std::string& edge,
                        dataplane::PortId port, OnboardCallback callback = {});

  /// Roams a connected endpoint to another edge (Fig. 5): detach, fast
  /// re-auth, re-register; Map-Notify flows to the previous edge.
  void roam_endpoint(const net::MacAddress& mac, const std::string& new_edge,
                     dataplane::PortId port, OnboardCallback callback = {});

  /// Cleanly disconnects an endpoint (deregisters its mapping).
  void disconnect_endpoint(const net::MacAddress& mac);

  /// Sends a UDP datagram from a connected endpoint. Returns false if the
  /// endpoint is not attached anywhere.
  bool endpoint_send_udp(const net::MacAddress& mac, net::Ipv4Address destination,
                         std::uint16_t dport, std::uint16_t payload_bytes);

  /// Sends an IPv6 UDP datagram from a connected endpoint (requires the
  /// VN to have a SLAAC prefix).
  bool endpoint_send_udp6(const net::MacAddress& mac, const net::Ipv6Address& destination,
                          std::uint16_t dport, std::uint16_t payload_bytes);

  /// Sends a broadcast ARP request from a connected endpoint.
  bool endpoint_send_arp(const net::MacAddress& mac, net::Ipv4Address target);

  // --- Service discovery (§3.5: broadcast-free Bonjour) --------------------

  /// Advertises a service from a connected endpoint; the registry entry is
  /// withdrawn automatically when the endpoint disconnects. Returns false
  /// if the endpoint is not attached.
  bool advertise_service(const net::MacAddress& mac, const std::string& type,
                         const std::string& name, std::uint16_t port);

  /// A connected endpoint "broadcasts" an mDNS-style query; the edge
  /// absorbs it and the central registry answers as unicast after the
  /// control-plane round trip. Returns false if the endpoint is detached.
  using ServiceQueryCallback = std::function<void(std::vector<l2::ServiceInstance>)>;
  bool endpoint_query_service(const net::MacAddress& mac, const std::string& type,
                              ServiceQueryCallback callback);

  [[nodiscard]] l2::ServiceRegistry& service_registry() { return services_; }

  /// Injects a packet from an external network toward an overlay endpoint
  /// through a named border.
  void external_send_udp(const std::string& border, net::VnId vn, net::Ipv4Address source,
                         net::Ipv4Address destination, std::uint16_t payload_bytes,
                         net::GroupId source_group = net::GroupId::unknown());

  // --- Operational events ---------------------------------------------------

  /// Takes a link down / up; IGP reconvergence and §5.1 fallback follow.
  void set_link_state(const std::string& a, const std::string& b, bool up);

  /// Reboots an edge (§5.2): state lost, node down for `downtime`, then its
  /// endpoints re-onboard automatically.
  void reboot_edge(const std::string& name, sim::Duration downtime);

  /// Moves an endpoint to a new group at the policy server; the hosting
  /// edge re-tags and re-registers it (§5.3 freshness, §5.4 strategy A).
  bool reassign_endpoint_group(const std::string& credential, net::GroupId new_group);

  /// Pub/sub session control for a border's feed (fault injection or
  /// maintenance). While disconnected, published updates are silently
  /// dropped; reconnecting triggers the snapshot-resync protocol so the
  /// border converges back to the exact server state.
  void set_border_feed_connected(const std::string& border, bool connected);
  [[nodiscard]] bool border_feed_connected(const std::string& border) const;
  /// Feed updates lost while the border's feed was disconnected.
  [[nodiscard]] std::uint64_t border_publishes_dropped(const std::string& border) const;
  /// Current feed position (sequence number of the last publish).
  [[nodiscard]] std::uint64_t publish_seq() const { return publish_seq_; }
  /// Audit counter for the split-brain fence: Map-Notify acks an edge
  /// accepted although a newer election term was already established
  /// cluster-wide. Must stay 0 — a nonzero value means a deposed leader's
  /// ack slipped past the epoch fence. Used by the failover drill.
  [[nodiscard]] std::uint64_t stale_epoch_acks_accepted() const {
    return stale_acks_accepted_;
  }
  /// Runs the snapshot pull for a border (normally triggered by the border
  /// itself on gap detection or by a feed reconnect).
  void resync_border(const std::string& border);

  /// Updates a matrix rule; pushes to hosting edges (§5.4 strategy B).
  void update_rule(const RuleDefinition& rule);

  // --- Introspection ---------------------------------------------------------

  [[nodiscard]] sim::Simulator& simulator() { return simulator_; }
  [[nodiscard]] underlay::Topology& topology() { return topology_; }
  [[nodiscard]] underlay::UnderlayNetwork& underlay() { return *underlay_; }
  [[nodiscard]] lisp::MapServer& map_server() { return map_server_; }
  [[nodiscard]] lisp::MapServerNode& map_server_node() { return *server_nodes_.front(); }

  /// Horizontal scale-out introspection (§4.1).
  [[nodiscard]] std::size_t routing_server_count() const { return server_nodes_.size(); }
  [[nodiscard]] lisp::MapServerNode& map_server_node(std::size_t i) { return *server_nodes_[i]; }
  /// The replica database behind server `i` (0 = the primary map_server()).
  [[nodiscard]] const lisp::MapServer& map_server_replica(std::size_t i) const {
    return i == 0 ? map_server_ : *replica_dbs_[i - 1];
  }
  /// The HA monitor (nullptr unless config().ha enables failover or
  /// anti-entropy): server health, failover target selection, replica
  /// reconciliation counters.
  [[nodiscard]] HaMonitor* ha_monitor() { return ha_.get(); }
  [[nodiscard]] const HaMonitor* ha_monitor() const { return ha_.get(); }
  [[nodiscard]] policy::PolicyServer& policy_server() { return policy_server_; }
  [[nodiscard]] l2::DhcpServer& dhcp_server() { return dhcp_; }

  [[nodiscard]] dataplane::EdgeRouter& edge(const std::string& name);
  [[nodiscard]] dataplane::BorderRouter& border(const std::string& name);
  [[nodiscard]] std::vector<std::string> edge_names() const;
  [[nodiscard]] std::vector<std::string> border_names() const;

  /// Where an endpoint is currently attached (edge name), if anywhere.
  [[nodiscard]] std::optional<std::string> location_of(const net::MacAddress& mac) const;

  /// Data frames sent into the underlay that have not arrived yet (slots
  /// held in the frame slab). 0 whenever the simulator has quiesced.
  [[nodiscard]] std::size_t frames_in_flight() const { return frames_.live(); }
  /// Map-Requests (from edges and the L2 gateway) not yet finished: slots
  /// held in the control slab from the send until the Map-Reply arrives,
  /// or until the request or reply is lost, swallowed by an offline
  /// server, or shed. 0 whenever the simulator has quiesced.
  [[nodiscard]] std::size_t control_in_flight() const { return controls_.live(); }

  void set_delivery_listener(DeliveryListener listener) {
    delivery_listener_ = std::move(listener);
  }
  void set_border_sync_listener(BorderSyncListener listener) {
    border_sync_listener_ = std::move(listener);
  }
  void set_peer_sync_listener(PeerSyncListener listener) {
    peer_sync_listener_ = std::move(listener);
  }

  [[nodiscard]] const FabricConfig& config() const { return config_; }

  // --- Telemetry (PR 3 observability) --------------------------------------

  /// The fabric-wide telemetry bundle. The metrics registry is populated at
  /// finalize() with every subsystem's counters under hierarchical names
  /// ("edge[i].map_cache.miss", "map_server.requests", ...); the flight
  /// recorder collects control-plane events; the causal tracer holds the
  /// open and completed operations, armed first packets among them.
  [[nodiscard]] telemetry::Telemetry& telemetry() { return telemetry_; }
  [[nodiscard]] const telemetry::Telemetry& telemetry() const { return telemetry_; }
  [[nodiscard]] telemetry::MetricsRegistry& metrics() { return telemetry_.metrics; }
  [[nodiscard]] telemetry::FlightRecorder& flight_recorder() { return telemetry_.recorder; }

  /// Arms a one-shot FirstPacket operation for the next packet of (source
  /// -> destination EID), traced whether or not causal_tracing is on; it
  /// completes into telemetry().causal.completed(). Returns the trace id.
  std::uint64_t trace_flow(const net::VnEid& source, const net::VnEid& destination);

 private:
  /// Edge index of an endpoint that is attached nowhere.
  static constexpr std::uint32_t kDetached = UINT32_MAX;

  struct EndpointState {
    EndpointDefinition definition;
    std::uint32_t edge = kDetached;  // index into edges_
    dataplane::VrfSet::Slot slot = 0;  // the edge's record of it, while attached
    dataplane::PortId port = 0;
    bool onboarding = false;
  };

  /// The node behind an RLOC the fabric handed out: its underlay node and,
  /// for an edge or border, the router (index kDetached for a plain
  /// underlay node).
  struct RlocOwner {
    net::Ipv4Address rloc;
    bool border = false;
    telemetry::NodeRef recorder_ref = 0;  // the router's interned name
    std::uint32_t index = kDetached;  // into borders_ or edges_
    underlay::NodeId node = underlay::kInvalidNode;
  };
  /// Adds `name` to the underlay at a fresh RLOC owned as `owner` says.
  RlocOwner add_fabric_node(const std::string& name, RlocOwner owner);
  /// The owner of `rloc`, or nullptr for an address the fabric never
  /// handed out. One indexed load: no hashing.
  [[nodiscard]] const RlocOwner* owner_of(net::Ipv4Address rloc) const;

  static constexpr std::uint32_t kNoEndpoint = lisp::FlatIndex<net::MacAddress>::kNone;
  /// The index of `mac`'s record in endpoints_, or kNoEndpoint if the MAC
  /// was never provisioned.
  [[nodiscard]] std::uint32_t endpoint_index(const net::MacAddress& mac) const {
    return endpoint_by_mac_.find(mac, [this](std::uint32_t i) -> const net::MacAddress& {
      return endpoints_[i].definition.mac;
    });
  }

  /// The edge whose RLOC is `rloc`, if it is an edge's.
  [[nodiscard]] std::optional<std::uint32_t> edge_at(net::Ipv4Address rloc) const;

  /// The edge hosting `mac` and its attachment there, reached through the
  /// recorded slot; the attachment is nullptr when the MAC is unknown or
  /// attached nowhere (the send calls' shared preamble).
  [[nodiscard]] std::pair<dataplane::EdgeRouter*, const dataplane::AttachedEndpoint*> sender_of(
      const net::MacAddress& mac);

  void wire_edge(dataplane::EdgeRouter& edge);
  void wire_border(dataplane::BorderRouter& border);

  /// Registers every subsystem's counters into the metrics registry and
  /// attaches tracers; called once from finalize() when config_.telemetry.
  void register_telemetry();

  /// Registers the default fabric invariants with the assurance engine
  /// (stale-epoch audit, divergence, parked/pending leaks, pub/sub gaps).
  void register_invariants();

  /// Records a flight-recorder event iff the recorder is enabled (callers
  /// should build detail strings only on the enabled path).
  void record_event(telemetry::EventKind kind, std::string_view node,
                    std::string_view detail = {});
  /// Same, by fields, for a node interned up front: nothing is formatted
  /// until the recorder is read.
  void record_event(telemetry::EventKind kind, telemetry::NodeRef node,
                    telemetry::DetailForm form, const net::VnEid& eid,
                    net::Ipv4Address rloc = {}, std::uint64_t number = 0,
                    std::string_view name = {});
  /// The recorder ref of the edge or border at `rloc`.
  [[nodiscard]] telemetry::NodeRef recorder_ref(net::Ipv4Address rloc) const {
    return owner_of(rloc)->recorder_ref;
  }

  /// Underlay control-plane delivery: edge/border RLOC -> action at dest.
  /// Returns false when the underlay dropped the message at send time
  /// (unreachable, or lost to a fault); the action then never runs.
  bool control_send(net::Ipv4Address from, net::Ipv4Address to, std::size_t bytes,
                    sim::InlineAction action);

  /// One Map-Request in flight and, once answered, its Map-Reply. Each leg
  /// (edge -> server, server job, server -> edge) carries only the slot
  /// number, so none of them allocates.
  struct ControlSlot {
    lisp::MapRequest request;
    lisp::MapReply reply;  // keeps its locator capacity across uses
    std::uint32_t server = 0;          // index into server_nodes_
    std::uint32_t edge = kDetached;    // requesting edge; kDetached = L2 gateway
    net::Ipv4Address requester;        // where the reply goes
    std::uint64_t trace = 0;           // causal operation the request serves
    std::uint64_t span = 0;            // open causal span of the current leg
    /// The L2 gateway's MAC lookup answers this instead of an edge.
    std::function<void(std::optional<net::Ipv4Address>)> l2_done;
  };
  void release_control(std::uint32_t slot);
  /// An edge's Map-Request: takes a control slot and sends the first leg.
  void send_map_request(std::uint32_t edge_index, const lisp::MapRequest& request);
  /// Sends slot's Map-Request to its server; arrival submits the job.
  void send_request_leg(std::uint32_t slot);
  /// MapServerNode sinks: a job answered, or shed by bounded admission.
  void on_map_reply(std::uint32_t slot, const lisp::MapReply& reply);
  void on_request_shed(std::uint32_t slot, sim::Duration retry_after);
  /// The Map-Reply reached its requester.
  void on_map_reply_arrival(std::uint32_t slot);

  /// The underlay node owning `rloc`, or kInvalidNode (which the underlay
  /// treats as unreachable) for a foreign address.
  [[nodiscard]] underlay::NodeId node_of_rloc(net::Ipv4Address rloc) const;

  /// The routing server `edge_rloc`'s group should use right now: its home
  /// server, or — with HA failover on and the home declared down — the
  /// next live replica.
  [[nodiscard]] std::size_t active_server_index(net::Ipv4Address edge_rloc) const;

  /// Whether server `i` currently drives the pub/sub feed and acks
  /// reliable registrations: server 0 without election; with election on,
  /// any node that *believes* it leads (split-brain faithful — a deposed
  /// leader keeps publishing until it observes the newer term, and the
  /// epoch fence rejects its messages at the receivers).
  [[nodiscard]] bool is_feed_authority(std::size_t i) const;
  /// The election epoch server `i` stamps on its publishes, notifies, and
  /// snapshots (0 = unfenced, i.e. election disabled).
  [[nodiscard]] std::uint64_t control_epoch_of(std::size_t i) const;
  /// The cluster-consensus control-plane leader (0 without election).
  [[nodiscard]] std::size_t control_leader() const;
  /// HaMonitor leader-change hook: re-homes every border feed onto the new
  /// leader (snapshot resync) and advertises the new epoch to every edge.
  void on_leader_changed(std::size_t leader, std::uint64_t epoch);

  /// The shared Fig. 3 onboarding flow. `fast_reauth` selects the roaming
  /// round-trip count. A nonzero `move_trace` is the causal move operation
  /// opened by roam_endpoint(); once the address is known it is indexed by
  /// EID so the mobility Map-Notify can close it.
  /// `endpoint` indexes endpoints_; the flow's closures hold the index,
  /// not a reference, since provisioning may grow the table meanwhile.
  void onboard(std::uint32_t endpoint, std::uint32_t edge_index, dataplane::PortId port,
               bool fast_reauth, OnboardCallback callback, std::uint64_t move_trace = 0);

  /// Reserves policy-server CPU; returns when the work completes.
  sim::SimTime reserve_policy_cpu(sim::Duration service);

  /// Sends an encapsulated frame across the underlay. The frame waits in
  /// a slab slot, so the arrival closure captures only [this, slot].
  void dispatch_fabric_frame(const net::FabricFrame& frame);
  /// Moves the frame out of `slot` and frees the slot.
  [[nodiscard]] net::FabricFrame release_frame(std::uint32_t slot);

  sim::Simulator& simulator_;
  FabricConfig config_;
  sim::Rng rng_;

  underlay::Topology topology_;
  std::unique_ptr<underlay::UnderlayNetwork> underlay_;

  lisp::MapServer map_server_;
  /// Additional replica databases (index i backs server node i+1).
  std::vector<std::unique_ptr<lisp::MapServer>> replica_dbs_;
  /// Queueing front ends; node 0 serves the primary database.
  std::vector<std::unique_ptr<lisp::MapServerNode>> server_nodes_;
  std::vector<telemetry::NodeRef> server_refs_;  // recorder refs, by server
  /// Health tracking / failover / anti-entropy (nullptr when disabled).
  std::unique_ptr<HaMonitor> ha_;
  net::Ipv4Address map_server_rloc_;  // where the primary routing server lives
  policy::PolicyServer policy_server_;
  net::Ipv4Address policy_server_rloc_;
  std::vector<sim::SimTime> policy_cpu_free_;  // auth worker availability
  l2::DhcpServer dhcp_;
  l2::ServiceRegistry services_;  // co-located with the routing server
  std::unordered_map<std::uint32_t, net::Ipv6Prefix> slaac_prefixes_;  // by VN

  std::unordered_map<std::string, underlay::NodeId> nodes_by_name_;
  /// Routers in creation order, addressed by dense index; names map to
  /// indices only at the API boundary.
  std::vector<std::unique_ptr<dataplane::EdgeRouter>> edges_;
  std::vector<std::unique_ptr<dataplane::BorderRouter>> borders_;
  std::unordered_map<std::string, std::uint32_t> edge_index_;
  std::unordered_map<std::string, std::uint32_t> border_index_;
  /// Indexed by the RLOC's 16-bit suffix, which the fabric hands out in
  /// sequence from 1 (so the table is dense).
  std::vector<RlocOwner> rloc_owner_;
  /// In-flight data frames.
  sim::Slab<net::FabricFrame> frames_;
  /// In-flight Map-Requests/Replies, plus the reply handed to the
  /// requesting edge (swapped out of its slot so the slab may grow while
  /// the edge reacts).
  sim::Slab<ControlSlot> controls_;
  lisp::MapReply arrived_reply_;
  /// Pub/sub feed session state per border (Fig. 1 "sync" hardening).
  struct BorderFeedState {
    bool connected = true;
    std::uint64_t dropped_publishes = 0;
  };
  std::unordered_map<std::string, BorderFeedState> border_feeds_;
  std::uint64_t publish_seq_ = 0;  // sequence stamped on the last publish
  std::uint64_t stale_acks_accepted_ = 0;  // epoch-fence audit (must stay 0)
  std::unique_ptr<l2::L2Gateway> l2_gateway_;

  /// One dense record per provisioned endpoint (never unprovisioned), with
  /// a flat MAC index: the sender lookup on every packet is one probe.
  std::vector<EndpointState> endpoints_;
  lisp::FlatIndex<net::MacAddress> endpoint_by_mac_;
  /// Serves the credential-keyed calls only (index into endpoints_).
  std::unordered_map<std::string, std::uint32_t> endpoint_by_credential_;
  /// Onboard callbacks waiting for an EID's Map-Register to complete.
  std::unordered_map<net::VnEid, std::vector<std::function<void()>>> pending_onboards_;

  std::uint32_t next_rloc_suffix_ = 1;
  bool finalized_ = false;

  telemetry::Telemetry telemetry_;
  /// Flows whose first packet trace_first_packets armed: (source, destination).
  struct FlowHash {
    std::size_t operator()(const std::pair<net::VnEid, net::VnEid>& flow) const noexcept {
      return net::hash_combine(std::hash<net::VnEid>{}(flow.first),
                               std::hash<net::VnEid>{}(flow.second));
    }
  };
  std::unordered_set<std::pair<net::VnEid, net::VnEid>, FlowHash> traced_flows_;
  /// First-packet latency (microseconds), fed by delivered FirstPacket
  /// operations (trace_flow, or config_.trace_first_packets).
  telemetry::LatencyHistogram* first_packet_us_ = nullptr;
  /// Onboarding / roaming latency (milliseconds), fed by the Map-Register
  /// completion waiters.
  telemetry::LatencyHistogram* onboard_ms_ = nullptr;
  telemetry::LatencyHistogram* roam_ms_ = nullptr;
  /// Assurance plane (PR 8): operation-level convergence histograms fed by
  /// the causal tracer's completion callback (all in microseconds).
  telemetry::LatencyHistogram* register_rtt_us_ = nullptr;
  telemetry::LatencyHistogram* move_convergence_us_ = nullptr;
  telemetry::LatencyHistogram* failover_rehome_us_ = nullptr;
  telemetry::LatencyHistogram* smr_fanout_us_ = nullptr;
  telemetry::LatencyHistogram* catchup_convergence_us_ = nullptr;
  /// Open replica catch-up operations (PR 9), keyed by replica index:
  /// opened when a digest lag is first seen, finished when digests agree.
  std::unordered_map<std::size_t, std::uint64_t> catchup_trace_by_replica_;
  /// Open move operations keyed by the roaming endpoint's IP EID: indexed
  /// when the roam attaches, consumed (finished) when the *old* edge
  /// applies the mobility Map-Notify.
  std::unordered_map<net::VnEid, std::uint64_t> move_trace_by_eid_;
  /// The failover re-home operation in flight (0 = none) and the borders
  /// whose snapshot is still outstanding under it.
  std::uint64_t rehome_trace_ = 0;
  std::unordered_set<std::string> rehome_pending_;

  DeliveryListener delivery_listener_;
  BorderSyncListener border_sync_listener_;
  PeerSyncListener peer_sync_listener_;
};

}  // namespace sda::fabric
