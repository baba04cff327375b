// Declarative fabric configuration: the operator-facing northbound of Fig. 1.
//
// Operators declare VNs, groups, the connectivity matrix, and endpoint
// identities; everything else (addressing, route state, rule placement) is
// derived by the fabric.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dataplane/sgacl.hpp"
#include "lisp/map_server_node.hpp"
#include "net/prefix.hpp"
#include "net/types.hpp"
#include "policy/matrix.hpp"
#include "sim/time.hpp"
#include "underlay/network.hpp"

namespace sda::fabric {

/// Onboarding / control-plane timing model (paper Fig. 3 flow).
struct FabricTimings {
  /// Edge detects a newly connected endpoint on a port.
  sim::Duration detection = std::chrono::milliseconds{2};
  /// Policy-server CPU per authentication round.
  sim::Duration auth_processing = std::chrono::milliseconds{2};
  /// Policy-server CPU to assemble a destination-group rule download.
  sim::Duration rule_download_processing = std::chrono::microseconds{500};
  /// Policy-server CPU capacity: authentication work queues on this many
  /// workers, so onboarding storms (mass arrivals, §Conclusion's "large
  /// gatherings") exhibit realistic queueing delay.
  unsigned policy_workers = 8;
};

/// RADIUS/EAP round trips for a fresh authentication, and for a fast
/// re-authentication while roaming (cached keys).
inline constexpr unsigned kAuthRoundTrips = 2;
inline constexpr unsigned kRoamAuthRoundTrips = 1;

/// Control-plane high-availability knobs (PR 4). All mechanisms default
/// off so single-server fabrics and existing experiments are unchanged.
struct HaConfig {
  /// Enable heartbeat-driven server health tracking and failover: each
  /// server group's lead edge probes its assigned routing server, and when
  /// the server is declared down the group's Map-Requests and reliable-
  /// register acks ride a live replica until fail-back. The heartbeat
  /// timer keeps the event queue non-empty — drive such simulations with
  /// run_until(), not run().
  bool failover = false;
  sim::Duration heartbeat_interval = std::chrono::milliseconds{200};
  /// A heartbeat unanswered for this long counts as a miss. It must exceed
  /// the control-plane round trip to the server and not heartbeat_interval.
  sim::Duration heartbeat_timeout = std::chrono::milliseconds{100};
  /// Consecutive misses before the server is declared down.
  unsigned down_after_misses = 3;
  /// Consecutive answered heartbeats before a down server is trusted again
  /// (fail-back hysteresis: one lucky ack must not flap traffic back).
  unsigned up_after_acks = 4;
  /// Periodic digest exchange between the primary and each replica
  /// database, reconciling registrations a replica missed during an
  /// outage window. 0 = disabled. Runs forever once armed: run_until().
  sim::Duration anti_entropy_interval{0};

  /// Leader election (PR 6): a bully-style election over the control legs
  /// with monotonically increasing epochs, so any live replica — not just
  /// server 0 — can assume the primary role: the anti-entropy driver, the
  /// Map-Notify acking authority, and the sequenced pub/sub feed. Epoch
  /// stamps on notifies, publishes, and digests fence out a deposed leader
  /// (split-brain). Requires >= 2 routing servers; the election timers run
  /// forever — drive such simulations with run_until().
  bool election = false;
  /// The leader asserts its term to every peer at this cadence.
  sim::Duration election_heartbeat_interval = std::chrono::milliseconds{100};
  /// Base follower watchdog: a replica that hears no leader assert for its
  /// (decorrelated-jittered, per-node) timeout opens a new term. Must be a
  /// few multiples of election_heartbeat_interval.
  sim::Duration election_timeout = std::chrono::milliseconds{400};
  /// How long a candidate waits for a lower-index live peer to object to
  /// its claim before declaring itself leader.
  sim::Duration election_claim_timeout = std::chrono::milliseconds{60};
  /// Quorum-aware elections (partition safety): a candidate must collect
  /// acks from a strict majority of the *configured* replicas before it
  /// may assert leadership. A minority partition therefore stalls
  /// leaderless (edges ride the existing retransmit/parking valves)
  /// instead of electing a split-brain leader. Requires >= 3 replicas to
  /// survive a single failure (majority of 2 is 2).
  bool election_quorum = false;
  /// Log-style catch-up: every replica database keeps a bounded sequenced
  /// ring of its recent mutations (registers, moves, tombstones). A
  /// rejoining replica whose digest lags replays just the delta from the
  /// leader's log; only when the log horizon has passed does it fall back
  /// to the full snapshot reconcile. 0 = disabled (always snapshot).
  std::size_t catchup_log_capacity = 0;
  /// Election-aware admission shedding: a just-elected leader ramps its
  /// admission limit from a quarter of the configured value back to full
  /// over this window, shedding the post-election re-registration
  /// stampede with retry-after instead of queueing it. 0 = no ramp.
  /// Only meaningful with a bounded `map_server.admission_limit`.
  sim::Duration post_election_ramp{0};

  /// BGP-style hold-down flap dampening: each up/down transition adds
  /// `dampening_penalty` to the server's penalty, which decays
  /// exponentially with `dampening_half_life`. At or above
  /// `dampening_suppress` the server is suppressed — excluded from
  /// active_server_for() and from election — until the penalty decays
  /// below `dampening_reuse`. Kills failover/failback churn from a server
  /// oscillating at the miss/ack boundary.
  bool dampening = false;
  double dampening_penalty = 1000.0;
  double dampening_suppress = 1500.0;
  double dampening_reuse = 500.0;
  sim::Duration dampening_half_life = std::chrono::seconds{4};
};

struct FabricConfig {
  FabricTimings timings;
  /// Edge map-cache capacity (0 = unbounded; small values model small FIBs).
  std::size_t edge_map_cache_capacity = 0;
  /// Enable LISP RLOC probing on edges (§5.1's explicit-probing alternative
  /// to IGP watching). The probe timer keeps the event queue non-empty
  /// while positive cache entries exist — drive such simulations with
  /// run_until(), not run().
  bool rloc_probing = false;
  sim::Duration probe_interval = std::chrono::seconds{10};
  /// §3.2.2 ablation: disable the border default route so cache misses
  /// drop packets until resolution completes (classic LISP behaviour).
  bool default_route_fallback = true;
  /// TTL requested in Map-Registers (the paper's default is 1440 minutes).
  std::uint32_t register_ttl_seconds = 1440 * 60;
  /// Control-plane hardening: retransmission with decorrelated-jitter
  /// backoff for Map-Requests, and reliable Map-Register (retransmit until
  /// the Map-Notify ack) so registrations survive lossy control paths and
  /// map-server outage windows.
  unsigned map_request_retries = 3;
  unsigned map_register_retries = 8;
  /// Periodic soft-state re-registration of attached endpoints (keeps
  /// registrations alive across MapServer::expire_registrations sweeps).
  /// 0 = disabled; real xTRs refresh well inside the TTL.
  sim::Duration register_refresh_interval{0};
  /// §5.3 ablation: enforce group policy on ingress instead of egress.
  bool enforce_on_ingress = false;
  /// Enable per-edge L2 gateways (ARP unicast conversion, §3.5).
  bool l2_gateway = true;
  /// Routing-server front-end sizing (workers, service times).
  lisp::MapServerNodeConfig map_server;
  /// Horizontal scale-out (§4.1): edges are grouped and each group sends
  /// Map-Requests to its own routing server; Map-Registers fan out to all
  /// servers so every replica stays complete.
  unsigned routing_servers = 1;
  /// Control-plane high availability: heartbeat failover and replica
  /// anti-entropy (PR 4). Defaults entirely off.
  HaConfig ha;
  /// Without the border default route, park up to this many frames per
  /// unresolved EID on the edge instead of dropping them (Map-Request
  /// coalescing: one in-flight resolution, a bounded pending queue).
  /// 0 = classic drop-until-resolved.
  std::size_t pending_packet_limit = 0;
  /// What traffic gets while a destination group's SGACL rules have not
  /// downloaded (policy-server outage): Open = fall through to the VN
  /// default (availability), Closed = deny until rules arrive (security).
  dataplane::PolicyFailMode policy_fail_mode = dataplane::PolicyFailMode::Open;
  /// Retry cadence for rule downloads the policy server refused. 0 = never.
  sim::Duration rule_retry_interval = std::chrono::seconds{1};
  /// Underlay IGP convergence after a topology change (§5.1).
  underlay::UnderlayConfig underlay;
  /// Per-VN default action for micro-segmentation.
  policy::Action default_action = policy::Action::Allow;
  /// Deterministic seed for all fabric-internal randomness.
  std::uint64_t seed = 42;
  /// Debug validation: serialize every data-plane frame to real wire bytes
  /// and decode it back, asserting equality — keeps the structured packet
  /// model honest with the VXLAN-GPO wire format. Costly; tests only.
  bool validate_wire_format = false;
  /// Observability: own a telemetry::Telemetry (metrics registry + flight
  /// recorder + causal tracer) and register every subsystem's counters into
  /// it at finalize(). The registry uses pull probes, so leaving this on
  /// costs nothing on the hot path — snapshots sample on demand.
  bool telemetry = true;
  /// Opt-in first-packet tracing: arm a FirstPacket operation of the
  /// causal tracer for the first packet of every new (source, destination)
  /// flow sent via endpoint_send_udp, so first-packet latency decomposes
  /// hop by hop. Independent of causal_tracing. Off by default — tracing
  /// touches the data path for armed flows only, but arming every flow has
  /// bookkeeping cost.
  bool trace_first_packets = false;
  /// Assurance plane (PR 8): thread causal trace ids through the LISP
  /// control messages and build a span tree per control-plane operation
  /// (registration, move, SMR fan-out, failover re-home), feeding the
  /// assurance.* convergence histograms. Off by default: disabled tracing
  /// costs one predictable branch per control hook and leaves the wire
  /// format byte-identical (the trace id is a trailing optional field).
  bool causal_tracing = false;
  /// Debug/chaos knob: artificial delay inserted before each SMR leaves
  /// the old edge. Used by the assurance gate to inject a demonstrable
  /// smr_fanout SLO breach; leave at 0 for faithful behaviour.
  sim::Duration smr_debug_delay{0};
};

/// Declarative VN definition.
struct VnDefinition {
  net::VnId id;
  std::string name;
  net::Ipv4Prefix dhcp_pool;
  /// When set, endpoints also get a SLAAC IPv6 identity from this /64 and
  /// register it as a third route (paper §4.1).
  std::optional<net::Ipv6Prefix> slaac_prefix;
};

struct GroupDefinition {
  net::GroupId id;
  std::string name;
};

struct RuleDefinition {
  net::VnId vn;
  net::GroupId source;
  net::GroupId destination;
  policy::Action action = policy::Action::Deny;
};

struct EndpointDefinition {
  std::string credential;
  std::string secret;
  net::MacAddress mac;
  net::VnId vn;
  net::GroupId group;
  bool l2_services = false;  // also register the MAC EID (§3.5)
  /// Access VLAN assigned to the endpoint's port (validated/stripped at
  /// ingress, re-applied at egress; never stretched across the fabric).
  std::optional<std::uint16_t> access_vlan;
};

}  // namespace sda::fabric
