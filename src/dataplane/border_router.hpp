// The SDA border router.
//
// Performs the edge functions plus two differences (paper §3.3): its FIB is
// pub/sub-synchronized with the routing server instead of reactive, and it
// holds routes to external networks. It owns the fabric default route, so
// it absorbs and hairpins the traffic edges send during map-cache misses
// (§3.2.2) — which is why the paper provisions it with a larger FIB and CPU.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dataplane/sgacl.hpp"
#include "lisp/flat_index.hpp"
#include "lisp/map_server.hpp"
#include "lisp/messages.hpp"
#include "net/packet.hpp"
#include "net/prefix.hpp"
#include "sim/simulator.hpp"
#include "telemetry/causal_trace.hpp"
#include "trie/patricia.hpp"
#include "underlay/topology.hpp"

namespace sda::telemetry {
class MetricsRegistry;
}

namespace sda::dataplane {

struct BorderRouterConfig {
  std::string name;
  net::Ipv4Address rloc;
  underlay::NodeId node = 0;
  policy::Action default_action = policy::Action::Allow;
  /// How long to wait for a requested snapshot before re-requesting it
  /// (the snapshot itself can be lost to control-plane faults).
  sim::Duration resync_retry = std::chrono::seconds{2};
};

class BorderRouter {
 public:
  using SendData = std::function<void(const net::FabricFrame&)>;
  /// Delivery of traffic leaving the fabric (Internet / data center).
  using DeliverExternal = std::function<void(const net::VnEid& destination,
                                             const net::OverlayFrame&)>;
  /// Asks the routing server for a full-state snapshot (re-subscribe).
  using RequestResync = std::function<void()>;

  BorderRouter(sim::Simulator& simulator, BorderRouterConfig config);

  void set_send_data(SendData fn) { send_data_ = std::move(fn); }
  void set_deliver_external(DeliverExternal fn) { deliver_external_ = std::move(fn); }
  void set_request_resync(RequestResync fn) { request_resync_ = std::move(fn); }

  [[nodiscard]] const BorderRouterConfig& config() const { return config_; }
  [[nodiscard]] net::Ipv4Address rloc() const { return config_.rloc; }
  [[nodiscard]] const std::string& name() const { return config_.name; }

  // --- Pub/sub FIB synchronization (Fig. 1 "sync" arrow) ------------------

  /// Applies one published update (install or withdrawal). Sequenced
  /// publishes (seq != 0) are gap-checked: a missing update means the feed
  /// lost a message, so the update is discarded and a snapshot resync is
  /// requested instead of silently diverging from the server. Epoch-stamped
  /// publishes (epoch != 0) are additionally fenced: a stale epoch is
  /// rejected (returns false), a newer one re-homes the feed (snapshot pull
  /// from the new leader).
  bool receive_publish(const lisp::Publish& publish);

  /// Full-table bootstrap when (re)subscribing to the routing server.
  void bootstrap_sync(const lisp::MapServer& server);

  /// Applies a full-state snapshot captured at feed position `next_seq`
  /// (the sequence number the *next* publish will carry). Replaces the
  /// synced table wholesale and re-arms in-order delivery from there.
  /// `epoch` (when nonzero) advances the feed's split-brain fence to the
  /// snapshotting leader's term.
  void apply_snapshot(const std::vector<std::pair<net::VnEid, lisp::MappingRecord>>& entries,
                      std::uint64_t next_seq, std::uint64_t epoch = 0);

  /// Triggers the resync protocol (gap detected, or an operator-driven
  /// reconnect after a feed outage). Retries until a snapshot applies.
  void request_resync();

  /// True while a requested snapshot has not yet been applied.
  [[nodiscard]] bool resync_in_flight() const { return resync_in_flight_; }

  /// The feed sequence number expected on the next publish.
  [[nodiscard]] std::uint64_t next_expected_seq() const { return next_publish_seq_; }

  /// Highest election epoch observed on the feed (0 until elections run).
  [[nodiscard]] std::uint64_t feed_epoch() const { return feed_epoch_; }

  /// The synchronized mapping of `eid`, or nullptr (for entry-by-entry
  /// verification in tests; fib_size() counts the entries).
  [[nodiscard]] const lisp::MappingRecord* synced(const net::VnEid& eid) const {
    return synced_.find(eid);
  }

  // --- External connectivity ----------------------------------------------

  /// Declares an external destination prefix (e.g. 0.0.0.0/0 = Internet)
  /// optionally classified into a group for egress policy at the border.
  void add_external_prefix(net::VnId vn, const net::Ipv4Prefix& prefix,
                           net::GroupId group = net::GroupId::unknown());
  void add_external_prefix(net::VnId vn, const net::Ipv6Prefix& prefix,
                           net::GroupId group = net::GroupId::unknown());

  /// Injects a packet arriving *from* an external network toward an overlay
  /// destination; the border encapsulates it to the serving edge.
  void external_receive(net::VnId vn, net::GroupId source_group,
                        const net::OverlayFrame& frame);

  // --- Service insertion (§5.4) -------------------------------------------
  // Operators can rewrite the group tag of traffic passing through this
  // router so that downstream devices in a service chain apply different
  // policies — "instead of applying different policies across the path for
  // the same group, they change the group along the way".

  /// Rewrites `from` -> `to` for traffic in `vn` transiting this border.
  void add_group_rewrite(net::VnId vn, net::GroupId from, net::GroupId to);
  /// Removes a rewrite; true if present.
  bool remove_group_rewrite(net::VnId vn, net::GroupId from);

  // --- Data plane ----------------------------------------------------------

  void receive_fabric_frame(const net::FabricFrame& frame);

  // --- Introspection -------------------------------------------------------

  /// Synchronized overlay mappings (the Fig. 9 border FIB metric).
  [[nodiscard]] std::size_t fib_size() const { return synced_.size(); }

  [[nodiscard]] Sgacl& sgacl() { return sgacl_; }

  struct Counters {
    std::uint64_t publishes_applied = 0;
    std::uint64_t withdrawals_applied = 0;
    std::uint64_t out_of_sequence = 0;   // feed gaps detected
    std::uint64_t resyncs_requested = 0;  // snapshot pulls issued (incl. retries)
    std::uint64_t snapshots_applied = 0;
    std::uint64_t hairpinned = 0;         // default-routed traffic re-encapped
    std::uint64_t external_out = 0;       // fabric -> external
    std::uint64_t external_in = 0;        // external -> fabric
    std::uint64_t policy_drops = 0;
    std::uint64_t no_route_drops = 0;
    std::uint64_t ttl_drops = 0;
    std::uint64_t group_rewrites = 0;  // service-insertion tag changes (§5.4)
    std::uint64_t stale_epoch_rejected = 0;  // feed pushes fenced (split-brain)
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  /// Registers pull probes for every counter under `prefix` (e.g.
  /// "border[0]") plus the embedded SGACL ("<prefix>.sgacl"). Probes
  /// capture `this`.
  void register_metrics(telemetry::MetricsRegistry& registry, const std::string& prefix) const;

  /// Attaches the tracer whose armed flows this border's hooks record
  /// (nullptr detaches); while no flow is armed or in flight every hook is
  /// one inline branch and builds nothing.
  void set_tracer(telemetry::CausalTracer* tracer) { tracer_ = tracer; }

 private:
  /// Tracer hooks: one inline branch while no flow is armed or in flight,
  /// taken before any argument is built.
  [[nodiscard]] bool tracing() const { return tracer_ != nullptr && tracer_->tracing_flows(); }
  void trace_hop(net::VnId vn, const net::OverlayFrame& frame, const char* hop) {
    if (tracing()) tracer_->hop(vn, frame, hop, config_.name, simulator_.now());
  }

  struct ExternalRoute {
    net::GroupId group;
  };

  void encap_to(net::Ipv4Address rloc, net::VnId vn, net::GroupId source_group,
                bool policy_applied, const net::OverlayFrame& frame);

  /// Looks up an external route covering `destination` in the VN.
  [[nodiscard]] const ExternalRoute* external_route(const net::VnEid& destination) const;

  /// Applies any configured service-insertion rewrite to `group`.
  [[nodiscard]] net::GroupId rewritten_group(net::VnId vn, net::GroupId group);

  sim::Simulator& simulator_;
  BorderRouterConfig config_;
  SendData send_data_;
  DeliverExternal deliver_external_;
  RequestResync request_resync_;

  /// The pub/sub-synced FIB: one flat probe per hairpinned frame.
  lisp::FlatMap<net::VnEid, lisp::MappingRecord, net::VnEidHash> synced_;
  std::uint64_t next_publish_seq_ = 1;
  std::uint64_t feed_epoch_ = 0;  // split-brain fence for the pub/sub feed
  bool resync_in_flight_ = false;
  sim::EventHandle resync_timer_;
  std::unordered_map<std::uint32_t, trie::PatriciaTrie<ExternalRoute>> external_;     // by VN
  std::unordered_map<std::uint32_t, trie::PatriciaTrie<ExternalRoute>> external_v6_;  // by VN
  /// (vn << 16 | from-group) -> replacement group.
  std::unordered_map<std::uint64_t, net::GroupId> group_rewrites_;
  Sgacl sgacl_;
  Counters counters_;
  telemetry::CausalTracer* tracer_ = nullptr;
};

}  // namespace sda::dataplane
