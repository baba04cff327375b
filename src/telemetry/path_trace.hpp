// Packet path tracing: opt-in hop-by-hop transit records.
//
// A trace is armed for one (vn, source EID, destination EID) flow; the
// next matching frame seen at an ingress point opens a PacketTrace, and
// every instrumented stage it passes through (edge encap, underlay
// transit, border hairpin, edge decap, SGACL verdict, local delivery)
// appends a timestamped hop. Terminal hops (delivery, a policy drop, an
// exit to an external network) complete the trace, which makes first-packet
// latency decomposable: the total is the sum of visible per-stage deltas.
//
// The data plane tests idle() before calling a hook or building any of its
// arguments, so compiled-in-but-idle tracing costs one branch per hook.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/eid.hpp"
#include "net/packet.hpp"
#include "sim/time.hpp"

namespace sda::telemetry {

enum class HopKind : std::uint8_t {
  Ingress,       // frame entered the fabric at an edge port
  LocalSwitch,   // source and destination on the same edge
  Encap,         // VXLAN-GPO encap towards a resolved RLOC
  DefaultRoute,  // map-cache miss: encap to the border default route
  Transit,       // arrived at the outer destination across the underlay
  Hairpin,       // border re-encapsulated default-routed traffic
  Decap,         // egress router decapsulated the frame
  StaleForward,  // old edge forwarded after a move (Fig. 6 step 3)
  SgaclPermit,   // group policy evaluated: permitted
  SgaclDeny,     // group policy evaluated: dropped (terminal)
  Deliver,       // handed to the destination endpoint (terminal)
  ExternalOut,   // left the fabric towards an external network (terminal)
  Drop,          // any other drop: TTL, no route, underlay loss (terminal)
};

[[nodiscard]] const char* hop_kind_name(HopKind kind);
[[nodiscard]] bool hop_is_terminal(HopKind kind);

struct TraceHop {
  sim::SimTime at;
  HopKind kind = HopKind::Ingress;
  std::string node;
  std::string detail;
};

struct PacketTrace {
  std::uint64_t id = 0;
  net::VnEid source;
  net::VnEid destination;
  sim::SimTime started;
  bool done = false;
  bool delivered = false;  // Deliver/ExternalOut vs SgaclDeny/Drop/abandoned

  std::vector<TraceHop> hops;

  /// Ingress -> last hop (total decomposable latency so far).
  [[nodiscard]] sim::Duration latency() const {
    return hops.empty() ? sim::Duration{0} : hops.back().at - started;
  }

  /// Multi-line rendering with per-hop time deltas.
  [[nodiscard]] std::string to_string() const;
};

class PathTracer {
 public:
  using CompletionCallback = std::function<void(const PacketTrace&)>;

  explicit PathTracer(std::size_t keep_completed = 256);

  /// Arms a one-shot trace for the next `source -> destination` frame seen
  /// at an ingress point. Re-arming the same flow replaces the pending
  /// trace. Returns the trace id.
  std::uint64_t arm(const net::VnEid& source, const net::VnEid& destination);

  /// Fires whenever a trace completes (after the terminal hop is appended).
  void set_completion_callback(CompletionCallback cb) { on_complete_ = std::move(cb); }

  /// True when no armed or open traces exist — the data plane's fast path.
  [[nodiscard]] bool idle() const { return armed_.empty() && open_.empty(); }

  // --- Data-plane hooks ----------------------------------------------------

  /// Ingress point: opens an armed trace if the frame matches (and then
  /// records the Ingress hop). Non-IP frames never match.
  void ingress(net::VnId vn, const net::OverlayFrame& frame, const std::string& node,
               sim::SimTime now);

  /// Appends a hop to the open trace for this frame's flow, if any.
  /// Terminal kinds complete the trace.
  void note(net::VnId vn, const net::OverlayFrame& frame, HopKind kind, const std::string& node,
            sim::SimTime now, std::string_view detail = {});

  // --- Introspection -------------------------------------------------------

  [[nodiscard]] std::size_t armed_count() const { return armed_.size(); }
  [[nodiscard]] std::size_t open_count() const { return open_.size(); }
  /// Completed traces, oldest first (bounded; older ones are dropped).
  [[nodiscard]] const std::vector<PacketTrace>& completed() const { return completed_; }
  /// Traces abandoned because their flow was re-armed or re-ingressed
  /// while still open (e.g. the packet died silently in transit).
  [[nodiscard]] std::uint64_t abandoned() const { return abandoned_; }
  [[nodiscard]] const PacketTrace* find_completed(std::uint64_t id) const;

  void clear();

 private:
  struct FlowKey {
    net::VnEid source;
    net::VnEid destination;
    friend bool operator==(const FlowKey&, const FlowKey&) = default;
  };
  struct FlowKeyHash {
    std::size_t operator()(const FlowKey& k) const noexcept {
      return std::hash<net::VnEid>{}(k.source) ^ (std::hash<net::VnEid>{}(k.destination) << 1);
    }
  };

  /// The flow key of an IP frame, or nullopt for ARP and other non-IP.
  [[nodiscard]] static std::optional<FlowKey> key_of(net::VnId vn,
                                                     const net::OverlayFrame& frame);

  void complete(FlowKey key, PacketTrace trace, bool delivered);

  std::size_t keep_completed_;
  std::uint64_t next_id_ = 1;
  std::uint64_t abandoned_ = 0;
  std::unordered_map<FlowKey, std::uint64_t, FlowKeyHash> armed_;  // flow -> trace id
  std::unordered_map<FlowKey, PacketTrace, FlowKeyHash> open_;
  std::vector<PacketTrace> completed_;
  CompletionCallback on_complete_;
};

}  // namespace sda::telemetry
