// Underlay network facade: routing tables, packet transit, and the
// IGP-reachability monitoring that edge routers rely on (paper §5.1).
//
// Per-node SPF tables are recomputed lazily when the topology changes, each
// with a row of 8-byte legs. Delivery reads one leg and schedules an event
// after the path's latency plus per-hop processing and serialization delay.
//
// Reachability watching models the paper's "monitor the address
// announcements of the underlay routing protocol": after a topology
// mutation the IGP needs a convergence delay (failure detection + LSA
// flooding + SPF) before watchers hear about reachability transitions.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/ip_address.hpp"
#include "sim/inline_action.hpp"
#include "sim/simulator.hpp"
#include "underlay/spf.hpp"
#include "underlay/topology.hpp"

namespace sda::telemetry {
class MetricsRegistry;
}

namespace sda::underlay {

struct UnderlayConfig {
  /// Per-hop packet processing (lookup + queueing headroom).
  sim::Duration per_hop_processing = std::chrono::microseconds{5};
  /// IGP convergence after a topology change (detection + flood + SPF).
  sim::Duration igp_convergence = std::chrono::milliseconds{200};
  /// Per-byte serialization delay divisor: bytes / (gbps * this) — applied
  /// per hop using the slowest link's bandwidth on the path.
  bool model_serialization = true;
};

/// Coarse classification of a delivery, so fault models can treat the
/// control plane (Map-Requests, pub/sub, RADIUS) differently from
/// encapsulated endpoint traffic.
enum class TrafficClass : std::uint8_t { Data = 0, Control = 1 };

/// What a fault injector decided for one delivery.
struct FaultDecision {
  bool drop = false;
  sim::Duration extra_delay{0};
};

class UnderlayNetwork {
 public:
  using WatchCallback = std::function<void(net::Ipv4Address rloc, bool reachable)>;

  UnderlayNetwork(sim::Simulator& simulator, Topology& topology,
                  UnderlayConfig config = {});

  [[nodiscard]] Topology& topology() { return topology_; }
  [[nodiscard]] const Topology& topology() const { return topology_; }
  [[nodiscard]] sim::Simulator& simulator() { return simulator_; }

  /// The SPF table of `node`, recomputed if the topology changed.
  [[nodiscard]] const SpfTable& table(NodeId node);

  /// True if `node` can currently reach `rloc` (per its own SPF view).
  [[nodiscard]] bool reachable(NodeId node, net::Ipv4Address rloc);

  /// One-way transit delay from `from` to the node owning `to_rloc` for a
  /// flow with the given hash; nullopt when unreachable.
  [[nodiscard]] std::optional<sim::Duration> transit_delay(NodeId from, net::Ipv4Address to_rloc,
                                                           std::uint64_t flow_hash,
                                                           std::size_t bytes);

  /// Consulted once per deliver() after routing succeeds; may drop the
  /// packet or add jitter. `hops` is the path hop count so loss models can
  /// compound per-link probabilities.
  using FaultInjector = std::function<FaultDecision(NodeId from, NodeId to, std::size_t bytes,
                                                    std::uint32_t hops, TrafficClass cls)>;

  /// Delivers from node `from` to node `to` after the transit delay;
  /// returns false (and drops) when `to` is unreachable at send time (or
  /// not a node, e.g. kInvalidNode) or a fault injector drops the packet in
  /// transit. One leg of `from`'s delay row gives both the delay and the
  /// fault injector's hop count.
  bool deliver(NodeId from, NodeId to, std::size_t bytes, sim::InlineAction on_arrival,
               TrafficClass cls = TrafficClass::Data);

  /// Installs (or clears, with nullptr) the fault interposer.
  void set_fault_injector(FaultInjector injector) { fault_injector_ = std::move(injector); }

  /// Registers `node` as watching underlay reachability; `callback` fires
  /// (after IGP convergence) once per RLOC whose reachability flipped.
  void watch(NodeId node, WatchCallback callback);

  /// Must be called after mutating the topology. Schedules watcher
  /// notifications after the IGP convergence delay.
  void topology_changed();

  /// Total packets dropped at send time due to unreachability.
  [[nodiscard]] std::uint64_t unreachable_drops() const { return unreachable_drops_; }

  /// Total packets dropped in transit by the fault injector.
  [[nodiscard]] std::uint64_t fault_drops() const { return fault_drops_; }

  /// Registers pull probes for the drop counters under `prefix`
  /// (e.g. "underlay"). Probes capture `this`.
  void register_metrics(telemetry::MetricsRegistry& registry, const std::string& prefix) const;

 private:
  struct Watcher {
    NodeId node;
    WatchCallback callback;
    std::unordered_map<net::Ipv4Address, bool> last_view;
  };

  /// One destination from a sender: SPF latency plus per-hop processing
  /// (ns) << 16 | hop count (0 to itself); all ones when unreachable.
  using Leg = std::uint64_t;
  static constexpr Leg kUnreachable = ~Leg{0};
  /// A sender's SPF table and the delay row built with it.
  struct NodeRoutes {
    std::uint64_t version = 0;  // of the topology both were built at (from 1)
    std::vector<Leg> legs;      // by destination node
    SpfTable table;
  };
  /// `from`'s leg to `to`, rebuilding `from`'s routes if stale.
  [[nodiscard]] Leg leg(NodeId from, NodeId to);
  /// The delay a delivery of `bytes` over reachable `leg` takes.
  [[nodiscard]] sim::Duration delay(Leg leg, std::size_t bytes) const;

  void refresh(NodeId node);
  void notify_watchers();

  sim::Simulator& simulator_;
  Topology& topology_;
  UnderlayConfig config_;
  std::vector<NodeRoutes> routes_;  // by node
  std::vector<Watcher> watchers_;
  FaultInjector fault_injector_;
  std::uint64_t unreachable_drops_ = 0;
  std::uint64_t fault_drops_ = 0;
  bool notify_pending_ = false;
};

}  // namespace sda::underlay
