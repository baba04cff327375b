// Link-state routing protocol (IS-IS/OSPF mechanics, paper §3.3/§5.1).
//
// UnderlayNetwork models IGP convergence as a single configurable delay;
// this module implements the mechanism itself: every router originates a
// sequence-numbered LSP describing its live adjacencies, LSPs flood hop by
// hop (with per-hop processing delay), each router keeps its own LSDB, and
// each router's *view* of reachability is the SPF over its LSDB with the
// standard two-way connectivity check. Views therefore converge at
// different times after a change — nodes near the failure first — which is
// exactly what bounds the §5.1 fallback behaviour.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "sim/simulator.hpp"
#include "underlay/spf.hpp"
#include "underlay/topology.hpp"

namespace sda::telemetry {
class MetricsRegistry;
}

namespace sda::underlay {

/// A link-state PDU: one router's view of its own adjacencies.
struct Lsp {
  NodeId origin = kInvalidNode;
  std::uint64_t sequence = 0;
  bool origin_up = true;
  std::vector<std::pair<NodeId, std::uint32_t>> adjacencies;  // (neighbor, cost)

  friend bool operator==(const Lsp&, const Lsp&) = default;
};

class LinkStateProtocol {
 public:
  /// (node) — fired when `node`'s SPF view changes (after kSpfDelay).
  using ViewChangeCallback = std::function<void(NodeId)>;

  /// How long an adjacent router needs to declare a link/neighbor dead
  /// (hello dead-interval) or alive again.
  static constexpr sim::Duration kFailureDetection = std::chrono::milliseconds{300};
  /// Per-hop LSP processing + forwarding delay during flooding.
  static constexpr sim::Duration kLspProcessing = std::chrono::milliseconds{1};
  /// SPF schedule delay after a new LSP is installed (SPF damping).
  static constexpr sim::Duration kSpfDelay = std::chrono::milliseconds{50};

  LinkStateProtocol(sim::Simulator& simulator, const Topology& topology);

  /// Originates every node's initial LSP and floods. Views converge after
  /// the flood settles (run the simulator).
  void start();

  /// Reports a link state change: both (live) endpoints detect it after
  /// the failure-detection interval and re-originate their LSPs.
  void notify_link_change(LinkId link);

  /// Reports a node state change: the node itself (if now up) and all its
  /// live neighbors re-originate.
  void notify_node_change(NodeId node);

  /// `who`'s current routing view (SPF over its LSDB with two-way check).
  [[nodiscard]] const SpfTable& view(NodeId who);

  /// Whether `who` currently believes `target` is reachable.
  [[nodiscard]] bool view_reachable(NodeId who, NodeId target);

  void set_view_change_callback(ViewChangeCallback cb) { on_view_change_ = std::move(cb); }

  struct Stats {
    std::uint64_t lsps_originated = 0;
    std::uint64_t lsps_flooded = 0;    // LSP transmissions over links
    std::uint64_t lsps_installed = 0;  // new-information installs
    std::uint64_t lsps_ignored = 0;    // stale/duplicate copies dropped
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Registers pull probes for the flooding stats under `prefix`
  /// (e.g. "underlay.igp"). Probes capture `this`.
  void register_metrics(telemetry::MetricsRegistry& registry, const std::string& prefix) const;

  /// The LSDB of `who` (origin -> LSP), for tests/diagnostics.
  [[nodiscard]] const std::unordered_map<NodeId, Lsp>& lsdb(NodeId who) const {
    return nodes_.at(who).lsdb;
  }

 private:
  struct NodeState {
    std::unordered_map<NodeId, Lsp> lsdb;
    SpfTable view;
    bool view_dirty = true;
    bool spf_scheduled = false;
  };

  /// Builds `origin`'s LSP from the live topology.
  [[nodiscard]] Lsp make_lsp(NodeId origin);

  /// Origin installs its own LSP and floods to its live neighbors.
  void originate(NodeId origin);

  /// `receiver` processes an LSP copy arriving over `from_link`.
  void receive(NodeId receiver, const Lsp& lsp, LinkId from_link);

  /// Forwards `lsp` from `node` over every usable link except `except`.
  void flood_from(NodeId node, const Lsp& lsp, LinkId except);

  void mark_dirty(NodeId node);
  void recompute_view(NodeId node);

  sim::Simulator& simulator_;
  const Topology& topology_;
  std::vector<NodeState> nodes_;
  std::vector<std::uint64_t> next_sequence_;
  ViewChangeCallback on_view_change_;
  Stats stats_;
  static constexpr LinkId kNoLink = static_cast<LinkId>(-1);
};

}  // namespace sda::underlay
