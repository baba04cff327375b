// Shortest-path-first routing over the underlay topology.
//
// Runs Dijkstra from a source node, keeping *all* equal-cost next hops
// (ECMP, RFC 2991). The fabric encapsulation spreads flows over the ECMP
// set by hashing outer-header entropy (paper §3.3).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/time.hpp"
#include "underlay/topology.hpp"

namespace sda::underlay {

/// Routing result for one destination from a fixed source.
struct SpfRoute {
  std::uint64_t cost = 0;
  sim::Duration latency{0};              // along the lowest-latency equal-cost path
  std::uint32_t hop_count = 0;           // along that same path
  std::vector<NodeId> next_hops;         // ECMP set, sorted ascending
  [[nodiscard]] bool reachable() const { return !next_hops.empty(); }
};

/// One source's routing table: destination node -> SpfRoute.
class SpfTable {
 public:
  SpfTable() = default;
  SpfTable(NodeId source, std::vector<SpfRoute> routes)
      : source_(source), routes_(std::move(routes)) {}

  /// Route to `destination`; nullopt when unreachable (or self).
  [[nodiscard]] const SpfRoute* route(NodeId destination) const {
    if (destination >= routes_.size() || destination == source_) return nullptr;
    const SpfRoute& r = routes_[destination];
    return r.reachable() ? &r : nullptr;
  }

  [[nodiscard]] bool reachable(NodeId destination) const { return route(destination) != nullptr; }

  /// Picks one ECMP next hop for a given flow hash (consistent per flow).
  [[nodiscard]] std::optional<NodeId> next_hop(NodeId destination,
                                               std::uint64_t flow_hash) const {
    const SpfRoute* r = route(destination);
    if (!r) return std::nullopt;
    return r->next_hops[flow_hash % r->next_hops.size()];
  }

 private:
  NodeId source_ = kInvalidNode;
  std::vector<SpfRoute> routes_;
};

/// Computes the SPF table for `source` over the current topology state.
/// Links and nodes that are down are excluded.
[[nodiscard]] SpfTable compute_spf(const Topology& topology, NodeId source);

}  // namespace sda::underlay
