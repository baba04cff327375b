#include "underlay/linkstate.hpp"

#include <algorithm>
#include "telemetry/metrics.hpp"


namespace sda::underlay {

LinkStateProtocol::LinkStateProtocol(sim::Simulator& simulator, const Topology& topology)
    : simulator_(simulator),
      topology_(topology),
      nodes_(topology.node_count()),
      next_sequence_(topology.node_count(), 1) {}

Lsp LinkStateProtocol::make_lsp(NodeId origin) {
  Lsp lsp;
  lsp.origin = origin;
  lsp.sequence = next_sequence_[origin]++;
  lsp.origin_up = topology_.node(origin).up;
  for (const LinkId link_id : topology_.links_of(origin)) {
    if (!topology_.link_usable(link_id)) continue;
    const Link& link = topology_.link(link_id);
    lsp.adjacencies.emplace_back(link.other(origin), link.cost);
  }
  std::sort(lsp.adjacencies.begin(), lsp.adjacencies.end());
  return lsp;
}

void LinkStateProtocol::start() {
  for (NodeId n = 0; n < topology_.node_count(); ++n) {
    if (topology_.node(n).up) originate(n);
  }
}

void LinkStateProtocol::originate(NodeId origin) {
  if (!topology_.node(origin).up) return;
  const Lsp lsp = make_lsp(origin);
  ++stats_.lsps_originated;
  nodes_[origin].lsdb[origin] = lsp;
  ++stats_.lsps_installed;
  mark_dirty(origin);
  flood_from(origin, lsp, kNoLink);
}

void LinkStateProtocol::flood_from(NodeId node, const Lsp& lsp, LinkId except) {
  for (const LinkId link_id : topology_.links_of(node)) {
    if (link_id == except || !topology_.link_usable(link_id)) continue;
    const Link& link = topology_.link(link_id);
    const NodeId peer = link.other(node);
    ++stats_.lsps_flooded;
    simulator_.schedule_after(link.latency + kLspProcessing,
                              [this, peer, lsp, link_id] { receive(peer, lsp, link_id); });
  }
}

void LinkStateProtocol::receive(NodeId receiver, const Lsp& lsp, LinkId from_link) {
  if (!topology_.node(receiver).up) return;  // dead routers process nothing
  auto& lsdb = nodes_[receiver].lsdb;
  const auto it = lsdb.find(lsp.origin);
  if (it != lsdb.end() && it->second.sequence >= lsp.sequence) {
    ++stats_.lsps_ignored;
    return;
  }
  lsdb[lsp.origin] = lsp;
  ++stats_.lsps_installed;
  mark_dirty(receiver);
  flood_from(receiver, lsp, from_link);
}

void LinkStateProtocol::notify_link_change(LinkId link) {
  const Link& l = topology_.link(link);
  for (const NodeId endpoint : {l.a, l.b}) {
    if (!topology_.node(endpoint).up) continue;
    simulator_.schedule_after(kFailureDetection,
                              [this, endpoint] { originate(endpoint); });
  }
}

void LinkStateProtocol::notify_node_change(NodeId node) {
  simulator_.schedule_after(kFailureDetection, [this, node] {
    if (topology_.node(node).up) originate(node);
    for (const LinkId link_id : topology_.links_of(node)) {
      const NodeId peer = topology_.link(link_id).other(node);
      if (topology_.node(peer).up) originate(peer);
    }
  });
}

void LinkStateProtocol::mark_dirty(NodeId node) {
  NodeState& state = nodes_[node];
  state.view_dirty = true;
  if (state.spf_scheduled) return;
  state.spf_scheduled = true;
  simulator_.schedule_after(kSpfDelay, [this, node] {
    NodeState& s = nodes_[node];
    s.spf_scheduled = false;
    if (s.view_dirty) {
      recompute_view(node);
      if (on_view_change_) on_view_change_(node);
    }
  });
}

void LinkStateProtocol::recompute_view(NodeId node) {
  NodeState& state = nodes_[node];
  state.view_dirty = false;

  // Materialize the LSDB as a graph, honoring the two-way check: a link is
  // usable only when both endpoints' LSPs report each other.
  Topology graph;
  for (NodeId n = 0; n < topology_.node_count(); ++n) {
    graph.add_node("lsdb-" + std::to_string(n), net::Ipv4Address{0x7F000000u + n});
  }
  const auto& lsdb = state.lsdb;
  auto reports = [&lsdb](NodeId from, NodeId to) -> const std::uint32_t* {
    const auto it = lsdb.find(from);
    if (it == lsdb.end() || !it->second.origin_up) return nullptr;
    for (const auto& [neighbor, cost] : it->second.adjacencies) {
      if (neighbor == to) return &cost;
    }
    return nullptr;
  };
  for (const auto& [origin, lsp] : lsdb) {
    if (!lsp.origin_up) continue;
    for (const auto& [neighbor, cost] : lsp.adjacencies) {
      if (origin >= neighbor) continue;  // add each pair once
      const std::uint32_t* back = reports(neighbor, origin);
      if (back == nullptr) continue;  // one-way: not usable
      graph.add_link(origin, neighbor, sim::Duration{0}, std::max(cost, *back));
    }
  }
  state.view = compute_spf(graph, node);
}

const SpfTable& LinkStateProtocol::view(NodeId who) { return nodes_.at(who).view; }

bool LinkStateProtocol::view_reachable(NodeId who, NodeId target) {
  if (who == target) return topology_.node(who).up;
  return nodes_.at(who).view.reachable(target);
}

void LinkStateProtocol::register_metrics(telemetry::MetricsRegistry& registry,
                                         const std::string& prefix) const {
  registry.register_counter(telemetry::join(prefix, "lsps_originated"),
                            [this] { return stats_.lsps_originated; });
  registry.register_counter(telemetry::join(prefix, "lsps_flooded"),
                            [this] { return stats_.lsps_flooded; });
  registry.register_counter(telemetry::join(prefix, "lsps_installed"),
                            [this] { return stats_.lsps_installed; });
  registry.register_counter(telemetry::join(prefix, "lsps_ignored"),
                            [this] { return stats_.lsps_ignored; });
}

}  // namespace sda::underlay
