#include "underlay/network.hpp"

#include <cassert>
#include "telemetry/metrics.hpp"


namespace sda::underlay {

UnderlayNetwork::UnderlayNetwork(sim::Simulator& simulator, Topology& topology,
                                 UnderlayConfig config)
    : simulator_(simulator), topology_(topology), config_(config) {}

void UnderlayNetwork::refresh(NodeId node) {
  if (tables_.size() < topology_.node_count()) {
    tables_.resize(topology_.node_count());
    table_versions_.resize(topology_.node_count(), 0);
  }
  if (!tables_[node] || table_versions_[node] != topology_.version()) {
    tables_[node] = compute_spf(topology_, node);
    table_versions_[node] = topology_.version();
  }
}

const SpfTable& UnderlayNetwork::table(NodeId node) {
  assert(node < topology_.node_count());
  refresh(node);
  return *tables_[node];
}

bool UnderlayNetwork::reachable(NodeId node, net::Ipv4Address rloc) {
  const auto dest = topology_.node_by_loopback(rloc);
  if (!dest) return false;
  if (*dest == node) return topology_.node(node).up;
  return table(node).reachable(*dest);
}

std::optional<UnderlayNetwork::ResolvedRoute> UnderlayNetwork::resolve_route(NodeId from,
                                                                             NodeId to) {
  if (to >= topology_.node_count()) return std::nullopt;
  if (to == from) return ResolvedRoute{true, nullptr};
  const SpfRoute* route = table(from).route(to);
  if (!route) return std::nullopt;
  return ResolvedRoute{false, route};
}

sim::Duration UnderlayNetwork::modeled_delay(const ResolvedRoute& resolved,
                                             std::size_t bytes) const {
  if (resolved.self) return sim::Duration{0};
  const SpfRoute& route = *resolved.route;
  sim::Duration delay = route.latency;
  delay += config_.per_hop_processing * route.hop_count;
  if (config_.model_serialization && bytes > 0) {
    // Serialize once per hop at 10 Gbps nominal: bytes * 8 / 10e9 seconds.
    const auto per_hop_ns = static_cast<std::int64_t>(static_cast<double>(bytes) * 8.0 / 10.0);
    delay += sim::Duration{per_hop_ns * route.hop_count};
  }
  return delay;
}

std::optional<sim::Duration> UnderlayNetwork::transit_delay(NodeId from,
                                                            net::Ipv4Address to_rloc,
                                                            std::uint64_t flow_hash,
                                                            std::size_t bytes) {
  (void)flow_hash;  // ECMP member choice does not change modeled latency
                    // (equal-cost paths share the metric); the hash is kept
                    // in the signature for per-flow pinning extensions.
  const auto dest = topology_.node_by_loopback(to_rloc);
  if (!dest) return std::nullopt;
  const auto resolved = resolve_route(from, *dest);
  if (!resolved) return std::nullopt;
  return modeled_delay(*resolved, bytes);
}

bool UnderlayNetwork::deliver(NodeId from, NodeId to, std::size_t bytes,
                              sim::InlineAction on_arrival, TrafficClass cls) {
  // Resolve the SPF route exactly once: the delay model and the fault
  // injector's hop count used to each recompute it (up to three lookups
  // per packet).
  const auto resolved = resolve_route(from, to);
  if (!resolved) {
    ++unreachable_drops_;
    return false;
  }
  const sim::Duration delay = modeled_delay(*resolved, bytes);
  sim::Duration jitter{0};
  if (fault_injector_) {
    const std::uint32_t hops = resolved->self ? 0 : resolved->route->hop_count;
    const FaultDecision decision = fault_injector_(from, to, bytes, hops, cls);
    if (decision.drop) {
      ++fault_drops_;
      return false;
    }
    jitter = decision.extra_delay;
  }
  simulator_.schedule_after(delay + jitter, std::move(on_arrival));
  return true;
}

void UnderlayNetwork::watch(NodeId node, WatchCallback callback) {
  Watcher w{node, std::move(callback), {}};
  // Seed the initial view so only *transitions* are reported.
  for (NodeId other = 0; other < topology_.node_count(); ++other) {
    if (other == node) continue;
    w.last_view[topology_.node(other).loopback] = table(node).reachable(other);
  }
  watchers_.push_back(std::move(w));
}

void UnderlayNetwork::topology_changed() {
  if (notify_pending_ || watchers_.empty()) return;
  notify_pending_ = true;
  simulator_.schedule_after(config_.igp_convergence, [this] {
    notify_pending_ = false;
    notify_watchers();
  });
}

void UnderlayNetwork::notify_watchers() {
  for (auto& w : watchers_) {
    for (NodeId other = 0; other < topology_.node_count(); ++other) {
      if (other == w.node) continue;
      const net::Ipv4Address rloc = topology_.node(other).loopback;
      const bool now = table(w.node).reachable(other);
      auto [it, inserted] = w.last_view.try_emplace(rloc, now);
      if (inserted) continue;  // node added since watch(): treat as baseline
      if (it->second != now) {
        it->second = now;
        w.callback(rloc, now);
      }
    }
  }
}

void UnderlayNetwork::register_metrics(telemetry::MetricsRegistry& registry,
                                       const std::string& prefix) const {
  registry.register_counter(telemetry::join(prefix, "unreachable_drops"),
                            [this] { return unreachable_drops_; });
  registry.register_counter(telemetry::join(prefix, "fault_drops"),
                            [this] { return fault_drops_; });
}

}  // namespace sda::underlay
