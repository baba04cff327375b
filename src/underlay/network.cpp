#include "underlay/network.hpp"

#include <cassert>

#include "telemetry/metrics.hpp"

namespace sda::underlay {

UnderlayNetwork::UnderlayNetwork(sim::Simulator& simulator, Topology& topology,
                                 UnderlayConfig config)
    : simulator_(simulator), topology_(topology), config_(config) {}

void UnderlayNetwork::refresh(NodeId node) {
  if (routes_.size() < topology_.node_count()) routes_.resize(topology_.node_count());
  NodeRoutes& routes = routes_[node];
  if (routes.version == topology_.version()) return;
  routes.version = topology_.version();
  routes.table = compute_spf(topology_, node);
  routes.legs.assign(topology_.node_count(), kUnreachable);
  routes.legs[node] = 0;
  for (NodeId to = 0; to < routes.legs.size(); ++to) {
    const SpfRoute* route = routes.table.route(to);
    if (route == nullptr) continue;
    const sim::Duration base = route->latency + kPerHopProcessing * route->hop_count;
    assert(base.count() >= 0 && base.count() < (std::int64_t{1} << 47) && route->hop_count < 0xFFFF);
    routes.legs[to] = static_cast<Leg>(base.count()) << 16 | route->hop_count;
  }
}

UnderlayNetwork::Leg UnderlayNetwork::leg(NodeId from, NodeId to) {
  assert(from < topology_.node_count());
  if (from >= routes_.size() || routes_[from].version != topology_.version()) refresh(from);
  const std::vector<Leg>& legs = routes_[from].legs;
  return to < legs.size() ? legs[to] : kUnreachable;
}

const SpfTable& UnderlayNetwork::table(NodeId node) {
  assert(node < topology_.node_count());
  refresh(node);
  return routes_[node].table;
}

bool UnderlayNetwork::reachable(NodeId node, net::Ipv4Address rloc) {
  const auto dest = topology_.node_by_loopback(rloc);
  if (!dest) return false;
  if (*dest == node) return topology_.node(node).up;
  return table(node).reachable(*dest);
}

sim::Duration UnderlayNetwork::delay(Leg leg, std::size_t bytes) const {
  sim::Duration delay{static_cast<std::int64_t>(leg >> 16)};
  if (bytes > 0) {
    // Serialize once per hop at 10 Gbps nominal: bytes * 8 / 10e9 seconds.
    const auto per_hop_ns = static_cast<std::int64_t>(static_cast<double>(bytes) * 8.0 / 10.0);
    delay += sim::Duration{per_hop_ns * static_cast<std::int64_t>(leg & 0xFFFF)};
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
  const Leg route = leg(from, *dest);
  if (route == kUnreachable) return std::nullopt;
  return delay(route, bytes);
}

bool UnderlayNetwork::deliver(NodeId from, NodeId to, std::size_t bytes,
                              sim::InlineAction on_arrival, TrafficClass cls) {
  const Leg route = leg(from, to);
  if (route == kUnreachable) {
    ++unreachable_drops_;
    return false;
  }
  sim::Duration jitter{0};
  if (fault_injector_) {
    const auto hops = static_cast<std::uint32_t>(route & 0xFFFF);
    const FaultDecision decision = fault_injector_(from, to, bytes, hops, cls);
    if (decision.drop) {
      ++fault_drops_;
      return false;
    }
    jitter = decision.extra_delay;
  }
  simulator_.schedule_after(delay(route, bytes) + jitter, std::move(on_arrival));
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
