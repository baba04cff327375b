#include "dataplane/border_router.hpp"

#include <algorithm>

#include "telemetry/metrics.hpp"

namespace sda::dataplane {

BorderRouter::BorderRouter(sim::Simulator& simulator, BorderRouterConfig config)
    : simulator_(simulator), config_(std::move(config)), sgacl_(config_.default_action) {}

bool BorderRouter::receive_publish(const lisp::Publish& publish) {
  // Split-brain fence: reject pushes from a deposed leader's epoch; a
  // *newer* epoch means the feed re-homed to a freshly elected leader, so
  // adopt it and pull a snapshot from the new authority (discarding this
  // update — the snapshot supersedes it).
  if (publish.epoch != 0) {
    if (publish.epoch < feed_epoch_) {
      ++counters_.stale_epoch_rejected;
      return false;
    }
    if (publish.epoch > feed_epoch_) {
      // First epoch observation (feed_epoch_ == 0) is the election layer
      // coming up mid-stream: the feed is still the same continuous
      // sequence, so adopt silently. A later term bump means the feed
      // re-homed to a new leader — discard and pull its snapshot.
      const bool rehomed = feed_epoch_ != 0;
      feed_epoch_ = publish.epoch;
      if (rehomed) {
        request_resync();
        return true;
      }
    }
  }
  if (publish.seq != 0) {
    // While a snapshot is in flight, individual updates are discarded: the
    // snapshot supersedes them, and any update it misses re-surfaces as a
    // gap on the next sequenced publish.
    if (resync_in_flight_) return true;
    if (publish.seq != next_publish_seq_) {
      ++counters_.out_of_sequence;
      request_resync();
      return true;
    }
    ++next_publish_seq_;
  }
  if (publish.withdrawal()) {
    if (synced_.erase(publish.eid)) ++counters_.withdrawals_applied;
    return true;
  }
  // A recycled slot keeps its locator capacity; every field is rewritten.
  lisp::MappingRecord& record = *synced_.find_or_insert_reused(publish.eid).first;
  record.rlocs.assign(publish.rlocs.begin(), publish.rlocs.end());
  record.ttl_seconds = publish.ttl_seconds;
  record.group = {};
  record.refreshed_at = {};
  ++counters_.publishes_applied;
  return true;
}

void BorderRouter::bootstrap_sync(const lisp::MapServer& server) {
  synced_.clear();
  server.walk([this](const net::VnEid& eid, const lisp::MappingRecord& record) {
    synced_.insert(eid, record);
  });
}

void BorderRouter::apply_snapshot(
    const std::vector<std::pair<net::VnEid, lisp::MappingRecord>>& entries,
    std::uint64_t next_seq, std::uint64_t epoch) {
  synced_.clear();
  for (const auto& [eid, record] : entries) *synced_.find_or_insert_reused(eid).first = record;
  next_publish_seq_ = next_seq;
  feed_epoch_ = std::max(feed_epoch_, epoch);
  resync_in_flight_ = false;
  simulator_.cancel(resync_timer_);
  resync_timer_ = {};
  ++counters_.snapshots_applied;
}

void BorderRouter::request_resync() {
  ++counters_.resyncs_requested;
  resync_in_flight_ = true;
  if (request_resync_) request_resync_();
  // The snapshot request or reply can itself be lost; keep asking until a
  // snapshot lands (apply_snapshot cancels the retry).
  simulator_.cancel(resync_timer_);
  resync_timer_ = simulator_.schedule_after(config_.resync_retry, [this] {
    if (resync_in_flight_) request_resync();
  });
}

void BorderRouter::add_external_prefix(net::VnId vn, const net::Ipv4Prefix& prefix,
                                       net::GroupId group) {
  external_[vn.value()].insert(trie::BitKey::from_ipv4_prefix(prefix), ExternalRoute{group});
}

const BorderRouter::ExternalRoute* BorderRouter::external_route(
    const net::VnEid& destination) const {
  if (destination.eid.is_ipv4()) {
    const auto it = external_.find(destination.vn.value());
    if (it == external_.end()) return nullptr;
    const auto match =
        it->second.longest_match(trie::BitKey::from_ipv4(destination.eid.ipv4()));
    return match ? match->second : nullptr;
  }
  if (destination.eid.is_ipv6()) {
    const auto it = external_v6_.find(destination.vn.value());
    if (it == external_v6_.end()) return nullptr;
    const auto match =
        it->second.longest_match(trie::BitKey::from_ipv6(destination.eid.ipv6()));
    return match ? match->second : nullptr;
  }
  return nullptr;
}

void BorderRouter::add_external_prefix(net::VnId vn, const net::Ipv6Prefix& prefix,
                                       net::GroupId group) {
  external_v6_[vn.value()].insert(trie::BitKey::from_ipv6_prefix(prefix), ExternalRoute{group});
}

void BorderRouter::external_receive(net::VnId vn, net::GroupId source_group,
                                    const net::OverlayFrame& frame) {
  ++counters_.external_in;
  const net::VnEid destination{vn, frame.destination_eid()};
  const lisp::MappingRecord* record = synced_.find(destination);
  if (record == nullptr || record->rlocs.empty()) {
    ++counters_.no_route_drops;
    return;
  }
  encap_to(record->primary_rloc(), vn, source_group, false, frame);
}

net::GroupId BorderRouter::rewritten_group(net::VnId vn, net::GroupId group) {
  if (group_rewrites_.empty()) return group;  // no service insertion: no probe
  const auto it = group_rewrites_.find((std::uint64_t{vn.value()} << 16) | group.value());
  if (it == group_rewrites_.end()) return group;
  ++counters_.group_rewrites;
  return it->second;
}

void BorderRouter::add_group_rewrite(net::VnId vn, net::GroupId from, net::GroupId to) {
  group_rewrites_[(std::uint64_t{vn.value()} << 16) | from.value()] = to;
}

bool BorderRouter::remove_group_rewrite(net::VnId vn, net::GroupId from) {
  return group_rewrites_.erase((std::uint64_t{vn.value()} << 16) | from.value()) > 0;
}

void BorderRouter::receive_fabric_frame(const net::FabricFrame& frame_in) {
  net::FabricFrame frame = frame_in;
  // Service insertion (§5.4): transit traffic may be re-tagged so the rest
  // of the chain applies a different policy.
  frame.source_group = rewritten_group(frame.vn, frame.source_group);
  if (frame.inner.is_arp()) {
    ++counters_.no_route_drops;  // ARP never crosses the border
    return;
  }
  const net::VnEid destination{frame.vn, frame.inner.destination_eid()};

  // Overlay endpoint known via the synchronized table? Hairpin to its edge.
  const lisp::MappingRecord* record = synced_.find(destination);
  if (record != nullptr && !record->rlocs.empty()) {
    const net::Ipv4Address target = record->primary_rloc();
    if (target == config_.rloc) {
      ++counters_.no_route_drops;  // registered to us but not external: stale
      return;
    }
    net::OverlayFrame inner = frame.inner;
    if (inner.hop_limit() <= 1) {
      ++counters_.ttl_drops;  // edge<->border transient loop guard (§5.2)
      trace_hop(frame.vn, inner, "drop");
      return;
    }
    inner.set_hop_limit(static_cast<std::uint8_t>(inner.hop_limit() - 1));
    ++counters_.hairpinned;
    trace_hop(frame.vn, inner, "hairpin");
    encap_to(target, frame.vn, frame.source_group, frame.policy_applied, inner);
    return;
  }

  // External destination (Internet / DC).
  if (const ExternalRoute* route = external_route(destination)) {
    if (!frame.policy_applied && !route->group.is_unknown() &&
        sgacl_.evaluate(frame.vn, frame.source_group, route->group) == policy::Action::Deny) {
      ++counters_.policy_drops;
      trace_hop(frame.vn, frame.inner, "sgacl-deny");
      return;
    }
    ++counters_.external_out;
    trace_hop(frame.vn, frame.inner, "external-out");
    if (deliver_external_) deliver_external_(destination, frame.inner);
    return;
  }

  ++counters_.no_route_drops;
  trace_hop(frame.vn, frame.inner, "drop");
}

void BorderRouter::register_metrics(telemetry::MetricsRegistry& registry,
                                    const std::string& prefix) const {
  const auto add = [&](const char* leaf, const std::uint64_t& field) {
    registry.register_counter(telemetry::join(prefix, leaf), [&field] { return field; });
  };
  add("publishes_applied", counters_.publishes_applied);
  add("withdrawals_applied", counters_.withdrawals_applied);
  add("out_of_sequence", counters_.out_of_sequence);
  add("resyncs_requested", counters_.resyncs_requested);
  add("snapshots_applied", counters_.snapshots_applied);
  add("hairpinned", counters_.hairpinned);
  add("external_out", counters_.external_out);
  add("external_in", counters_.external_in);
  add("policy_drops", counters_.policy_drops);
  add("no_route_drops", counters_.no_route_drops);
  add("ttl_drops", counters_.ttl_drops);
  add("group_rewrites", counters_.group_rewrites);
  add("stale_epoch_rejected", counters_.stale_epoch_rejected);
  registry.register_gauge(telemetry::join(prefix, "fib_size"),
                          [this] { return static_cast<double>(fib_size()); });
  sgacl_.register_metrics(registry, telemetry::join(prefix, "sgacl"));
}

void BorderRouter::encap_to(net::Ipv4Address rloc, net::VnId vn, net::GroupId source_group,
                            bool policy_applied, const net::OverlayFrame& frame) {
  net::FabricFrame out;
  out.outer_source = config_.rloc;
  out.outer_destination = rloc;
  out.vn = vn;
  out.source_group = source_group;
  out.policy_applied = policy_applied;
  out.inner = frame;
  if (send_data_) send_data_(out);
}

}  // namespace sda::dataplane
