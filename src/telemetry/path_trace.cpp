#include "telemetry/path_trace.hpp"

namespace sda::telemetry {

const char* hop_kind_name(HopKind kind) {
  switch (kind) {
    case HopKind::Ingress: return "ingress";
    case HopKind::LocalSwitch: return "local-switch";
    case HopKind::Encap: return "encap";
    case HopKind::DefaultRoute: return "default-route";
    case HopKind::Transit: return "transit";
    case HopKind::Hairpin: return "hairpin";
    case HopKind::Decap: return "decap";
    case HopKind::StaleForward: return "stale-forward";
    case HopKind::SgaclPermit: return "sgacl-permit";
    case HopKind::SgaclDeny: return "sgacl-deny";
    case HopKind::Deliver: return "deliver";
    case HopKind::ExternalOut: return "external-out";
    case HopKind::Drop: return "drop";
  }
  return "unknown";
}

bool hop_is_terminal(HopKind kind) {
  switch (kind) {
    case HopKind::SgaclDeny:
    case HopKind::Deliver:
    case HopKind::ExternalOut:
    case HopKind::Drop:
      return true;
    default:
      return false;
  }
}

std::string PacketTrace::to_string() const {
  std::string out = "trace #" + std::to_string(id) + " " + source.to_string() + " -> " +
                    destination.to_string() +
                    (done ? (delivered ? " [delivered " : " [dropped ") : " [open ");
  out += std::to_string(latency().count() / 1000) + "us]\n";
  sim::SimTime previous = started;
  for (const auto& hop : hops) {
    out += "  +" + std::to_string((hop.at - previous).count() / 1000) + "us " +
           hop_kind_name(hop.kind);
    if (!hop.node.empty()) out += " @" + hop.node;
    if (!hop.detail.empty()) out += " (" + hop.detail + ")";
    out += "\n";
    previous = hop.at;
  }
  return out;
}

PathTracer::PathTracer(std::size_t keep_completed)
    : keep_completed_(std::max<std::size_t>(1, keep_completed)) {}

std::uint64_t PathTracer::arm(const net::VnEid& source, const net::VnEid& destination) {
  const FlowKey key{source, destination};
  // An open trace for the same flow can never finish now (its terminal hop
  // would be attributed to the new packet): abandon it.
  if (const auto open = open_.find(key); open != open_.end()) {
    ++abandoned_;
    open_.erase(open);
  }
  const std::uint64_t id = next_id_++;
  armed_[key] = id;
  return id;
}

std::optional<PathTracer::FlowKey> PathTracer::key_of(net::VnId vn,
                                                      const net::OverlayFrame& frame) {
  if (!frame.is_ipv4() && !frame.is_ipv6()) return std::nullopt;
  return FlowKey{net::VnEid{vn, frame.source_eid()}, net::VnEid{vn, frame.destination_eid()}};
}

void PathTracer::ingress(net::VnId vn, const net::OverlayFrame& frame, const std::string& node,
                         sim::SimTime now) {
  if (armed_.empty()) return;
  const auto key = key_of(vn, frame);
  if (!key) return;
  const auto it = armed_.find(*key);
  if (it == armed_.end()) return;

  PacketTrace trace;
  trace.id = it->second;
  trace.source = key->source;
  trace.destination = key->destination;
  trace.started = now;
  trace.hops.push_back(TraceHop{now, HopKind::Ingress, node, {}});
  armed_.erase(it);
  if (const auto open = open_.find(*key); open != open_.end()) {
    ++abandoned_;
    open_.erase(open);
  }
  open_.emplace(*key, std::move(trace));
}

void PathTracer::note(net::VnId vn, const net::OverlayFrame& frame, HopKind kind,
                      const std::string& node, sim::SimTime now, std::string_view detail) {
  if (open_.empty()) return;
  const auto key = key_of(vn, frame);
  if (!key) return;
  const auto it = open_.find(*key);
  if (it == open_.end()) return;

  it->second.hops.push_back(TraceHop{now, kind, node, std::string{detail}});
  if (hop_is_terminal(kind)) {
    PacketTrace trace = std::move(it->second);
    open_.erase(it);
    complete(*key, std::move(trace),
             kind == HopKind::Deliver || kind == HopKind::ExternalOut);
  }
}

void PathTracer::complete(FlowKey, PacketTrace trace, bool delivered) {
  trace.done = true;
  trace.delivered = delivered;
  if (completed_.size() >= keep_completed_) {
    completed_.erase(completed_.begin(),
                     completed_.begin() +
                         static_cast<std::ptrdiff_t>(completed_.size() - keep_completed_ + 1));
  }
  completed_.push_back(std::move(trace));
  if (on_complete_) on_complete_(completed_.back());
}

const PacketTrace* PathTracer::find_completed(std::uint64_t id) const {
  for (const auto& trace : completed_) {
    if (trace.id == id) return &trace;
  }
  return nullptr;
}

void PathTracer::clear() {
  armed_.clear();
  open_.clear();
  completed_.clear();
  abandoned_ = 0;
}

}  // namespace sda::telemetry
