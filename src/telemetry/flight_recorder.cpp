#include "telemetry/flight_recorder.hpp"

#include <algorithm>

namespace sda::telemetry {

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::MapRequest: return "map-request";
    case EventKind::MapReply: return "map-reply";
    case EventKind::MapRegister: return "map-register";
    case EventKind::MapNotify: return "map-notify";
    case EventKind::Smr: return "smr";
    case EventKind::Publish: return "publish";
    case EventKind::Resync: return "resync";
    case EventKind::SnapshotApplied: return "snapshot";
    case EventKind::PolicyPush: return "policy-push";
    case EventKind::GroupChange: return "group-change";
    case EventKind::RuleUpdate: return "rule-update";
    case EventKind::Onboard: return "onboard";
    case EventKind::Roam: return "roam";
    case EventKind::Disconnect: return "disconnect";
    case EventKind::Reboot: return "reboot";
    case EventKind::LinkState: return "link-state";
    case EventKind::FeedState: return "feed-state";
    case EventKind::Fault: return "fault";
    case EventKind::Failover: return "failover";
    case EventKind::Failback: return "failback";
    case EventKind::AntiEntropy: return "anti-entropy";
    case EventKind::Shed: return "shed";
    case EventKind::ElectionStarted: return "election-started";
    case EventKind::LeaderElected: return "leader-elected";
    case EventKind::EpochRejected: return "epoch-rejected";
    case EventKind::ServerSuppressed: return "server-suppressed";
    case EventKind::QuorumLost: return "quorum-lost";
    case EventKind::QuorumRegained: return "quorum-regained";
    case EventKind::Custom: return "custom";
  }
  return "unknown";
}

std::string FlightEvent::to_string() const {
  std::string out = "[";
  out += at.to_string();
  out += "] ";
  out += event_kind_name(kind);
  if (!node.empty()) out += " " + node;
  if (!detail.empty()) out += ": " + detail;
  return out;
}

FlightRecorder::FlightRecorder(std::size_t capacity) {
  ring_.resize(std::max<std::size_t>(1, capacity));
}

FlightRecorder::Slot& FlightRecorder::next_slot(sim::SimTime at, EventKind kind,
                                                std::string_view node) {
  Slot& slot = ring_[seq_ % ring_.size()];
  slot.seq = ++seq_;
  slot.at = at;
  slot.kind = kind;
  slot.node.assign(node);
  return slot;
}

void FlightRecorder::record(sim::SimTime at, EventKind kind, std::string_view node,
                            std::string_view detail) {
  if (!enabled_) return;
  Slot& slot = next_slot(at, kind, node);
  slot.form = DetailForm::Text;
  slot.text.assign(detail);
}

void FlightRecorder::record(sim::SimTime at, EventKind kind, std::string_view node,
                            DetailForm form, const net::VnEid& eid, net::Ipv4Address rloc,
                            std::uint64_t number, std::string_view name) {
  if (!enabled_) return;
  Slot& slot = next_slot(at, kind, node);
  slot.form = form;
  slot.eid = eid;
  slot.rloc = rloc;
  slot.number = number;
  if (name.empty()) {
    slot.text.clear();  // the busy first-packet forms quote no name
  } else {
    slot.text.assign(name);
  }
}

FlightEvent FlightRecorder::Slot::render() const {
  FlightEvent event;
  event.seq = seq;
  event.at = at;
  event.kind = kind;
  event.node = node;
  std::string& d = event.detail;
  switch (form) {
    case DetailForm::Text: d = text; break;
    case DetailForm::ForEid: d = "for " + eid.to_string(); break;
    case DetailForm::ForEidToRloc:
      d = "for " + eid.to_string() + " -> " + rloc.to_string();
      break;
    case DetailForm::ForEidToName: d = "for " + eid.to_string() + " -> " + text; break;
    case DetailForm::NegativeForEid: d = "negative for " + eid.to_string(); break;
    case DetailForm::RequestForEid: d = "map-request for " + eid.to_string(); break;
    case DetailForm::RegisterForEid: d = "map-register for " + eid.to_string(); break;
    case DetailForm::PublishSeq:
    case DetailForm::WithdrawSeq:
      d = form == DetailForm::PublishSeq ? "publish " : "withdraw ";
      d += eid.to_string() + " seq " + std::to_string(number);
      break;
    case DetailForm::MoveNotify:
      d = "move of " + eid.to_string() + ", notify old edge " + text;
      break;
    case DetailForm::RoamedTo: d = text + " roamed to " + node; break;
    case DetailForm::OnboardedAt: d = text + " onboarded at " + node; break;
  }
  return event;
}

std::size_t FlightRecorder::size() const {
  return static_cast<std::size_t>(std::min<std::uint64_t>(seq_, ring_.size()));
}

std::uint64_t FlightRecorder::overwritten() const {
  return seq_ > ring_.size() ? seq_ - ring_.size() : 0;
}

std::vector<FlightEvent> FlightRecorder::events() const { return tail(ring_.size()); }

std::vector<FlightEvent> FlightRecorder::tail(std::size_t n) const {
  const std::size_t held = size();
  n = std::min(n, held);
  std::vector<FlightEvent> out;
  out.reserve(n);
  // seq_ is the seq of the newest event; walk the last n slots in order.
  for (std::uint64_t s = seq_ - n; s < seq_; ++s) {
    out.push_back(ring_[s % ring_.size()].render());
  }
  return out;
}

std::vector<FlightEvent> FlightRecorder::for_node(const std::string& node) const {
  std::vector<FlightEvent> out;
  for (std::uint64_t s = seq_ - size(); s < seq_; ++s) {
    const Slot& slot = ring_[s % ring_.size()];
    if (slot.node == node) out.push_back(slot.render());
  }
  return out;
}

std::string FlightRecorder::dump(std::size_t max_events) const {
  const auto held = tail(max_events);
  std::string out;
  if (overwritten() > 0) {
    out += "(";
    out += std::to_string(overwritten());
    out += " earlier events overwritten)\n";
  }
  for (const auto& event : held) {
    out += event.to_string();
    out += "\n";
  }
  return out;
}

void FlightRecorder::clear() {
  for (auto& slot : ring_) slot = Slot{};
  seq_ = 0;
}

}  // namespace sda::telemetry
