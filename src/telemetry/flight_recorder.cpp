#include "telemetry/flight_recorder.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

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
  text_.resize(ring_.size());
}

NodeRef FlightRecorder::intern(std::string_view node) {
  const auto it = std::find(names_.begin(), names_.end(), node);
  if (it != names_.end()) return static_cast<NodeRef>(it - names_.begin());
  assert(names_.size() <= std::numeric_limits<NodeRef>::max());
  names_.emplace_back(node);
  return static_cast<NodeRef>(names_.size() - 1);
}

std::size_t FlightRecorder::next_slot(sim::SimTime at, EventKind kind, NodeRef node,
                                      DetailForm form) {
  const std::size_t index = seq_ % ring_.size();
  Slot& slot = ring_[index];
  slot.seq = ++seq_;
  slot.at = at;
  slot.kind = kind;
  slot.node = node;
  slot.form = form;
  return index;
}

void FlightRecorder::record(sim::SimTime at, EventKind kind, std::string_view node,
                            std::string_view detail) {
  if (!enabled_) return;
  text_[next_slot(at, kind, intern(node), DetailForm::Text)].assign(detail);
}

void FlightRecorder::record(sim::SimTime at, EventKind kind, NodeRef node, DetailForm form,
                            const net::VnEid& eid, net::Ipv4Address rloc, std::uint64_t number,
                            std::string_view name) {
  if (!enabled_) return;
  const std::size_t index = next_slot(at, kind, node, form);
  Slot& slot = ring_[index];
  slot.eid = eid;
  slot.rloc = rloc;
  slot.number = number;
  switch (form) {  // the side ring: only the forms that quote text write it
    case DetailForm::Text:
    case DetailForm::ForEidToName:
    case DetailForm::MoveNotify:
    case DetailForm::RoamedTo:
    case DetailForm::OnboardedAt: text_[index].assign(name); break;
    default: break;
  }
}

FlightEvent FlightRecorder::render(std::size_t index) const {
  const Slot& slot = ring_[index];
  const std::string& text = text_[index];
  const net::VnEid& eid = slot.eid;
  FlightEvent event;
  event.seq = slot.seq;
  event.at = slot.at;
  event.kind = slot.kind;
  event.node = names_[slot.node];
  const std::string& node = event.node;
  std::string& d = event.detail;
  switch (slot.form) {
    case DetailForm::Text: d = text; break;
    case DetailForm::ForEid: d = "for " + eid.to_string(); break;
    case DetailForm::ForEidToRloc:
      d = "for " + eid.to_string() + " -> " + slot.rloc.to_string();
      break;
    case DetailForm::ForEidToName: d = "for " + eid.to_string() + " -> " + text; break;
    case DetailForm::NegativeForEid: d = "negative for " + eid.to_string(); break;
    case DetailForm::RequestForEid: d = "map-request for " + eid.to_string(); break;
    case DetailForm::RegisterForEid: d = "map-register for " + eid.to_string(); break;
    case DetailForm::PublishSeq:
    case DetailForm::WithdrawSeq:
      d = slot.form == DetailForm::PublishSeq ? "publish " : "withdraw ";
      d += eid.to_string() + " seq " + std::to_string(slot.number);
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

template <typename Keep>
std::vector<FlightEvent> FlightRecorder::collect(std::size_t n, Keep keep) const {
  n = std::min(n, size());
  std::vector<FlightEvent> out;
  // seq_ is the seq of the newest event; walk the last n slots in order.
  for (std::uint64_t s = seq_ - n; s < seq_; ++s) {
    const std::size_t index = s % ring_.size();
    if (keep(index)) out.push_back(render(index));
  }
  return out;
}

std::vector<FlightEvent> FlightRecorder::tail(std::size_t n) const {
  return collect(n, [](std::size_t) { return true; });
}

std::vector<FlightEvent> FlightRecorder::for_node(const std::string& node) const {
  const auto it = std::find(names_.begin(), names_.end(), node);
  if (it == names_.end()) return {};
  const auto ref = static_cast<NodeRef>(it - names_.begin());
  return collect(size(), [&](std::size_t index) { return ring_[index].node == ref; });
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
  for (auto& text : text_) text.clear();
  seq_ = 0;
}

}  // namespace sda::telemetry
