#include "telemetry/causal_trace.hpp"

#include <algorithm>
#include <array>
#include <cstdio>

namespace sda::telemetry {

namespace {

std::string chrome_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// The hops that end a first packet; the first two deliver it.
constexpr std::array<std::string_view, 4> kTerminalHops = {"deliver", "external-out",
                                                           "sgacl-deny", "drop"};

double to_us(sim::SimTime t) { return static_cast<double>(t.nanoseconds()) / 1e3; }

void append_event(std::string& out, const std::string& name, const std::string& cat,
                  std::uint64_t tid, sim::SimTime start, sim::SimTime end,
                  const std::string& args) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                "\"ts\":%.3f,\"dur\":%.3f",
                name.c_str(), cat.c_str(), static_cast<unsigned long long>(tid), to_us(start),
                std::max(0.0, to_us(end) - to_us(start)));
  out += buf;
  if (!args.empty()) {
    out += ",\"args\":";
    out += args;
  }
  out += '}';
}

}  // namespace

const char* op_kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::Register: return "register";
    case OpKind::Move: return "move";
    case OpKind::SmrFanout: return "smr-fanout";
    case OpKind::FailoverRehome: return "failover-rehome";
    case OpKind::Catchup: return "catchup";
    case OpKind::FirstPacket: return "first-packet";
  }
  return "unknown";
}

std::string CausalTracer::key_of(OpKind kind, const std::string& label) {
  std::string key = op_kind_name(kind);
  key += '|';
  key += label;
  return key;
}

Operation& CausalTracer::open(std::uint64_t id, OpKind kind, std::string label,
                              sim::SimTime now) {
  Operation& op = open_[id];
  op.trace = id;
  op.kind = kind;
  op.label = std::move(label);
  op.start = now;
  op.end = now;
  return op;
}

std::uint64_t CausalTracer::begin(OpKind kind, const std::string& label, sim::SimTime now) {
  if (!enabled_) return 0;
  const std::string key = key_of(kind, label);
  if (const auto it = open_by_key_.find(key); it != open_by_key_.end()) return it->second;
  const std::uint64_t id = next_id_++;
  open(id, kind, label, now);
  open_by_key_.emplace(key, id);
  return id;
}

std::uint64_t CausalTracer::span_begin(std::uint64_t trace, std::uint64_t parent,
                                       const char* name, const std::string& node,
                                       sim::SimTime now) {
  if (trace == 0) return 0;
  const auto it = open_.find(trace);
  if (it == open_.end()) return 0;
  Span span;
  span.id = next_id_++;
  span.parent = parent;
  span.name = name;
  span.node = node;
  span.start = now;
  span.end = now;
  it->second.spans.push_back(std::move(span));
  return it->second.spans.back().id;
}

void CausalTracer::span_end(std::uint64_t trace, std::uint64_t span, sim::SimTime now) {
  if (trace == 0 || span == 0) return;
  const auto it = open_.find(trace);
  if (it == open_.end()) return;
  for (Span& s : it->second.spans) {
    if (s.id == span) {
      s.end = now;
      s.open = false;
      return;
    }
  }
}

void CausalTracer::finish(std::uint64_t trace, sim::SimTime now) {
  if (trace == 0) return;
  const auto it = open_.find(trace);
  if (it == open_.end()) return;
  Operation op = std::move(it->second);
  open_.erase(it);
  open_by_key_.erase(key_of(op.kind, op.label));
  op.end = now;
  for (Span& s : op.spans) {
    if (s.open) {
      s.end = std::max(s.start, now);
      s.open = false;
    }
  }
  ++completed_count_;
  if (on_complete_) on_complete_(op);
  completed_.push_back(std::move(op));
  while (completed_.size() > keep_) completed_.pop_front();
}

void CausalTracer::abandon(std::uint64_t trace) {
  if (trace == 0) return;
  const auto it = open_.find(trace);
  if (it == open_.end()) return;
  open_by_key_.erase(key_of(it->second.kind, it->second.label));
  open_.erase(it);
  ++abandoned_count_;
}

std::uint64_t CausalTracer::arm_flow(const net::VnEid& source, const net::VnEid& destination) {
  const std::uint64_t id = next_id_++;
  const auto [it, fresh] = flows_.try_emplace(Flow{source, destination}, id);
  if (!fresh) {
    abandon(it->second);  // a no-op while the old id was only armed
    it->second = id;
  }
  return id;
}

CausalTracer::Flows::iterator CausalTracer::flow_of(net::VnId vn,
                                                    const net::OverlayFrame& frame) {
  if (!frame.is_ipv4() && !frame.is_ipv6()) return flows_.end();
  return flows_.find(
      Flow{net::VnEid{vn, frame.source_eid()}, net::VnEid{vn, frame.destination_eid()}});
}

std::uint64_t CausalTracer::ingress(net::VnId vn, const net::OverlayFrame& frame,
                                    std::string_view node, sim::SimTime now) {
  const auto flow = flow_of(vn, frame);
  if (flow == flows_.end()) return 0;
  const std::uint64_t trace = flow->second;
  if (open_.contains(trace)) return trace;  // a later frame of a flow in flight
  Operation& op = open(trace, OpKind::FirstPacket,
                       flow->first.source.to_string() + " -> " +
                           flow->first.destination.to_string(),
                       now);
  op.spans.push_back(Span{next_id_++, 0, "ingress", std::string{node}, now, now, false});
  return trace;
}

void CausalTracer::hop(net::VnId vn, const net::OverlayFrame& frame, const char* hop,
                       std::string_view node, sim::SimTime now) {
  const auto flow = flow_of(vn, frame);
  if (flow == flows_.end()) return;
  const auto it = open_.find(flow->second);
  if (it == open_.end()) return;  // armed, not yet entered
  it->second.spans.push_back(Span{next_id_++, 0, hop, std::string{node}, now, now, false});
  const auto terminal = std::find(kTerminalHops.begin(), kTerminalHops.end(), hop);
  if (terminal == kTerminalHops.end()) return;
  it->second.dropped = terminal - kTerminalHops.begin() >= 2;
  flows_.erase(flow);
  finish(it->first, now);
}

std::vector<std::string> CausalTracer::open_labels() const {
  std::vector<std::string> labels;
  labels.reserve(open_.size());
  for (const auto& [id, op] : open_) {
    labels.push_back(key_of(op.kind, op.label));
  }
  std::sort(labels.begin(), labels.end());
  return labels;
}

std::string CausalTracer::to_chrome_trace() const {
  // One "thread" lane per operation kind keeps concurrent operations of the
  // same kind visually stacked; the op is the outer slice, spans nest under
  // it on the same lane (chrome://tracing nests by containment).
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Operation& op : completed_) {
    const auto tid = static_cast<std::uint64_t>(op.kind);
    if (!first) out += ',';
    first = false;
    std::string args = "{\"trace\":" + std::to_string(op.trace) + ",\"label\":\"" +
                       chrome_escape(op.label) + "\"}";
    append_event(out, std::string(op_kind_name(op.kind)) + " " + chrome_escape(op.label),
                 "operation", tid, op.start, op.end, args);
    for (const Span& span : op.spans) {
      out += ',';
      std::string span_args = "{\"span\":" + std::to_string(span.id) + ",\"parent\":" +
                              std::to_string(span.parent) + ",\"node\":\"" +
                              chrome_escape(span.node) + "\"}";
      append_event(out, chrome_escape(span.name), "span", tid, span.start, span.end, span_args);
    }
  }
  out += "]}\n";
  return out;
}

bool CausalTracer::write_chrome_trace(const std::string& dir, const std::string& name) const {
  const std::string path = dir + "/" + name + ".json";
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::string text = to_chrome_trace();
  const bool ok = std::fputs(text.c_str(), file) >= 0;
  std::fclose(file);
  return ok;
}

}  // namespace sda::telemetry
