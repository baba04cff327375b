// CausalTracer: span trees for fabric operations, the one trace model.
//
// An operation (a registration, a host move, an SMR fan-out, a failover
// re-home, a first packet) accumulates spans as it crosses the fabric and
// ends with finish(). Two kinds of entry feed it:
//  * control messages carry an id. begin() opens the operation and the id
//    rides inside the LISP messages (a trailing optional field, so the wire
//    format is unchanged when the id is 0); whoever receives the message
//    attributes its hop to the right operation without a side channel;
//  * frames match an armed flow. arm_flow() arms a FirstPacket operation
//    for one (vn, source EID, destination EID) flow; the flow's next IP
//    frame at an edge ingress opens it, and every data-plane hook it passes
//    (encap, underlay transit, border hairpin, decap, SGACL verdict)
//    appends a zero-length span until a terminal hop (delivery, an exit to
//    an external network, a deny or a drop) finishes it. The Map-Request
//    its miss sends nests under it through the fabric's in-process records,
//    never on the wire, so tracing does not change the run it measures.
//
// Zero-cost when idle: begin() returns 0 while disabled and every other
// control entry point early-outs on a 0 trace id; the data plane tests
// tracing_flows() (one branch on an empty table) before calling a hook or
// building any of its arguments.
//
// Completed operations are retained in one bounded ring (oldest dropped)
// and can be exported as Chrome trace-event JSON (chrome://tracing,
// Perfetto).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/eid.hpp"
#include "net/packet.hpp"
#include "sim/time.hpp"

namespace sda::telemetry {

/// What kind of operation a trace covers. Drives which histogram the
/// completion feeds.
enum class OpKind : std::uint8_t {
  Register,       // Map-Register sent -> accepted Map-Notify ack
  Move,           // roam start -> old edge applies the mobility Map-Notify
  SmrFanout,      // SMR sent -> stale sender's cache refreshed by Map-Reply
  FailoverRehome, // leader change -> every border re-homed via snapshot
  Catchup,        // replica lag detected -> digests agree again (replay or
                  // snapshot fallback)
  FirstPacket,    // an armed flow's frame enters an edge -> delivered or dropped
};

[[nodiscard]] const char* op_kind_name(OpKind kind);

/// One hop (or one timed leg) inside an operation.
struct Span {
  std::uint64_t id = 0;      // unique within the tracer, never 0
  std::uint64_t parent = 0;  // parent span id, 0 = direct child of the op
  std::string name;          // e.g. "map-register", "notify-ack", "decap"
  std::string node;          // which router/server the leg runs on/toward
  sim::SimTime start{};
  sim::SimTime end{};
  bool open = true;
};

/// An operation: the root of one span tree.
struct Operation {
  std::uint64_t trace = 0;  // the id threaded through the messages
  OpKind kind = OpKind::Register;
  std::string label;        // human key, e.g. the EID, "epoch 3" or the flow
  sim::SimTime start{};
  sim::SimTime end{};
  std::vector<Span> spans;
  bool dropped = false;     // a first packet that ended in a deny or a drop

  [[nodiscard]] sim::Duration duration() const { return end - start; }
};

class CausalTracer {
 public:
  using CompletionCallback = std::function<void(const Operation&)>;

  explicit CausalTracer(std::size_t keep = 256) : keep_(keep) {}

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Invoked (synchronously) whenever an operation finishes.
  void set_completion_callback(CompletionCallback cb) { on_complete_ = std::move(cb); }

  /// Opens an operation and returns its trace id (0 when disabled). If an
  /// operation with the same (kind, label) is already open — e.g. a
  /// retransmitted registration — the existing id is returned, so retries
  /// accumulate into one span tree.
  std::uint64_t begin(OpKind kind, const std::string& label, sim::SimTime now);

  /// Opens a span under `trace`. Returns the span id (0 when the trace is
  /// unknown/0, which makes chained calls on untraced ops free).
  std::uint64_t span_begin(std::uint64_t trace, std::uint64_t parent, const char* name,
                           const std::string& node, sim::SimTime now);

  /// Closes a span. Unknown ids are ignored.
  void span_end(std::uint64_t trace, std::uint64_t span, sim::SimTime now);

  /// Completes the operation: stamps the end time, fires the completion
  /// callback, and retires it into the bounded completed ring. Still-open
  /// spans are clamped to the operation end. No-op for unknown ids (so a
  /// second ack finishing an already-finished op is harmless).
  void finish(std::uint64_t trace, sim::SimTime now);

  /// Drops an open operation without completing it (no callback, no
  /// retention). Used when the op can provably never finish.
  void abandon(std::uint64_t trace);

  // --- First packets: frames match an armed flow ---------------------------

  /// Arms a one-shot FirstPacket operation for the next `source ->
  /// destination` IP frame seen at an edge ingress and returns its trace
  /// id. Arming is itself the opt-in: it works whether or not the tracer is
  /// enabled. Re-arming a flow abandons its open operation, which can never
  /// finish now (its terminal hop would be the new packet's).
  std::uint64_t arm_flow(const net::VnEid& source, const net::VnEid& destination);

  /// True while a flow is armed or its first packet is in flight: the data
  /// plane's fast path tests this inline before calling a hook.
  [[nodiscard]] bool tracing_flows() const { return !flows_.empty(); }

  /// Edge ingress: the frame's armed flow opens its operation with an
  /// "ingress" span. Returns the trace id of the operation the frame
  /// belongs to (0 if none), so that the resolution a miss sends can nest
  /// under it. Non-IP frames never match.
  std::uint64_t ingress(net::VnId vn, const net::OverlayFrame& frame, std::string_view node,
                        sim::SimTime now);

  /// Appends a zero-length span `hop` on `node` to the open operation of
  /// the frame's flow, if any. A terminal hop ("deliver", "external-out",
  /// "sgacl-deny", "drop") finishes it; the last two mark it dropped.
  void hop(net::VnId vn, const net::OverlayFrame& frame, const char* hop, std::string_view node,
           sim::SimTime now);

  [[nodiscard]] std::size_t open_count() const { return open_.size(); }
  [[nodiscard]] std::uint64_t completed_count() const { return completed_count_; }
  /// Operations abandoned, control ones and first packets alike.
  [[nodiscard]] std::uint64_t abandoned_count() const { return abandoned_count_; }
  [[nodiscard]] const std::deque<Operation>& completed() const { return completed_; }

  /// Labels of the operations still open (for leak diagnostics).
  [[nodiscard]] std::vector<std::string> open_labels() const;

  /// Chrome trace-event JSON ("traceEvents" array of complete events, one
  /// per operation and one per span; ts/dur in microseconds of sim time).
  /// Deterministic for a fixed seed. Load in chrome://tracing or Perfetto.
  [[nodiscard]] std::string to_chrome_trace() const;

  /// Writes to_chrome_trace() to `<dir>/<name>.json`.
  bool write_chrome_trace(const std::string& dir, const std::string& name) const;

 private:
  struct Flow {
    net::VnEid source;
    net::VnEid destination;
    friend bool operator==(const Flow&, const Flow&) = default;
  };
  struct FlowHash {
    std::size_t operator()(const Flow& f) const noexcept {
      return net::hash_combine(net::VnEidHash{}(f.source), net::VnEidHash{}(f.destination));
    }
  };
  using Flows = std::unordered_map<Flow, std::uint64_t, FlowHash>;

  [[nodiscard]] static std::string key_of(OpKind kind, const std::string& label);
  /// Opens operation `id` (not keyed for begin()'s dedup).
  Operation& open(std::uint64_t id, OpKind kind, std::string label, sim::SimTime now);
  /// The armed or in-flight entry of an IP frame's flow, or flows_.end().
  [[nodiscard]] Flows::iterator flow_of(net::VnId vn, const net::OverlayFrame& frame);

  bool enabled_ = false;
  std::size_t keep_;
  std::uint64_t next_id_ = 1;  // shared by traces and spans
  std::unordered_map<std::uint64_t, Operation> open_;
  std::unordered_map<std::string, std::uint64_t> open_by_key_;
  /// Armed flows and first packets in flight: flow -> trace id. The flow is
  /// in flight once its id is in open_.
  Flows flows_;
  std::deque<Operation> completed_;
  std::uint64_t completed_count_ = 0;
  std::uint64_t abandoned_count_ = 0;
  CompletionCallback on_complete_;
};

}  // namespace sda::telemetry
