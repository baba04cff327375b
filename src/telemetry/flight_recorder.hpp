// Control-plane flight recorder: a bounded ring of timestamped events.
//
// Every interesting control-plane transition (Map-Request/Reply/Register/
// Notify, SMR, pub/sub publish & resync, policy push, group change, fault
// injections, feed/link state) is recorded with the simulated time, the
// node it concerns, and a short detail. The ring is bounded — old events
// are overwritten, the overwrite count is kept — so it can stay enabled for
// the lifetime of a large run and still answer "what were the last N
// control-plane actions before this went wrong".
//
// Busy call sites (the Map-Request / Map-Reply legs of every map-cache
// miss, and the Map-Notify, SMR and completion of every roam) record
// fields — an EID, an RLOC, a number, a name and a DetailForm saying how
// to phrase them — and the text is rendered only when the ring is read,
// so recording formats nothing. Each slot is one 64-byte line: the node is
// a 16-bit ref to a name interned once (edges, borders and servers intern
// theirs up front and pass the ref), and text lives in a side ring that is
// written only when a form quotes a name or free text. Rare call sites
// still pass a node name and free text, interned on the way in.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/eid.hpp"
#include "net/ip_address.hpp"
#include "sim/time.hpp"

namespace sda::telemetry {

enum class EventKind : std::uint8_t {
  MapRequest,
  MapReply,
  MapRegister,
  MapNotify,
  Smr,
  Publish,
  Resync,
  SnapshotApplied,
  PolicyPush,
  GroupChange,
  RuleUpdate,
  Onboard,
  Roam,
  Disconnect,
  Reboot,
  LinkState,
  FeedState,
  Fault,
  Failover,     // edge group's requests repointed at a replica server
  Failback,     // hysteresis satisfied: back on the home server
  AntiEntropy,  // replica digest exchange / reconciliation round
  Shed,         // bounded admission shed a control message
  ElectionStarted,   // a replica lost the leader and opened a new term
  LeaderElected,     // a candidate won: new leader + epoch announced
  EpochRejected,     // a stale-epoch message was fenced off (split-brain)
  ServerSuppressed,  // flap dampening crossed the suppress/reuse threshold
  QuorumLost,        // a candidacy failed its majority ack count (stalled)
  QuorumRegained,    // a leader was elected with quorum after a stall
  Custom,
};

[[nodiscard]] const char* event_kind_name(EventKind kind);

/// How a field-recorded event's detail text reads (`<eid>`, `<rloc>`, `<n>`
/// and `<name>` are the recorded EID, RLOC, number and name; `<node>` is
/// the event's node).
enum class DetailForm : std::uint8_t {
  Text,            // the free text passed to record()
  ForEid,          // "for <eid>"
  ForEidToRloc,    // "for <eid> -> <rloc>"
  ForEidToName,    // "for <eid> -> <name>"
  NegativeForEid,  // "negative for <eid>"
  RequestForEid,   // "map-request for <eid>"
  RegisterForEid,  // "map-register for <eid>"
  PublishSeq,      // "publish <eid> seq <n>"
  WithdrawSeq,     // "withdraw <eid> seq <n>"
  MoveNotify,      // "move of <eid>, notify old edge <name>"
  RoamedTo,        // "<name> roamed to <node>"
  OnboardedAt,     // "<name> onboarded at <node>"
};

/// A recorded event as read back: the detail rendered to text.
struct FlightEvent {
  std::uint64_t seq = 0;  // monotonic, starts at 1
  sim::SimTime at;
  EventKind kind = EventKind::Custom;
  std::string node;
  std::string detail;

  [[nodiscard]] std::string to_string() const;
};

/// A node name interned in a FlightRecorder.
using NodeRef = std::uint16_t;

class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = 2048);

  /// The ref of `node`'s name, interned on first use (a scan of the names
  /// so far: intern busy names once and keep the ref).
  [[nodiscard]] NodeRef intern(std::string_view node);

  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Records one event with a free-text detail (no-op while disabled).
  /// Callers that build the text should check enabled() first.
  void record(sim::SimTime at, EventKind kind, std::string_view node,
              std::string_view detail = {});
  /// Records one event by its fields; the detail is rendered from `form`
  /// when the ring is read.
  void record(sim::SimTime at, EventKind kind, NodeRef node, DetailForm form,
              const net::VnEid& eid, net::Ipv4Address rloc = {}, std::uint64_t number = 0,
              std::string_view name = {});
  void record(sim::SimTime at, EventKind kind, std::string_view node, DetailForm form,
              const net::VnEid& eid, net::Ipv4Address rloc = {}, std::uint64_t number = 0,
              std::string_view name = {}) {
    if (enabled_) record(at, kind, intern(node), form, eid, rloc, number, name);
  }

  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  /// Events currently held (<= capacity).
  [[nodiscard]] std::size_t size() const;
  /// Total events ever recorded.
  [[nodiscard]] std::uint64_t recorded() const { return seq_; }
  /// Events lost to ring wraparound.
  [[nodiscard]] std::uint64_t overwritten() const;

  /// All held events, oldest -> newest.
  [[nodiscard]] std::vector<FlightEvent> events() const;
  /// The newest `n` events, oldest -> newest.
  [[nodiscard]] std::vector<FlightEvent> tail(std::size_t n) const;
  /// Held events whose node matches, oldest -> newest (per-node scoping).
  [[nodiscard]] std::vector<FlightEvent> for_node(const std::string& node) const;

  /// Human-readable dump of the newest `max_events` events.
  [[nodiscard]] std::string dump(std::size_t max_events = SIZE_MAX) const;

  void clear();

 private:
  /// One ring slot, one cache line: the event's fields, its node by ref.
  struct alignas(64) Slot {
    std::uint64_t seq = 0;
    sim::SimTime at;
    net::VnEid eid;
    std::uint64_t number = 0;
    net::Ipv4Address rloc;
    NodeRef node = 0;
    EventKind kind = EventKind::Custom;
    DetailForm form = DetailForm::Text;
  };
  static_assert(sizeof(Slot) == 64);

  /// The index of the slot the next event goes to; fills in its header and
  /// advances the sequence.
  std::size_t next_slot(sim::SimTime at, EventKind kind, NodeRef node, DetailForm form);
  [[nodiscard]] FlightEvent render(std::size_t index) const;
  /// The held events whose index passes `keep`, oldest -> newest.
  template <typename Keep>
  [[nodiscard]] std::vector<FlightEvent> collect(std::size_t n, Keep keep) const;

  std::vector<Slot> ring_;  // capacity slots; slot = (seq - 1) % capacity
  /// The side ring: text_[i] is slot i's free text, or the <name> its form
  /// quotes. The strings keep their capacity across overwrites.
  std::vector<std::string> text_;
  std::vector<std::string> names_;  // names_[ref] is an interned node name
  std::uint64_t seq_ = 0;
  bool enabled_ = true;
};

}  // namespace sda::telemetry
