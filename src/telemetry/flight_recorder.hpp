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
// so recording formats nothing and, once each slot has held its longest
// node name and quoted name, allocates nothing. Rare call sites still pass
// free text through the same record() call.
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

class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = 2048);

  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Records one event with a free-text detail (no-op while disabled).
  /// Callers that build the text should check enabled() first.
  void record(sim::SimTime at, EventKind kind, std::string_view node,
              std::string_view detail = {});
  /// Records one event by its fields; the detail is rendered from `form`
  /// when the ring is read.
  void record(sim::SimTime at, EventKind kind, std::string_view node, DetailForm form,
              const net::VnEid& eid, net::Ipv4Address rloc = {}, std::uint64_t number = 0,
              std::string_view name = {});

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
  /// One ring slot: the event's fields. The strings keep their capacity
  /// across overwrites.
  struct Slot {
    std::uint64_t seq = 0;
    sim::SimTime at;
    EventKind kind = EventKind::Custom;
    DetailForm form = DetailForm::Text;
    net::VnEid eid;
    net::Ipv4Address rloc;
    std::uint64_t number = 0;
    std::string node;
    std::string text;  // the free text, or the <name> a form quotes

    [[nodiscard]] FlightEvent render() const;
  };

  /// The slot the next event goes to; advances the sequence.
  Slot& next_slot(sim::SimTime at, EventKind kind, std::string_view node);

  std::vector<Slot> ring_;  // capacity slots; slot = (seq - 1) % capacity
  std::uint64_t seq_ = 0;
  bool enabled_ = true;
};

}  // namespace sda::telemetry
