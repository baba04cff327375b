// The SDA routing server (LISP map server / map resolver).
//
// Stores endpoint location — (VN, EID) -> RLOC set — in per-VN, per-family
// Patricia tries (paper §4.1 credits the trie for load-independent lookup
// latency). Supports host and prefix registrations, longest-prefix
// resolution, mobility move detection with previous-RLOC notification
// (Fig. 5), and a pub/sub feed that keeps border routers synchronized
// (Fig. 1 "sync" arrow).
//
// The MapServer itself is a passive, synchronous data structure so it can
// be measured directly (Fig. 7a/7b). MapServerNode (map_server_node.hpp)
// wraps it with the queueing/service-time front end used in simulations.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "lisp/messages.hpp"
#include "net/eid.hpp"
#include "net/prefix.hpp"
#include "trie/patricia.hpp"

namespace sda::telemetry {
class MetricsRegistry;
}

namespace sda::lisp {

/// A stored mapping: the locator set serving an EID (or EID prefix).
struct MappingRecord {
  std::vector<net::Rloc> rlocs;
  std::uint32_t ttl_seconds = 1440 * 60;
  /// The endpoint's group tag, when known. Only consumed by the
  /// ingress-enforcement ablation (§5.3) — egress enforcement deliberately
  /// avoids distributing groups through the routing server.
  net::GroupId group{};
  /// When this registration was last (re)registered. Registrations are
  /// soft state: expire_registrations() ages them out past their TTL, and
  /// edges periodically re-register to keep them alive.
  sim::SimTime refreshed_at{};

  [[nodiscard]] net::Ipv4Address primary_rloc() const {
    return rlocs.empty() ? net::Ipv4Address{} : rlocs.front().address;
  }
  friend bool operator==(const MappingRecord&, const MappingRecord&) = default;
};

/// Replica-comparison equality: locator set, TTL, and group — but not
/// refreshed_at, which legitimately differs across replicas (each node
/// stamps its own arrival time for the same fanned-out register).
[[nodiscard]] bool equivalent(const MappingRecord& a, const MappingRecord& b);

/// Outcome of a registration, including mobility detection.
struct RegisterOutcome {
  bool created = false;  // first registration of this EID
  bool moved = false;    // RLOC set changed (mobility event)
  net::Ipv4Address previous_rloc;  // valid when moved
};

class MapServer {
 public:
  /// (eid, old primary rloc, new record) — fired when an EID's locator set
  /// changes; the fabric uses it to Map-Notify the previous edge router.
  using MoveCallback =
      std::function<void(const net::VnEid&, net::Ipv4Address, const MappingRecord&)>;
  /// (eid, record-or-withdrawal) — fired on every database change; feeds
  /// pub/sub subscribers (border routers).
  using PublishCallback = std::function<void(const net::VnEid&, const MappingRecord*)>;

  MapServer() = default;

  /// Registers (or refreshes) a host EID mapping.
  RegisterOutcome register_mapping(const net::VnEid& eid, const MappingRecord& record);

  /// Registers a covering prefix (e.g. the border's external /0, or a
  /// DC-subnet route). Resolution prefers more-specific host entries.
  void register_prefix(net::VnId vn, const net::Ipv4Prefix& prefix, const MappingRecord& record);
  void register_prefix(net::VnId vn, const net::Ipv6Prefix& prefix, const MappingRecord& record);

  /// Removes a host mapping, but only if `owner` still owns it (guards
  /// against a stale deregistration racing a re-registration elsewhere).
  /// `now` timestamps the tombstone left behind so anti-entropy can tell a
  /// deliberate deletion apart from a registration the peer never saw.
  bool deregister(const net::VnEid& eid, net::Ipv4Address owner, sim::SimTime now = {});

  /// Soft-state aging: removes (and publishes withdrawals for) every host
  /// registration whose TTL elapsed since its last refresh. Prefix
  /// registrations are operator state and never expire. Returns the
  /// number removed.
  std::size_t expire_registrations(sim::SimTime now);

  /// Crash semantics: drops every mapping (host and prefix) and L2 binding
  /// *without* publishing withdrawals — a dead server tells nobody.
  /// Subscribers reconcile via snapshot resync; edges rebuild the database
  /// through reliable re-registration.
  void clear();

  /// Longest-prefix resolution. nullopt = no covering mapping (negative).
  [[nodiscard]] std::optional<MappingRecord> resolve(const net::VnEid& eid) const;
  /// Longest-prefix resolution in place: the covering record, or nullptr.
  /// Valid until the next mutation.
  [[nodiscard]] const MappingRecord* find_covering(const net::VnEid& eid) const;

  /// Exact-match host lookup (no prefix fallback).
  [[nodiscard]] const MappingRecord* find_host(const net::VnEid& eid) const;

  /// Builds the MapReply for a request (positive, or negative with
  /// NativelyForward so the ITR keeps using the border default).
  [[nodiscard]] MapReply answer(const MapRequest& request) const;
  /// Same, written over `reply` (every field): the record is read in place
  /// and `reply.rlocs` keeps its capacity, so answering allocates nothing
  /// once the reply has held a locator set as large.
  void answer(const MapRequest& request, MapReply& reply) const;

  /// TTL stamped on negative replies (the ITR's negative map-cache window:
  /// how long a miss is remembered before the EID is re-resolved).
  static constexpr std::uint32_t kNegativeTtlSeconds = 60;

  // --- Replica anti-entropy (PR 4) ---------------------------------------

  /// Order-independent digest over all host mappings (EID, locator set,
  /// TTL, group — refreshed_at excluded, see equivalent()). Two replicas
  /// with the same registration contents produce the same digest, so a
  /// cheap digest exchange detects divergence without shipping the tables.
  [[nodiscard]] std::uint64_t digest() const;

  struct ReconcileStats {
    std::size_t pushed = 0;        // mappings copied into the peer
    std::size_t pulled = 0;        // mappings copied from the peer
    std::size_t removed_here = 0;  // deletions propagated from the peer
    std::size_t removed_peer = 0;  // deletions propagated to the peer
    [[nodiscard]] std::size_t total() const {
      return pushed + pulled + removed_here + removed_peer;
    }
  };

  /// Two-way newest-wins merge with `peer`: mappings only one side holds
  /// are copied across unless the other side's tombstone proves a newer
  /// deletion; mappings both hold converge on the later refreshed_at.
  /// Writes go through register_mapping/deregister, so whichever side has
  /// publish subscribers (the primary) notifies them of repairs. Tombstones
  /// older than `tombstone_horizon` are pruned on both sides afterwards.
  ReconcileStats reconcile_with(MapServer& peer, sim::SimTime now,
                                sim::Duration tombstone_horizon = std::chrono::minutes{5});

  /// Deletion marker left by deregister/expire, if one is still retained.
  [[nodiscard]] std::optional<sim::SimTime> tombstone(const net::VnEid& eid) const;
  [[nodiscard]] std::size_t tombstone_count() const { return tombstones_.size(); }

  // --- Log-style catch-up (PR 9) -----------------------------------------

  /// One sequenced mutation in the catch-up log: a register / refresh /
  /// move (tombstone == false, `record` valid) or a deletion (tombstone ==
  /// true). `stamped` is the refresh or deletion time — replays resolve
  /// newest-wins against local state exactly like reconcile_with.
  struct LogEntry {
    std::uint64_t seq = 0;
    net::VnEid eid;
    bool tombstone = false;
    MappingRecord record;
    sim::SimTime stamped{};
  };

  /// Arms the bounded mutation log: a ring of `capacity` entries appended
  /// on every host-mapping mutation (prefix registrations are operator
  /// state and not logged, matching digest()). Old entries fall off the
  /// horizon as the ring wraps. 0 disables the log (snapshot-only).
  void set_log_capacity(std::size_t capacity);
  [[nodiscard]] std::size_t log_capacity() const { return log_capacity_; }

  /// The sequence the next mutation will take (starts at 1; monotonic
  /// across clear()). The newest retained entry is log_next_seq() - 1.
  [[nodiscard]] std::uint64_t log_next_seq() const { return log_next_seq_; }

  /// The oldest sequence the ring still holds (== log_next_seq() when
  /// empty or disabled).
  [[nodiscard]] std::uint64_t log_horizon_seq() const;

  /// Whether every entry in [from_seq, log_next_seq()) is still retained —
  /// i.e. a replica that applied everything below `from_seq` can catch up
  /// by replay instead of a full snapshot reconcile.
  [[nodiscard]] bool log_covers(std::uint64_t from_seq) const;

  /// Visits the retained entries with seq in [from_seq, log_next_seq())
  /// in sequence order; returns the number visited.
  std::size_t replay_log(std::uint64_t from_seq,
                         const std::function<void(const LogEntry&)>& visit) const;

  /// Applies one replayed leader-log entry with the same newest-wins /
  /// tombstone rules as reconcile_with, so replaying a delta converges to
  /// the same state a snapshot reconcile would.
  void apply_log_entry(const LogEntry& entry);

  /// Bumped by clear(): lets a peer tell a cold restart (replay seq state
  /// is meaningless, take the snapshot path) from plain lag.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  void set_move_callback(MoveCallback cb) { on_move_ = std::move(cb); }
  void set_publish_callback(PublishCallback cb) { on_publish_ = std::move(cb); }

  /// Endpoint (host) mappings across all VNs and families; infrastructure
  /// prefixes are not counted.
  [[nodiscard]] std::size_t mapping_count() const;

  /// Endpoint mappings stored for one VN.
  [[nodiscard]] std::size_t mapping_count(net::VnId vn) const;

  /// Raw entry count including prefix registrations (database footprint).
  [[nodiscard]] std::size_t total_entries() const;

  /// Visits every mapping (used to bootstrap a new pub/sub subscriber).
  void walk(const std::function<void(const net::VnEid&, const MappingRecord&)>& visit) const;

  // --- L2 service support (§3.5): overlay IP -> MAC bindings --------------

  /// Stores the IP->MAC pair for an endpoint (element iii of §3.5).
  void bind_l2(const net::VnEid& ip_eid, const net::MacAddress& mac);
  /// Removes the binding; true if present.
  bool unbind_l2(const net::VnEid& ip_eid);
  /// The MAC bound to an overlay IP, if any (used by L2 gateways to convert
  /// broadcast ARP into unicast).
  [[nodiscard]] std::optional<net::MacAddress> lookup_mac(const net::VnEid& ip_eid) const;

  struct Stats {
    std::uint64_t registers = 0;
    std::uint64_t moves = 0;
    std::uint64_t deregisters = 0;
    std::uint64_t requests = 0;
    std::uint64_t negative_replies = 0;
    std::uint64_t expirations = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Registers pull probes for the stats fields and database-footprint
  /// gauges under `prefix` (e.g. "map_server"). Probes capture `this`.
  void register_metrics(telemetry::MetricsRegistry& registry, const std::string& prefix) const;

 private:
  struct VnDatabase {
    trie::PatriciaTrie<MappingRecord> v4;
    trie::PatriciaTrie<MappingRecord> v6;
    trie::PatriciaTrie<MappingRecord> mac;

    [[nodiscard]] trie::PatriciaTrie<MappingRecord>& family(net::EidFamily f) {
      switch (f) {
        case net::EidFamily::Ipv4: return v4;
        case net::EidFamily::Ipv6: return v6;
        case net::EidFamily::Mac: return mac;
      }
      return v4;
    }
    [[nodiscard]] const trie::PatriciaTrie<MappingRecord>& family(net::EidFamily f) const {
      return const_cast<VnDatabase*>(this)->family(f);
    }
  };

  void publish(const net::VnEid& eid, const MappingRecord* record) const {
    if (on_publish_) on_publish_(eid, record);
  }

  void log_append(const net::VnEid& eid, const MappingRecord* record, sim::SimTime stamped);

  // std::map keeps VN iteration order deterministic for walk().
  std::map<net::VnId, VnDatabase> databases_;
  std::unordered_map<net::VnEid, net::MacAddress> l2_bindings_;
  // Deletion markers (EID -> when removed) so reconcile_with can tell
  // "peer deleted this" from "peer never heard of this". Crash-cleared.
  std::unordered_map<net::VnEid, sim::SimTime> tombstones_;
  // Catch-up log ring: slot (seq - 1) % capacity holds the seq'th mutation.
  std::vector<LogEntry> log_;
  std::size_t log_capacity_ = 0;
  std::size_t log_size_ = 0;  // entries retained (<= capacity)
  std::uint64_t log_next_seq_ = 1;
  std::uint64_t generation_ = 0;
  MoveCallback on_move_;
  PublishCallback on_publish_;
  mutable Stats stats_;
};

}  // namespace sda::lisp
