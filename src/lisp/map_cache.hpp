// The edge router's map cache: on-demand overlay-to-underlay mappings.
//
// This is where the paper's reactive state saving materializes: an edge
// router only holds entries for destinations its attached endpoints are
// actively talking to (Fig. 9 counts exactly these entries). Entries carry
// the Map-Reply TTL; negative replies are cached briefly; capacity is
// bounded with LRU eviction to model small-FIB devices.
//
// Layout: entries live in a contiguous slot vector; the LRU list (head =
// most recently used) is a parallel array of 8-byte {prev, next} links, so
// relinking on a hit writes links, not entry slots. The key index is a
// FlatIndex (flat open addressing over slot numbers, hash-tagged, one-mix
// VnEidHash). A hit is one flat-table probe plus a relink — no per-entry
// node allocation and no pointer chasing. Erased slots are recycled through a
// sim::Slab and keep their locator vector's capacity, so a cache at steady
// state (hits, refreshes, installs and evictions at capacity) performs no
// allocation.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "lisp/flat_index.hpp"
#include "lisp/messages.hpp"
#include "net/eid.hpp"
#include "sim/slab.hpp"
#include "sim/time.hpp"

namespace sda::telemetry {
class MetricsRegistry;
}

namespace sda::lisp {

struct MapCacheEntry {
  std::vector<net::Rloc> rlocs;  // empty = negative entry
  sim::SimTime expires_at;
  sim::SimTime inserted_at;
  net::GroupId group;  // destination SGT, when distributed (§5.3 ablation)

  [[nodiscard]] bool negative() const { return rlocs.empty(); }
  [[nodiscard]] net::Ipv4Address primary_rloc() const {
    return rlocs.empty() ? net::Ipv4Address{} : rlocs.front().address;
  }
};

class MapCache {
 public:
  /// `capacity` bounds the number of entries (models FIB size); 0 = unbounded.
  /// Bounded caches reserve their slots up front, so entry pointers stay
  /// stable until the entry itself is evicted or invalidated.
  explicit MapCache(std::size_t capacity = 0);

  /// Looks up `eid` at time `now`. Expired entries are removed and count as
  /// misses. Hits refresh LRU position. The returned pointer is valid until
  /// the next mutating call (install/invalidate/sweep/clear).
  [[nodiscard]] const MapCacheEntry* lookup(const net::VnEid& eid, sim::SimTime now) {
    const std::uint32_t i =
        index_.find(eid, [this](std::uint32_t s) -> const net::VnEid& { return slots_[s].eid; });
    if (i == kNone) {
      ++stats_.misses;
      return nullptr;
    }
    if (slots_[i].entry.expires_at <= now) {
      erase_slot(i);
      ++stats_.expirations;
      ++stats_.misses;
      return nullptr;
    }
    touch(i);
    ++stats_.hits;
    return &slots_[i].entry;
  }

  /// Installs or replaces an entry from a Map-Reply.
  void install(const net::VnEid& eid, const MapReply& reply, sim::SimTime now);

  /// Installs a positive entry directly (used by Map-Notify handling).
  void install(const net::VnEid& eid, std::vector<net::Rloc> rlocs, std::uint32_t ttl_seconds,
               sim::SimTime now);

  /// Removes one entry; returns true if present.
  bool invalidate(const net::VnEid& eid);

  /// Removes every entry whose primary RLOC is `rloc` (underlay outage
  /// fallback, paper §5.1). Returns the number removed.
  std::size_t invalidate_rloc(net::Ipv4Address rloc);

  /// Drops expired entries (periodic sweep; Fig. 9's weekend cache clear).
  std::size_t sweep(sim::SimTime now);

  /// Drops everything (router reboot, §5.2).
  void clear();

  [[nodiscard]] std::size_t size() const { return index_.size(); }

  /// Number of non-negative (i.e. FIB-occupying) entries.
  [[nodiscard]] std::size_t positive_size() const { return positive_count_; }

  /// Visits entries in LRU order, most recently used first.
  void walk(const std::function<void(const net::VnEid&, const MapCacheEntry&)>& visit) const;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t expirations = 0;
    std::uint64_t evictions = 0;
    std::uint64_t installs = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Registers pull probes for the stats fields and occupancy gauges under
  /// `prefix` (e.g. "edge[3].map_cache"). Probes capture `this`: call
  /// registry.unregister_prefix(prefix) before destroying this cache.
  void register_metrics(telemetry::MetricsRegistry& registry, const std::string& prefix) const;

 private:
  using Index = FlatIndex<net::VnEid, net::VnEidHash>;
  static constexpr std::uint32_t kNone = Index::kNone;

  struct Slot {
    net::VnEid eid;
    MapCacheEntry entry;
  };
  /// A slot's place in the LRU chain, kept apart from the slot.
  struct Link {
    std::uint32_t prev = kNone;  // towards MRU
    std::uint32_t next = kNone;  // towards LRU
  };

  /// Unlinks `i` from the LRU chain (does not free the slot).
  void unlink(std::uint32_t i) {
    Link& l = links_[i];
    if (l.prev != kNone) {
      links_[l.prev].next = l.next;
    } else {
      head_ = l.next;
    }
    if (l.next != kNone) {
      links_[l.next].prev = l.prev;
    } else {
      tail_ = l.prev;
    }
    l.prev = l.next = kNone;
  }

  /// Links `i` at the head (most recently used) of the chain.
  void link_front(std::uint32_t i) {
    Link& l = links_[i];
    l.prev = kNone;
    l.next = head_;
    if (head_ != kNone) links_[head_].prev = i;
    head_ = i;
    if (tail_ == kNone) tail_ = i;
  }

  /// Unlink + link_front for a hit or refresh.
  void touch(std::uint32_t i) {
    if (head_ == i) return;
    unlink(i);
    link_front(i);
  }

  /// Reads a slot's key for the index.
  [[nodiscard]] auto key_of() const {
    return [this](std::uint32_t i) -> const net::VnEid& { return slots_[i].eid; };
  }
  /// Writes an entry's fields into slot `i`, reusing its locator capacity.
  void fill(std::uint32_t i, std::span<const net::Rloc> rlocs, std::uint32_t ttl_seconds,
            net::GroupId group, sim::SimTime now);
  /// Installs or replaces the entry for `eid` (both install() overloads).
  void install_entry(const net::VnEid& eid, std::span<const net::Rloc> rlocs,
                     std::uint32_t ttl_seconds, net::GroupId group, sim::SimTime now);
  /// Removes the entry in slot `i` entirely and recycles the slot.
  void erase_slot(std::uint32_t i);
  void evict_if_needed();

  std::size_t capacity_;
  std::size_t positive_count_ = 0;
  sim::Slab<Slot> slots_;
  std::vector<Link> links_;  // parallel to slots_
  std::uint32_t head_ = kNone;  // most recently used
  std::uint32_t tail_ = kNone;  // least recently used
  Index index_;
  Stats stats_;
};

}  // namespace sda::lisp
