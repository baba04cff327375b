#include "lisp/map_server.hpp"

#include <algorithm>
#include <cassert>

#include "telemetry/metrics.hpp"

namespace sda::lisp {

bool equivalent(const MappingRecord& a, const MappingRecord& b) {
  return a.rlocs == b.rlocs && a.ttl_seconds == b.ttl_seconds && a.group == b.group;
}

RegisterOutcome MapServer::register_mapping(const net::VnEid& eid, const MappingRecord& record) {
  assert(!record.rlocs.empty());
  ++stats_.registers;
  tombstones_.erase(eid);
  auto& db = databases_[eid.vn].family(eid.eid.family());
  const trie::BitKey key = trie::BitKey::from_eid(eid.eid);

  RegisterOutcome outcome;
  if (MappingRecord* existing = db.find_exact(key)) {
    if (existing->rlocs != record.rlocs) {
      outcome.moved = true;
      outcome.previous_rloc = existing->primary_rloc();
      ++stats_.moves;
    }
    *existing = record;
    log_append(eid, &record, record.refreshed_at);
    if (outcome.moved) {
      if (on_move_) on_move_(eid, outcome.previous_rloc, record);
      publish(eid, &record);
    }
    return outcome;
  }

  db.insert(key, record);
  outcome.created = true;
  log_append(eid, &record, record.refreshed_at);
  publish(eid, &record);
  return outcome;
}

void MapServer::log_append(const net::VnEid& eid, const MappingRecord* record,
                           sim::SimTime stamped) {
  if (log_capacity_ == 0) return;
  LogEntry& slot = log_[(log_next_seq_ - 1) % log_capacity_];
  slot.seq = log_next_seq_++;
  slot.eid = eid;
  slot.tombstone = record == nullptr;
  slot.record = record ? *record : MappingRecord{};
  slot.stamped = stamped;
  log_size_ = std::min(log_size_ + 1, log_capacity_);
}

void MapServer::set_log_capacity(std::size_t capacity) {
  log_capacity_ = capacity;
  log_.assign(capacity, LogEntry{});
  log_size_ = 0;
}

std::uint64_t MapServer::log_horizon_seq() const { return log_next_seq_ - log_size_; }

bool MapServer::log_covers(std::uint64_t from_seq) const {
  if (log_capacity_ == 0) return from_seq >= log_next_seq_;
  return from_seq >= log_horizon_seq();
}

std::size_t MapServer::replay_log(std::uint64_t from_seq,
                                  const std::function<void(const LogEntry&)>& visit) const {
  if (log_capacity_ == 0 || !log_covers(from_seq)) return 0;
  std::size_t visited = 0;
  for (std::uint64_t s = std::max(from_seq, log_horizon_seq()); s < log_next_seq_; ++s) {
    visit(log_[(s - 1) % log_capacity_]);
    ++visited;
  }
  return visited;
}

void MapServer::apply_log_entry(const LogEntry& entry) {
  const MappingRecord* existing = find_host(entry.eid);
  if (entry.tombstone) {
    if (existing) {
      // The leader deleted it; a newer local refresh wins (same rule as
      // reconcile_with).
      if (entry.stamped >= existing->refreshed_at) {
        deregister(entry.eid, existing->primary_rloc(), entry.stamped);
      }
    } else {
      // Nothing to delete, but remember the deletion so a later reconcile
      // doesn't resurrect the EID from a third replica.
      tombstones_[entry.eid] = entry.stamped;
    }
    return;
  }
  if (existing && existing->refreshed_at > entry.record.refreshed_at) return;
  if (const auto death = tombstone(entry.eid); death && *death >= entry.record.refreshed_at) {
    return;  // locally deleted after the leader's copy was refreshed
  }
  register_mapping(entry.eid, entry.record);
}

void MapServer::register_prefix(net::VnId vn, const net::Ipv4Prefix& prefix,
                                const MappingRecord& record) {
  databases_[vn].v4.insert(trie::BitKey::from_ipv4_prefix(prefix), record);
}

void MapServer::register_prefix(net::VnId vn, const net::Ipv6Prefix& prefix,
                                const MappingRecord& record) {
  databases_[vn].v6.insert(trie::BitKey::from_ipv6_prefix(prefix), record);
}

bool MapServer::deregister(const net::VnEid& eid, net::Ipv4Address owner, sim::SimTime now) {
  const auto it = databases_.find(eid.vn);
  if (it == databases_.end()) return false;
  auto& db = it->second.family(eid.eid.family());
  const trie::BitKey key = trie::BitKey::from_eid(eid.eid);
  const MappingRecord* existing = db.find_exact(key);
  if (!existing || existing->primary_rloc() != owner) return false;
  db.erase(key);
  tombstones_[eid] = now;
  ++stats_.deregisters;
  log_append(eid, nullptr, now);
  publish(eid, nullptr);
  return true;
}

std::size_t MapServer::expire_registrations(sim::SimTime now) {
  std::vector<net::VnEid> doomed;
  walk([&](const net::VnEid& eid, const MappingRecord& record) {
    if (now - record.refreshed_at >= std::chrono::seconds{record.ttl_seconds}) {
      doomed.push_back(eid);
    }
  });
  for (const auto& eid : doomed) {
    auto& db = databases_[eid.vn].family(eid.eid.family());
    db.erase(trie::BitKey::from_eid(eid.eid));
    tombstones_[eid] = now;
    ++stats_.expirations;
    log_append(eid, nullptr, now);
    publish(eid, nullptr);
  }
  return doomed.size();
}

void MapServer::clear() {
  databases_.clear();
  l2_bindings_.clear();
  tombstones_.clear();  // a crashed server forgets its deletions too
  log_.assign(log_capacity_, LogEntry{});
  log_size_ = 0;  // the retained window is gone; log_next_seq_ stays monotonic
  ++generation_;  // a peer's replay bookkeeping for us is now meaningless
}

std::optional<MappingRecord> MapServer::resolve(const net::VnEid& eid) const {
  const MappingRecord* record = find_covering(eid);
  if (record == nullptr) return std::nullopt;
  return *record;
}

const MappingRecord* MapServer::find_covering(const net::VnEid& eid) const {
  const auto it = databases_.find(eid.vn);
  if (it == databases_.end()) return nullptr;
  const auto& db = it->second.family(eid.eid.family());
  const auto match = db.longest_match(trie::BitKey::from_eid(eid.eid));
  return match ? match->second : nullptr;
}

const MappingRecord* MapServer::find_host(const net::VnEid& eid) const {
  const auto it = databases_.find(eid.vn);
  if (it == databases_.end()) return nullptr;
  return it->second.family(eid.eid.family()).find_exact(trie::BitKey::from_eid(eid.eid));
}

MapReply MapServer::answer(const MapRequest& request) const {
  MapReply reply;
  answer(request, reply);
  return reply;
}

void MapServer::answer(const MapRequest& request, MapReply& reply) const {
  ++stats_.requests;
  reply.nonce = request.nonce;
  reply.eid = request.eid;
  reply.trace = 0;
  if (const MappingRecord* record = find_covering(request.eid)) {
    reply.rlocs.assign(record->rlocs.begin(), record->rlocs.end());
    reply.ttl_seconds = record->ttl_seconds;
    reply.group = record->group.value();
    reply.action = MapReplyAction::NoAction;
  } else {
    ++stats_.negative_replies;
    reply.rlocs.clear();
    reply.group = 0;
    reply.action = MapReplyAction::NativelyForward;
    reply.ttl_seconds = kNegativeTtlSeconds;
  }
}

namespace {

// splitmix64 finalizer: scrambles per-entry hashes before the XOR fold so
// near-identical entries (adjacent EIDs, same RLOC) don't cancel out.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t entry_hash(const net::VnEid& eid, const MappingRecord& record) {
  std::uint64_t h = std::hash<net::VnEid>{}(eid);
  const auto fold = [&h](std::uint64_t v) { h = (h ^ v) * 0x100000001B3ull; };
  for (const auto& rloc : record.rlocs) {
    fold(rloc.address.value());
    fold((std::uint64_t{rloc.priority} << 8) | std::uint64_t{rloc.weight});
  }
  fold(record.ttl_seconds);
  fold(record.group.value());
  return mix64(h);
}

}  // namespace

std::uint64_t MapServer::digest() const {
  std::uint64_t d = 0;
  walk([&d](const net::VnEid& eid, const MappingRecord& record) {
    d ^= entry_hash(eid, record);
  });
  return d;
}

MapServer::ReconcileStats MapServer::reconcile_with(MapServer& peer, sim::SimTime now,
                                                    sim::Duration tombstone_horizon) {
  ReconcileStats stats;
  std::unordered_map<net::VnEid, MappingRecord> mine, theirs;
  walk([&mine](const net::VnEid& eid, const MappingRecord& r) { mine.emplace(eid, r); });
  peer.walk([&theirs](const net::VnEid& eid, const MappingRecord& r) { theirs.emplace(eid, r); });

  for (const auto& [eid, record] : mine) {
    const auto it = theirs.find(eid);
    if (it != theirs.end()) {
      if (equivalent(record, it->second)) continue;
      // Both sides hold the EID with different contents: newest wins.
      if (record.refreshed_at >= it->second.refreshed_at) {
        peer.register_mapping(eid, record);
        ++stats.pushed;
      } else {
        register_mapping(eid, it->second);
        ++stats.pulled;
      }
      continue;
    }
    // Only we hold it. If the peer deleted it after our copy was last
    // refreshed, the deletion wins; otherwise the peer simply missed it.
    const auto peer_death = peer.tombstone(eid);
    if (peer_death && *peer_death >= record.refreshed_at) {
      deregister(eid, record.primary_rloc(), now);
      ++stats.removed_here;
    } else {
      peer.register_mapping(eid, record);
      ++stats.pushed;
    }
  }
  for (const auto& [eid, record] : theirs) {
    if (mine.contains(eid)) continue;  // handled above
    const auto my_death = tombstone(eid);
    if (my_death && *my_death >= record.refreshed_at) {
      peer.deregister(eid, record.primary_rloc(), now);
      ++stats.removed_peer;
    } else {
      register_mapping(eid, record);
      ++stats.pulled;
    }
  }

  const auto prune = [&](std::unordered_map<net::VnEid, sim::SimTime>& tombs) {
    std::erase_if(tombs, [&](const auto& kv) { return now - kv.second > tombstone_horizon; });
  };
  prune(tombstones_);
  prune(peer.tombstones_);
  return stats;
}

std::optional<sim::SimTime> MapServer::tombstone(const net::VnEid& eid) const {
  const auto it = tombstones_.find(eid);
  if (it == tombstones_.end()) return std::nullopt;
  return it->second;
}

void MapServer::bind_l2(const net::VnEid& ip_eid, const net::MacAddress& mac) {
  l2_bindings_[ip_eid] = mac;
}

bool MapServer::unbind_l2(const net::VnEid& ip_eid) { return l2_bindings_.erase(ip_eid) > 0; }

std::optional<net::MacAddress> MapServer::lookup_mac(const net::VnEid& ip_eid) const {
  const auto it = l2_bindings_.find(ip_eid);
  if (it == l2_bindings_.end()) return std::nullopt;
  return it->second;
}

namespace {

std::size_t host_entries(const trie::PatriciaTrie<MappingRecord>& trie) {
  std::size_t n = 0;
  trie.walk([&n](const trie::BitKey& key, const MappingRecord&) {
    if (key.is_host()) ++n;
  });
  return n;
}

}  // namespace

std::size_t MapServer::mapping_count() const {
  std::size_t total = 0;
  for (const auto& [vn, db] : databases_) {
    total += host_entries(db.v4) + host_entries(db.v6) + db.mac.size();
  }
  return total;
}

std::size_t MapServer::mapping_count(net::VnId vn) const {
  const auto it = databases_.find(vn);
  if (it == databases_.end()) return 0;
  return host_entries(it->second.v4) + host_entries(it->second.v6) + it->second.mac.size();
}

std::size_t MapServer::total_entries() const {
  std::size_t total = 0;
  for (const auto& [vn, db] : databases_) {
    total += db.v4.size() + db.v6.size() + db.mac.size();
  }
  return total;
}

void MapServer::walk(
    const std::function<void(const net::VnEid&, const MappingRecord&)>& visit) const {
  for (const auto& [vn, db] : databases_) {
    const net::VnId vn_id = vn;
    db.v4.walk([&](const trie::BitKey& key, const MappingRecord& record) {
      if (!key.is_host()) return;  // prefixes are infrastructure, not endpoints
      net::Ipv4Address a{(std::uint32_t{key.bytes()[0]} << 24) |
                         (std::uint32_t{key.bytes()[1]} << 16) |
                         (std::uint32_t{key.bytes()[2]} << 8) | key.bytes()[3]};
      visit(net::VnEid{vn_id, net::Eid{a}}, record);
    });
    db.v6.walk([&](const trie::BitKey& key, const MappingRecord& record) {
      if (!key.is_host()) return;
      net::Ipv6Address::Bytes b{};
      std::copy_n(key.bytes().begin(), 16, b.begin());
      visit(net::VnEid{vn_id, net::Eid{net::Ipv6Address{b}}}, record);
    });
    db.mac.walk([&](const trie::BitKey& key, const MappingRecord& record) {
      net::MacAddress::Bytes b{};
      std::copy_n(key.bytes().begin(), 6, b.begin());
      visit(net::VnEid{vn_id, net::Eid{net::MacAddress{b}}}, record);
    });
  }
}

void MapServer::register_metrics(telemetry::MetricsRegistry& registry,
                                 const std::string& prefix) const {
  registry.register_counter(telemetry::join(prefix, "registers"),
                            [this] { return stats_.registers; });
  registry.register_counter(telemetry::join(prefix, "moves"), [this] { return stats_.moves; });
  registry.register_counter(telemetry::join(prefix, "deregisters"),
                            [this] { return stats_.deregisters; });
  registry.register_counter(telemetry::join(prefix, "requests"),
                            [this] { return stats_.requests; });
  registry.register_counter(telemetry::join(prefix, "negative_replies"),
                            [this] { return stats_.negative_replies; });
  registry.register_counter(telemetry::join(prefix, "expirations"),
                            [this] { return stats_.expirations; });
  registry.register_gauge(telemetry::join(prefix, "mappings"),
                          [this] { return static_cast<double>(mapping_count()); });
  registry.register_gauge(telemetry::join(prefix, "total_entries"),
                          [this] { return static_cast<double>(total_entries()); });
}

}  // namespace sda::lisp
