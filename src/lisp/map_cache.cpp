#include "lisp/map_cache.hpp"

#include <vector>

#include "telemetry/metrics.hpp"

namespace sda::lisp {

MapCache::MapCache(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ != 0) {
    // Bounded caches never grow past capacity: reserving up front keeps
    // entry pointers stable and the steady state allocation-free. +1 because
    // an install at capacity briefly holds the newcomer before evicting.
    slots_.reserve(capacity_ + 1);
    links_.reserve(capacity_ + 1);
    index_.reserve(capacity_ + 1);
  }
}

void MapCache::fill(std::uint32_t i, std::span<const net::Rloc> rlocs,
                    std::uint32_t ttl_seconds, net::GroupId group, sim::SimTime now) {
  MapCacheEntry& entry = slots_[i].entry;
  entry.rlocs.assign(rlocs.begin(), rlocs.end());
  entry.primary_ = rlocs.empty() ? net::Ipv4Address{} : rlocs.front().address;
  entry.expires_at = now + std::chrono::seconds{ttl_seconds};
  entry.group = group;
}

void MapCache::install(const net::VnEid& eid, const MapReply& reply, sim::SimTime now) {
  install_entry(eid, reply.rlocs, reply.ttl_seconds, net::GroupId{reply.group}, now);
}

void MapCache::install(const net::VnEid& eid, std::vector<net::Rloc> rlocs,
                       std::uint32_t ttl_seconds, sim::SimTime now) {
  install_entry(eid, rlocs, ttl_seconds, net::GroupId{}, now);
}

void MapCache::install_entry(const net::VnEid& eid, std::span<const net::Rloc> rlocs,
                             std::uint32_t ttl_seconds, net::GroupId group, sim::SimTime now) {
  ++stats_.installs;
  const std::uint32_t existing = index_.find(eid, key_of());
  if (existing != kNone) {
    if (!slots_[existing].entry.negative()) --positive_count_;
    fill(existing, rlocs, ttl_seconds, group, now);
    if (!slots_[existing].entry.negative()) ++positive_count_;
    touch(existing);
    return;
  }
  // At capacity the slab's free list holds the slot the previous install
  // evicted, so its locator vector's capacity is reused here.
  const std::uint32_t i = slots_.acquire();
  if (i == links_.size()) links_.emplace_back();
  slots_[i].eid = eid;
  fill(i, rlocs, ttl_seconds, group, now);
  link_front(i);
  index_.insert(eid, i);
  if (!slots_[i].entry.negative()) ++positive_count_;
  evict_if_needed();
}

bool MapCache::invalidate(const net::VnEid& eid) {
  const std::uint32_t i = index_.find(eid, key_of());
  if (i == kNone) return false;
  erase_slot(i);
  return true;
}

std::size_t MapCache::invalidate_rloc(net::Ipv4Address rloc) {
  std::size_t removed = 0;
  slots_.for_each([&](std::uint32_t i) {
    if (slots_[i].entry.negative() || slots_[i].entry.primary_rloc() != rloc) return;
    erase_slot(i);
    ++removed;
  });
  return removed;
}

std::size_t MapCache::sweep(sim::SimTime now) {
  std::size_t removed = 0;
  slots_.for_each([&](std::uint32_t i) {
    if (slots_[i].entry.expires_at > now) return;
    erase_slot(i);
    ++removed;
  });
  stats_.expirations += removed;
  return removed;
}

void MapCache::clear() {
  slots_.clear();
  links_.clear();
  index_.clear();
  head_ = tail_ = kNone;
  positive_count_ = 0;
}

void MapCache::walk(
    const std::function<void(const net::VnEid&, const MapCacheEntry&)>& visit) const {
  for (std::uint32_t i = head_; i != kNone; i = links_[i].next) {
    visit(slots_[i].eid, slots_[i].entry);
  }
}

void MapCache::erase_slot(std::uint32_t i) {
  if (!slots_[i].entry.negative()) --positive_count_;
  unlink(i);
  index_.erase(slots_[i].eid, key_of());
  slots_.release(i);  // the entry keeps its locator capacity for the next install
}

void MapCache::evict_if_needed() {
  while (capacity_ != 0 && size() > capacity_) {
    erase_slot(tail_);
    ++stats_.evictions;
  }
}

void MapCache::register_metrics(telemetry::MetricsRegistry& registry,
                                const std::string& prefix) const {
  registry.register_counter(telemetry::join(prefix, "hits"), [this] { return stats_.hits; });
  registry.register_counter(telemetry::join(prefix, "misses"), [this] { return stats_.misses; });
  registry.register_counter(telemetry::join(prefix, "expirations"),
                            [this] { return stats_.expirations; });
  registry.register_counter(telemetry::join(prefix, "evictions"),
                            [this] { return stats_.evictions; });
  registry.register_counter(telemetry::join(prefix, "installs"),
                            [this] { return stats_.installs; });
  registry.register_gauge(telemetry::join(prefix, "size"),
                          [this] { return static_cast<double>(size()); });
  registry.register_gauge(telemetry::join(prefix, "positive_size"),
                          [this] { return static_cast<double>(positive_size()); });
}

}  // namespace sda::lisp
