#include "lisp/map_server_node.hpp"

#include <algorithm>
#include <cassert>

#include "telemetry/metrics.hpp"

namespace sda::lisp {

MapServerNode::MapServerNode(sim::Simulator& simulator, MapServer& server,
                             net::Ipv4Address rloc, MapServerNodeConfig config,
                             std::uint64_t seed)
    : simulator_(simulator),
      server_(server),
      rloc_(rloc),
      config_(config),
      rng_(seed),
      worker_free_at_(std::max(1u, config.workers), sim::SimTime::zero()) {}

sim::Duration MapServerNode::jittered(sim::Duration base) {
  const double factor = rng_.lognormal(0.0, config_.jitter_sigma);
  return sim::Duration{static_cast<std::int64_t>(static_cast<double>(base.count()) * factor)};
}

sim::SimTime MapServerNode::reserve_worker(sim::Duration service) {
  auto it = std::min_element(worker_free_at_.begin(), worker_free_at_.end());
  const sim::SimTime start = std::max(*it, simulator_.now());
  const sim::SimTime finish = start + service;
  *it = finish;
  return finish;
}

void MapServerNode::track_backlog() {
  ++in_flight_;
  peak_backlog_ = std::max(peak_backlog_, in_flight_);
}

void MapServerNode::crash(bool preserve_database) {
  online_ = false;
  if (!preserve_database) server_.clear();
}

void MapServerNode::begin_admission_ramp(sim::Duration window) {
  if (config_.admission_limit == 0 || window.count() <= 0) return;
  ramp_start_ = simulator_.now();
  ramp_until_ = ramp_start_ + window;
}

bool MapServerNode::ramp_active() const { return simulator_.now() < ramp_until_; }

std::size_t MapServerNode::effective_admission_limit() const {
  const std::size_t limit = config_.admission_limit;
  if (limit == 0 || !ramp_active()) return limit;
  const std::size_t floor = std::max<std::size_t>(1, limit / 4);
  const double frac = static_cast<double>((simulator_.now() - ramp_start_).count()) /
                      static_cast<double>((ramp_until_ - ramp_start_).count());
  return floor + static_cast<std::size_t>(static_cast<double>(limit - floor) * frac);
}

bool MapServerNode::admission_full() {
  const std::size_t limit = effective_admission_limit();
  if (limit == 0 || in_flight_ < limit) return false;
  ++shed_submissions_;
  if (ramp_active() && in_flight_ < config_.admission_limit) ++ramp_shed_submissions_;
  return true;
}

void MapServerNode::set_request_sink(ReplySink on_reply, RequestShedSink on_shed) {
  reply_sink_ = std::move(on_reply);
  request_shed_sink_ = std::move(on_shed);
}

bool MapServerNode::submit_request(const MapRequest& request, std::uint32_t ticket) {
  if (!online_) {
    ++dropped_submissions_;
    return false;
  }
  if (admission_full()) {
    if (request_shed_sink_) request_shed_sink_(ticket, config_.shed_retry_after);
    return false;
  }
  track_backlog();
  const std::uint32_t slot = request_jobs_.acquire();
  request_jobs_[slot] = RequestJob{request, ticket, simulator_.now()};
  const sim::SimTime done = reserve_worker(jittered(config_.request_service));
  auto complete = [this, slot] { complete_request(slot); };
  static_assert(sim::InlineAction::fits_inline<decltype(complete)>);
  simulator_.schedule_at(done, std::move(complete));
  return true;
}

void MapServerNode::complete_request(std::uint32_t slot) {
  const RequestJob job = request_jobs_[slot];
  request_jobs_.release(slot);
  --in_flight_;
  server_.answer(job.request, reply_);
  reply_.trace = job.request.trace;  // the reply stays on the requester's span tree
  const sim::Duration sojourn = simulator_.now() - job.arrival;
  request_sojourns_.add(static_cast<double>(sojourn.count()) / 1e9);
  if (reply_sink_) reply_sink_(job.ticket, reply_, sojourn);
}

void MapServerNode::submit_register(const MapRegister& registration, RegisterCallback callback,
                                    ShedCallback on_shed) {
  if (!online_) {
    ++dropped_submissions_;
    return;
  }
  if (admission_full()) {
    if (on_shed) on_shed(config_.shed_retry_after);
    return;
  }
  track_backlog();
  assert(!registration.rlocs.empty());
  const sim::SimTime arrival = simulator_.now();
  const sim::SimTime done = reserve_worker(jittered(config_.register_service));
  simulator_.schedule_at(done, [this, registration, arrival, cb = std::move(callback)] {
    --in_flight_;
    RegisterOutcome outcome;
    if (registration.ttl_seconds == 0) {
      // Zero-TTL register is a withdrawal (clean endpoint departure).
      server_.deregister(registration.eid, registration.rlocs.front().address,
                         simulator_.now());
    } else {
      MappingRecord record;
      record.rlocs = registration.rlocs;
      record.ttl_seconds = registration.ttl_seconds;
      record.group = net::GroupId{registration.group};
      record.refreshed_at = simulator_.now();  // soft-state refresh stamp
      outcome = server_.register_mapping(registration.eid, record);
    }
    const sim::Duration sojourn = simulator_.now() - arrival;
    register_sojourns_.add(static_cast<double>(sojourn.count()) / 1e9);
    // A withdrawal's ack carries an empty locator set so a receiver that
    // treats an unmatched notify as a mapping update invalidates rather
    // than resurrects the departed EID.
    MapNotify notify{registration.nonce, registration.eid,
                     registration.ttl_seconds == 0 ? std::vector<net::Rloc>{}
                                                   : registration.rlocs};
    notify.trace = registration.trace;  // ack rides the registration's span tree
    if (cb) cb(outcome, notify, sojourn);
  });
}

void MapServerNode::register_metrics(telemetry::MetricsRegistry& registry,
                                     const std::string& prefix) const {
  registry.register_counter(telemetry::join(prefix, "dropped_submissions"),
                            [this] { return dropped_submissions_; });
  registry.register_counter(telemetry::join(prefix, "shed_submissions"),
                            [this] { return shed_submissions_; });
  registry.register_counter(telemetry::join(prefix, "ramp_sheds"),
                            [this] { return ramp_shed_submissions_; });
  registry.register_gauge(telemetry::join(prefix, "admission_ramp"),
                          [this] { return ramp_active() ? 1.0 : 0.0; });
  registry.register_gauge(telemetry::join(prefix, "in_flight"),
                          [this] { return static_cast<double>(in_flight_); });
  registry.register_gauge(telemetry::join(prefix, "peak_backlog"),
                          [this] { return static_cast<double>(peak_backlog_); });
  registry.register_gauge(telemetry::join(prefix, "online"),
                          [this] { return online_ ? 1.0 : 0.0; });
}

}  // namespace sda::lisp
