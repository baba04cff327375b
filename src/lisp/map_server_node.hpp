// A routing server as a simulated node: the passive MapServer database
// behind a multi-worker service queue.
//
// The paper's routing server ran on an 8-vCPU virtual router (§4.1); this
// node models it as a G/G/k queue — k worker threads, per-operation service
// time with lognormal jitter. The sojourn time (queue wait + service) is
// what Fig. 7c measures as "delay to answer route requests" under load.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "lisp/map_server.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/slab.hpp"
#include "stats/summary.hpp"

namespace sda::lisp {

struct MapServerNodeConfig {
  unsigned workers = 8;  // vCPUs of the paper's VM
  sim::Duration request_service = std::chrono::microseconds{25};
  sim::Duration register_service = std::chrono::microseconds{30};
  double jitter_sigma = 0.12;  // lognormal sigma on service time
  /// Bounded admission: jobs beyond this many waiting-or-in-service are
  /// shed with an explicit retry-after instead of queueing unboundedly
  /// (onboarding-storm overload protection). 0 = unbounded (legacy).
  std::size_t admission_limit = 0;
  /// Retry-after hint handed to the shed callback.
  sim::Duration shed_retry_after = std::chrono::milliseconds{200};
};

class MapServerNode {
 public:
  /// Where answered Map-Requests go: (ticket, reply, sojourn). `ticket` is
  /// the handle the submitter passed to submit_request(); `reply` is valid
  /// only during the call.
  using ReplySink =
      std::function<void(std::uint32_t ticket, const MapReply& reply, sim::Duration sojourn)>;
  /// Where Map-Requests shed by bounded admission go: (ticket, the
  /// server's retry-after hint).
  using RequestShedSink = std::function<void(std::uint32_t ticket, sim::Duration retry_after)>;
  using RegisterCallback =
      std::function<void(const RegisterOutcome&, const MapNotify&, sim::Duration sojourn)>;
  /// Fired instead of the completion callback when bounded admission sheds
  /// the job; carries the server's retry-after hint.
  using ShedCallback = std::function<void(sim::Duration retry_after)>;

  MapServerNode(sim::Simulator& simulator, MapServer& server, net::Ipv4Address rloc,
                MapServerNodeConfig config, std::uint64_t seed = 1);

  [[nodiscard]] MapServer& server() { return server_; }
  [[nodiscard]] const MapServerNodeConfig& config() const { return config_; }
  [[nodiscard]] net::Ipv4Address rloc() const { return rloc_; }

  /// Sets, once, where every Map-Request this node answers or sheds is
  /// completed. Either sink may be empty (the outcome is then discarded).
  void set_request_sink(ReplySink on_reply, RequestShedSink on_shed = {});

  /// Enqueues a Map-Request under the caller's `ticket`. Returns true when
  /// the job was queued: the reply sink fires with the ticket once the
  /// server answers. Returns false when the ticket is already finished:
  /// the node was offline and swallowed it silently — exactly what a
  /// client of a crashed server observes — or bounded admission shed it,
  /// and the shed sink has fired (synchronously). Jobs wait in a recycled
  /// slab, so a node at steady load allocates nothing per request.
  bool submit_request(const MapRequest& request, std::uint32_t ticket = 0);

  /// Enqueues a Map-Register; the callback fires with the outcome and the
  /// acknowledging Map-Notify. Dropped silently while offline; shed like
  /// submit_request when the admission queue is full.
  void submit_register(const MapRegister& registration, RegisterCallback callback,
                       ShedCallback on_shed = {});

  // --- Fault injection (outage windows, crash/restart) --------------------

  /// Takes the node off the network: submissions are swallowed without a
  /// callback until set_online(true). In-service jobs still complete (they
  /// were accepted before the outage).
  void set_online(bool online) { online_ = online; }
  [[nodiscard]] bool online() const { return online_; }

  /// Crash: go offline and optionally lose the registration database (a
  /// restart from disk preserves it; a cold crash rebuilds from re-registers).
  void crash(bool preserve_database);

  /// Submissions swallowed while offline.
  [[nodiscard]] std::uint64_t dropped_submissions() const { return dropped_submissions_; }

  /// Submissions shed by bounded admission (overload, not outage).
  [[nodiscard]] std::uint64_t shed_submissions() const { return shed_submissions_; }

  // --- Election-aware shedding (PR 9) -------------------------------------

  /// Opens a post-election ramp window: for the next `window` the
  /// effective admission limit climbs linearly from a quarter of the
  /// configured limit back to full, shedding the re-registration stampede
  /// a just-elected leader absorbs with retry-after instead of queueing
  /// it. No-op when admission is unbounded or `window` is zero.
  void begin_admission_ramp(sim::Duration window);

  /// The admission limit currently in force: the configured limit, scaled
  /// down while a ramp window is active (0 = unbounded).
  [[nodiscard]] std::size_t effective_admission_limit() const;
  [[nodiscard]] bool ramp_active() const;

  /// Submissions shed specifically because a ramp window lowered the limit
  /// (subset of shed_submissions()).
  [[nodiscard]] std::uint64_t ramp_shed_submissions() const { return ramp_shed_submissions_; }

  /// Jobs currently waiting or in service.
  [[nodiscard]] std::size_t in_flight() const { return in_flight_; }
  /// Map-Request jobs held in the job slab (a subset of in_flight()).
  [[nodiscard]] std::size_t request_jobs_held() const { return request_jobs_.live(); }

  /// Sojourn-time samples (seconds) collected since construction.
  [[nodiscard]] const stats::Summary& request_sojourns() const { return request_sojourns_; }
  /// Sizes the request sample log for `requests` samples in all, so a run
  /// of known length never regrows it.
  void reserve_sojourn_samples(std::size_t requests) { request_sojourns_.reserve(requests); }
  [[nodiscard]] const stats::Summary& register_sojourns() const { return register_sojourns_; }

  /// Highest backlog observed (requests waiting or in service).
  [[nodiscard]] std::size_t peak_backlog() const { return peak_backlog_; }

  /// Pull probes: drops/sheds/backlog under `prefix` (e.g. "routing_server[1]").
  void register_metrics(telemetry::MetricsRegistry& registry, const std::string& prefix) const;

 private:
  /// A queued Map-Request: what to answer, for whom, and since when.
  struct RequestJob {
    MapRequest request;
    std::uint32_t ticket = 0;
    sim::SimTime arrival;
  };

  /// True (and counted) when the next job must be shed.
  bool admission_full();
  /// Answers the job in `slot`, frees the slot and fires the reply sink.
  void complete_request(std::uint32_t slot);
  /// Reserves the earliest-available worker from `now`, returning the
  /// completion time of a job with the given service time.
  sim::SimTime reserve_worker(sim::Duration service);
  sim::Duration jittered(sim::Duration base);
  void track_backlog();

  sim::Simulator& simulator_;
  MapServer& server_;
  net::Ipv4Address rloc_;
  MapServerNodeConfig config_;
  sim::Rng rng_;
  std::vector<sim::SimTime> worker_free_at_;
  bool online_ = true;
  sim::SimTime ramp_start_{};
  sim::SimTime ramp_until_{};
  std::uint64_t dropped_submissions_ = 0;
  std::uint64_t shed_submissions_ = 0;
  std::uint64_t ramp_shed_submissions_ = 0;
  std::size_t in_flight_ = 0;
  std::size_t peak_backlog_ = 0;
  stats::Summary request_sojourns_;
  stats::Summary register_sojourns_;
  ReplySink reply_sink_;
  RequestShedSink request_shed_sink_;
  /// Queued Map-Requests.
  sim::Slab<RequestJob> request_jobs_;
  /// Reply scratch handed to the sink; keeps its locator capacity.
  MapReply reply_;
};

}  // namespace sda::lisp
