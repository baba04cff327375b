// Deterministic fault-injection plane.
//
// Interposes on the simulation's weak points the way a chaos harness would
// on a production network: stochastic packet loss and jitter on underlay
// deliveries (split by traffic class, so control-plane loss can be studied
// independently of data loss), scheduled link/node flaps that drive real
// Topology mutations and IGP reconvergence, and control-plane server
// failures (outage windows, crash/restart with or without database loss).
//
// Everything is seeded: the same seed and schedule reproduce the same
// drops, the same flap timeline, and therefore the same convergence story
// — which is what makes chaos results comparable across code changes.
//
// The plane deliberately depends only on the underlay and LISP layers;
// fabric-level faults (pub/sub feed disconnects, edge reboots) already
// have first-class entry points on SdaFabric and compose with this class
// in tests and benchmarks.
#pragma once

#include <cstdint>
#include <vector>

#include "lisp/map_server_node.hpp"
#include "policy/policy_server.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "underlay/network.hpp"
#include "underlay/topology.hpp"

namespace sda::telemetry {
class FlightRecorder;
class MetricsRegistry;
}

namespace sda::faults {

/// Stochastic impairment model for one traffic class.
struct LossModel {
  /// Path-level drop probability, applied once per delivery.
  double loss = 0.0;
  /// Per-link drop probability, compounded over the path's SPF hop count:
  /// P(survive) = (1 - per_hop_loss)^hops. Models lossy links rather than
  /// a lossy cloud.
  double per_hop_loss = 0.0;
  /// Probability that a surviving packet is delayed by extra jitter.
  double extra_jitter_chance = 0.0;
  /// Jitter magnitude: uniform in [0, extra_jitter_max].
  sim::Duration extra_jitter_max{0};
};

/// A scheduled down/up cycle for a link or node.
struct FlapSchedule {
  sim::Duration first_down{0};  // offset of the first down transition
  sim::Duration down_for = std::chrono::seconds{1};
  unsigned cycles = 1;          // number of down/up pairs
  /// Spacing between consecutive down transitions; 0 = 2 * down_for.
  sim::Duration period{0};
};

class FaultPlane {
 public:
  /// The plane is the network's fault injector, installed while a loss or
  /// jitter model can act: with none set, deliveries skip the call.
  FaultPlane(sim::Simulator& simulator, underlay::UnderlayNetwork& network,
             std::uint64_t seed);

  /// Detaches the injector for good (deliveries become lossless again).
  void disarm();

  // --- Stochastic loss / jitter ------------------------------------------

  void set_data_loss(const LossModel& model) {
    data_ = model;
    sync_injector();
  }
  void set_control_loss(const LossModel& model) {
    control_ = model;
    sync_injector();
  }

  // --- Scheduled link / node flaps ---------------------------------------

  void flap_link(underlay::LinkId link, const FlapSchedule& schedule);
  void flap_node(underlay::NodeId node, const FlapSchedule& schedule);

  /// Picks `count` distinct links (seeded) and applies the schedule to
  /// each, staggering consecutive picks by `stagger`. Returns the chosen
  /// links so callers can correlate with observed behaviour.
  std::vector<underlay::LinkId> random_link_storm(unsigned count, const FlapSchedule& schedule,
                                                  sim::Duration stagger = sim::Duration{0});

  // --- Control-plane server faults ---------------------------------------

  /// Outage window [at, at + duration): the server silently drops every
  /// submission, then comes back with its state intact.
  void server_outage(lisp::MapServerNode& node, sim::Duration at, sim::Duration duration);

  /// Crash at `at`, restart after `downtime`. preserve_database=false
  /// models losing the registration DB (cold restart); true models a
  /// process restart in front of durable state.
  void server_crash(lisp::MapServerNode& node, sim::Duration at, sim::Duration downtime,
                    bool preserve_database);

  /// Network partition of a node [at, at + duration): the node itself
  /// stays up (its process keeps running and keeps believing whatever it
  /// believed), but the underlay isolates it — the split-brain scenario
  /// for a leader: it keeps asserting into the void while the majority
  /// elects a successor, and its stale-epoch messages are fenced on heal.
  void partition_node(underlay::NodeId node, sim::Duration at, sim::Duration duration);

  /// A server oscillating at the miss/ack boundary: starting at `at`, the
  /// server goes down for `down_for`, up for `up_for`, repeated `cycles`
  /// times (ends up). The flap-dampening drill: without dampening every
  /// cycle produces a failover/failback pair; with it, at most one.
  void server_oscillation(lisp::MapServerNode& node, sim::Duration at, sim::Duration down_for,
                          sim::Duration up_for, unsigned cycles);

  /// Policy-server outage window [at, at + duration): authentications and
  /// rule downloads fail until the server returns (edges retry downloads;
  /// the SGACL fail mode governs traffic in between).
  void policy_server_outage(policy::PolicyServer& server, sim::Duration at,
                            sim::Duration duration);

  // --- Introspection ------------------------------------------------------

  struct Counters {
    std::uint64_t data_drops = 0;
    std::uint64_t control_drops = 0;
    std::uint64_t delays_injected = 0;
    std::uint64_t link_transitions = 0;
    std::uint64_t node_transitions = 0;
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  /// Registers pull probes for the injection counters under `prefix`
  /// (e.g. "faults"). Probes capture `this`.
  void register_metrics(telemetry::MetricsRegistry& registry, const std::string& prefix) const;

  /// Attaches a flight recorder (nullptr detaches): link/node transitions
  /// and server outage/crash windows land in it as Fault events, so a
  /// chaos run's event timeline can be replayed next to its metrics.
  void set_recorder(telemetry::FlightRecorder* recorder) { recorder_ = recorder; }

  [[nodiscard]] sim::Rng& rng() { return rng_; }

 private:
  [[nodiscard]] underlay::FaultDecision decide(std::uint32_t hops, underlay::TrafficClass cls);
  /// Installs the injector while armed and a model can act; removes it
  /// otherwise.
  void sync_injector();

  /// Logs a Fault event on the attached recorder (no-op when detached).
  void record_fault(const char* what, const std::string& subject);

  sim::Simulator& simulator_;
  underlay::UnderlayNetwork& network_;
  sim::Rng rng_;
  LossModel data_;
  LossModel control_;
  Counters counters_;
  telemetry::FlightRecorder* recorder_ = nullptr;
  bool armed_ = true;  // until disarm()
};

}  // namespace sda::faults
