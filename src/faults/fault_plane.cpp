#include "faults/fault_plane.hpp"

#include <cmath>
#include <string>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"


namespace sda::faults {

FaultPlane::FaultPlane(sim::Simulator& simulator, underlay::UnderlayNetwork& network,
                       std::uint64_t seed)
    : simulator_(simulator), network_(network), rng_(seed) {
  sync_injector();
}

void FaultPlane::disarm() {
  armed_ = false;
  sync_injector();
}

void FaultPlane::sync_injector() {
  // decide() draws from the RNG only when a loss or jitter model can act,
  // so leaving it out the rest of the time changes no run.
  const auto can_act = [](const LossModel& m) {
    return m.loss > 0.0 || m.per_hop_loss > 0.0 || m.extra_jitter_max.count() > 0;
  };
  if (!armed_ || !(can_act(data_) || can_act(control_))) {
    network_.set_fault_injector(nullptr);
    return;
  }
  network_.set_fault_injector(
      [this](underlay::NodeId, underlay::NodeId, std::size_t, std::uint32_t hops,
             underlay::TrafficClass cls) { return decide(hops, cls); });
}

underlay::FaultDecision FaultPlane::decide(std::uint32_t hops, underlay::TrafficClass cls) {
  const LossModel& model = cls == underlay::TrafficClass::Control ? control_ : data_;
  underlay::FaultDecision decision;

  double drop_p = model.loss;
  if (model.per_hop_loss > 0.0 && hops > 0) {
    const double survive = std::pow(1.0 - model.per_hop_loss, static_cast<double>(hops));
    drop_p = 1.0 - (1.0 - drop_p) * survive;
  }
  if (drop_p > 0.0 && rng_.chance(drop_p)) {
    decision.drop = true;
    if (cls == underlay::TrafficClass::Control) {
      ++counters_.control_drops;
    } else {
      ++counters_.data_drops;
    }
    return decision;
  }

  if (model.extra_jitter_max.count() > 0 && rng_.chance(model.extra_jitter_chance)) {
    decision.extra_delay = sim::Duration{rng_.uniform_int(0, model.extra_jitter_max.count())};
    ++counters_.delays_injected;
  }
  return decision;
}

void FaultPlane::flap_link(underlay::LinkId link, const FlapSchedule& schedule) {
  const sim::Duration period =
      schedule.period.count() > 0 ? schedule.period : schedule.down_for * 2;
  sim::Duration down_at = schedule.first_down;
  for (unsigned cycle = 0; cycle < schedule.cycles; ++cycle) {
    simulator_.schedule_after(down_at, [this, link] {
      network_.topology().set_link_state(link, false);
      network_.topology_changed();
      ++counters_.link_transitions;
      record_fault("link down", std::to_string(link));
    });
    simulator_.schedule_after(down_at + schedule.down_for, [this, link] {
      network_.topology().set_link_state(link, true);
      network_.topology_changed();
      ++counters_.link_transitions;
      record_fault("link up", std::to_string(link));
    });
    down_at += period;
  }
}

void FaultPlane::flap_node(underlay::NodeId node, const FlapSchedule& schedule) {
  const sim::Duration period =
      schedule.period.count() > 0 ? schedule.period : schedule.down_for * 2;
  sim::Duration down_at = schedule.first_down;
  for (unsigned cycle = 0; cycle < schedule.cycles; ++cycle) {
    simulator_.schedule_after(down_at, [this, node] {
      network_.topology().set_node_state(node, false);
      network_.topology_changed();
      ++counters_.node_transitions;
      record_fault("node down", std::to_string(node));
    });
    simulator_.schedule_after(down_at + schedule.down_for, [this, node] {
      network_.topology().set_node_state(node, true);
      network_.topology_changed();
      ++counters_.node_transitions;
      record_fault("node up", std::to_string(node));
    });
    down_at += period;
  }
}

std::vector<underlay::LinkId> FaultPlane::random_link_storm(unsigned count,
                                                            const FlapSchedule& schedule,
                                                            sim::Duration stagger) {
  const underlay::Topology& topology = network_.topology();
  std::vector<underlay::LinkId> candidates;
  candidates.reserve(topology.link_count());
  for (underlay::LinkId id = 0; id < topology.link_count(); ++id) candidates.push_back(id);
  rng_.shuffle(candidates);
  if (candidates.size() > count) candidates.resize(count);

  FlapSchedule staggered = schedule;
  std::vector<underlay::LinkId> chosen;
  for (const underlay::LinkId link : candidates) {
    flap_link(link, staggered);
    staggered.first_down += stagger;
    chosen.push_back(link);
  }
  return chosen;
}

void FaultPlane::server_outage(lisp::MapServerNode& node, sim::Duration at,
                               sim::Duration duration) {
  simulator_.schedule_after(at, [this, &node] {
    node.set_online(false);
    record_fault("server outage", node.rloc().to_string());
  });
  simulator_.schedule_after(at + duration, [this, &node] {
    node.set_online(true);
    record_fault("server restored", node.rloc().to_string());
  });
}

void FaultPlane::server_crash(lisp::MapServerNode& node, sim::Duration at,
                              sim::Duration downtime, bool preserve_database) {
  simulator_.schedule_after(at, [this, &node, preserve_database] {
    node.crash(preserve_database);
    record_fault(preserve_database ? "server crash" : "server crash (db lost)", node.rloc().to_string());
  });
  simulator_.schedule_after(at + downtime, [this, &node] {
    node.set_online(true);
    record_fault("server restarted", node.rloc().to_string());
  });
}

void FaultPlane::partition_node(underlay::NodeId node, sim::Duration at,
                                sim::Duration duration) {
  simulator_.schedule_after(at, [this, node] {
    network_.topology().set_node_state(node, false);
    network_.topology_changed();
    ++counters_.node_transitions;
    record_fault("node partitioned", std::to_string(node));
  });
  simulator_.schedule_after(at + duration, [this, node] {
    network_.topology().set_node_state(node, true);
    network_.topology_changed();
    ++counters_.node_transitions;
    record_fault("node partition healed", std::to_string(node));
  });
}

void FaultPlane::server_oscillation(lisp::MapServerNode& node, sim::Duration at,
                                    sim::Duration down_for, sim::Duration up_for,
                                    unsigned cycles) {
  sim::Duration down_at = at;
  for (unsigned cycle = 0; cycle < cycles; ++cycle) {
    server_outage(node, down_at, down_for);
    down_at += down_for + up_for;
  }
}

void FaultPlane::policy_server_outage(policy::PolicyServer& server, sim::Duration at,
                                      sim::Duration duration) {
  simulator_.schedule_after(at, [this, &server] {
    server.set_online(false);
    record_fault("policy server outage", "policy");
  });
  simulator_.schedule_after(at + duration, [this, &server] {
    server.set_online(true);
    record_fault("policy server restored", "policy");
  });
}

void FaultPlane::record_fault(const char* what, const std::string& subject) {
  if (recorder_ == nullptr || !recorder_->enabled()) return;
  std::string detail = what;
  detail += ' ';
  detail += subject;
  recorder_->record(simulator_.now(), telemetry::EventKind::Fault, "faults", detail);
}

void FaultPlane::register_metrics(telemetry::MetricsRegistry& registry,
                                  const std::string& prefix) const {
  registry.register_counter(telemetry::join(prefix, "data_drops"),
                            [this] { return counters_.data_drops; });
  registry.register_counter(telemetry::join(prefix, "control_drops"),
                            [this] { return counters_.control_drops; });
  registry.register_counter(telemetry::join(prefix, "delays_injected"),
                            [this] { return counters_.delays_injected; });
  registry.register_counter(telemetry::join(prefix, "link_transitions"),
                            [this] { return counters_.link_transitions; });
  registry.register_counter(telemetry::join(prefix, "node_transitions"),
                            [this] { return counters_.node_transitions; });
}

}  // namespace sda::faults
