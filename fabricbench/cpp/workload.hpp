// Seeded fabric workloads and the arm that drives one SdaFabric through
// them.
//
// Load is open-loop in simulated time: the generator fixes every send, roam
// and outage time before the fabric sees any input, so a slower build
// simulates exactly the same events and only its wall cost changes. The
// measured phase is cut into fixed sim-time ticks; a tick's wall time is
// charged to the data packets delivered in it.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "fabric/fabric.hpp"
#include "faults/fault_plane.hpp"
#include "stats.hpp"

namespace fabricbench {

namespace dataplane = sda::dataplane;
namespace fabric = sda::fabric;
namespace faults = sda::faults;
namespace lisp = sda::lisp;
namespace net = sda::net;
namespace sim = sda::sim;

/// Whom each host sends to.
enum class PeerPolicy {
  NextEdge,          // the host in the same slot on the next edge
  UniformOtherEdge,  // a fresh uniform draw over hosts on other edges per send
  FixedOtherEdge,    // one fixed peer on another edge
};

struct WorkloadSpec {
  std::string name;
  unsigned edges = 16;
  unsigned hosts_per_edge = 16;
  unsigned dist_nodes = 2;  // distribution layer between edges and the border
  double send_hz = 1000;    // per host, fixed rate, seeded phase
  PeerPolicy peers = PeerPolicy::NextEdge;
  unsigned routing_servers = 1;
  bool failover = false;
  std::size_t map_cache_capacity = 0;  // 0 = unbounded
  double roams_per_s = 0;
  double outage_s = 0;  // routing server 0 outage length (0 = none)
  double tick_s = 0.005;
  /// Measured-phase sim seconds per requested wall second (sized so a run
  /// measures about --seconds on a 4-thread Xeon at the seed commit).
  double sim_s_per_wall_s = 1;
  double min_measure_s = 1;
  unsigned setups = 5;  // set-ups per run for the setup_s median
};

/// The named workload (smoke = the few-second 2-edge shape); nullopt if unknown.
/// roam_200e (Fig. 11 scale) runs but is not in BENCHMARK.json: its
/// memory-bound packet cost swung by 8-9% across runs against every
/// yardstick tried, more than a gate can hold.
std::optional<WorkloadSpec> find_workload(const std::string& name, bool smoke);

/// Wall-time attribution of a traced arm. Each Simulator::step() and each
/// injected fabric call (endpoint_send_udp, roam_endpoint) is timed on its
/// own; what the tick spends between them (the tracer's own bookkeeping,
/// the replay loop) is not attributed to any layer. The pure queries timed beside the sends
/// (lookup, route) are kept out of the tick's wall time.
struct LayerTrace {
  enum Class { kEgress, kHairpin, kMapServer, kControl, kClasses };
  LogHistogram send_ns;
  std::uint64_t send_allocs = 0;
  std::uint64_t lookup_ns = 0;
  std::uint64_t route_ns = 0;
  std::uint64_t queries = 0;
  std::array<LogHistogram, kClasses> step_ns;
  std::uint64_t egress_allocs = 0;
  std::uint64_t roam_call_ns = 0;
  std::uint64_t heartbeat_steps = 0;
};

struct Tick {
  std::uint64_t wall_ns = 0;
  std::uint64_t delivered = 0;
  std::size_t queue_depth = 0;
};

/// Everything an arm measured; filled by Arm::finish().
struct ArmResults {
  std::uint64_t attempted = 0;
  /// Operations that failed a correctness check. Packets the fabric drops
  /// and counts (a host's handover window) are not among them: they are in
  /// `drops`, fail_frac and delivered_frac.
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // failed correctness checks

  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t drops = 0;

  // Measured phase only.
  std::uint64_t phase_sent = 0;       // sends made in the phase
  std::uint64_t phase_delivered = 0;  // ... and how many of them arrived
  std::uint64_t delivered_measured = 0;  // deliveries inside measured ticks
  std::uint64_t events_measured = 0;
  std::uint64_t allocs_measured = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t smr_sent = 0;
  std::uint64_t stale_forwards = 0;
  std::uint64_t roams = 0;
  LogHistogram mapserver_wait_ns;  // MapServerNode request sojourns

  // Sim time. Latencies are of measured-phase sends; first_packet_ns falls
  // back to the set-up warm-up sends when no measured send missed.
  const LogHistogram* latency_ns = nullptr;
  const LogHistogram* first_packet_ns = nullptr;
  bool first_packet_from_setup = false;
  std::vector<double> onboard_ms;
  std::vector<double> handover_ms;
  double failover_ms = -1;  // < 0: no outage in this workload
  std::uint64_t ha_failovers = 0;

  /// FNV-1a over every sim-time result and count: equal seeds give equal
  /// digests, on any build that simulates the same events.
  std::uint64_t digest = 0;
};

class Arm {
 public:
  /// Generates the schedule, then builds, provisions, onboards and warms up
  /// the fabric (the timed set-up).
  Arm(const WorkloadSpec& spec, std::uint64_t seed, double measure_s, bool telemetry);
  Arm(const Arm&) = delete;
  Arm& operator=(const Arm&) = delete;

  [[nodiscard]] double setup_s() const { return setup_s_; }
  [[nodiscard]] double onboard_wall_ns_per_host() const { return onboard_ns_per_host_; }
  [[nodiscard]] bool measuring() const { return tick_ < ticks_; }

  /// Runs the next tick with Simulator::run_until.
  Tick run_tick();
  /// Runs the next tick one Simulator::step() at a time, attributing each.
  Tick run_tick_traced(LayerTrace& trace);

  /// Drains in-flight work and runs every correctness check.
  const ArmResults& finish();

 private:
  struct Host {
    net::MacAddress mac;
    std::string credential;
    net::Ipv4Address ip;
    unsigned edge = 0;  // current edge in the generator's model
    std::uint32_t peer = 0;
    // Roam in flight (at most one per host by construction).
    std::int64_t roam_start = -1;
    std::int64_t roam_attached = -1;
    std::int64_t roam_synced = -1;
  };
  struct Roam {
    std::int64_t at;
    std::uint32_t host;
    unsigned to_edge;
  };
  struct Flight {
    std::int64_t sent_ns = 0;
    std::uint32_t dst = 0;
    bool live = false;
    bool first = false;
    bool measured = false;  // sent in the measured phase
  };
  struct Op {
    std::int64_t at;
    bool roam;
  };
  struct CacheTotals {
    std::uint64_t hits = 0, misses = 0, evictions = 0, smr = 0, stale = 0;
  };

  void generate_schedule(std::uint64_t seed);
  void build_fabric(bool telemetry);
  void onboard_all();
  void warm_up();

  [[nodiscard]] Op next_op() const;
  /// Executes the next operation; returns the sending host or -1 (roam, or
  /// a send skipped because its host is detached mid-roam).
  std::int64_t exec_next_op();
  std::uint32_t destination_of(std::uint32_t host);
  void send(std::uint32_t src, std::uint32_t dst);
  void roam(const Roam& r);
  void maybe_finish_roam(std::uint32_t host);
  void on_delivery(const dataplane::AttachedEndpoint& to, const net::OverlayFrame& frame,
                   sim::SimTime at);
  void after_tick(std::int64_t end);
  [[nodiscard]] CacheTotals cache_totals() const;
  [[nodiscard]] std::uint64_t sojourn_count() const;
  [[nodiscard]] std::uint64_t counted_drops() const;
  [[nodiscard]] std::int64_t now_ns() const;

  WorkloadSpec spec_;
  std::uint64_t seed_;
  double setup_s_ = 0;
  double onboard_ns_per_host_ = 0;

  // Schedule.
  std::vector<Host> hosts_;
  std::vector<std::string> edge_names_;
  std::vector<std::uint32_t> send_order_;  // hosts by ascending phase
  std::vector<std::int64_t> phase_ns_;     // phase of send_order_[i]
  std::int64_t period_ns_ = 0;
  std::vector<Roam> roams_;
  std::vector<double> link_latency_us_;
  std::int64_t outage_at_ = -1;  // absolute sim ns

  // Fabric under test.
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<fabric::SdaFabric> fabric_;
  std::unique_ptr<faults::FaultPlane> faults_;
  std::vector<dataplane::EdgeRouter*> edge_ptr_;
  dataplane::BorderRouter* border_ = nullptr;
  std::unordered_map<std::uint32_t, std::uint32_t> host_by_ip_;

  // Replay cursor.
  std::int64_t t0_ = 0;
  std::int64_t t_end_ = 0;
  std::int64_t tick_ns_ = 0;
  std::uint64_t tick_ = 0;
  std::uint64_t ticks_ = 0;
  std::uint64_t cycle_ = 0;
  std::size_t order_pos_ = 0;
  std::size_t next_roam_ = 0;
  std::uint64_t draws_ = 0;  // uniform-destination draw counter
  std::uint64_t query_draws_ = 0;

  LayerTrace* tracing_ = nullptr;  // set while a traced tick injects an op

  // Packet accounting.
  std::vector<Flight> ring_;
  std::uint16_t next_tag_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t refused_ = 0;
  std::uint64_t skipped_ = 0;  // sends from hosts detached mid-roam
  std::uint64_t delivered_ = 0;
  std::uint64_t listener_calls_ = 0;
  std::uint64_t misdelivered_ = 0;
  bool in_phase_ = false;  // the measured phase has started
  std::uint64_t phase_sent_ = 0;
  std::uint64_t phase_delivered_ = 0;
  LogHistogram latency_ns_;
  LogHistogram first_packet_ns_;
  LogHistogram setup_first_packet_ns_;

  // Onboarding and roams.
  std::uint64_t onboarded_ = 0;
  std::vector<double> onboard_ms_;
  std::uint64_t roams_started_ = 0;
  std::uint64_t roams_done_ = 0;
  std::uint64_t roams_failed_ = 0;
  std::vector<double> handover_ms_;
  std::int64_t failover_ns_ = -1;

  // Measured-phase baselines.
  std::uint64_t events_at_t0_ = 0;
  CacheTotals cache_at_t0_;
  std::vector<std::size_t> sojourns_at_t0_;
  ArmResults results_;
};

}  // namespace fabricbench
