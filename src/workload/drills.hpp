// Operational drills: the paper's §5 lessons re-enacted on a small campus
// under a seeded fault plane — a routing-server outage, a leader loss, an
// oscillating server, a partition, a rebooted replica, a re-registration
// storm, and the assurance plane watching a leader kill end to end.
//
// Each runner builds its fabric through one harness (DrillFabric), drives
// it to quiesce and returns a plain result struct. bench_chaos_convergence
// prints some of them; tests/workload/drills_test.cpp asserts all of them.
// Fully deterministic: the fabric and the fault plane share one seed.
//
// DrillFabric serves the drills and the design-choice ablations
// (ablations.hpp) alike: it is the one way to build a small fabric here.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fabric/fabric.hpp"
#include "faults/fault_plane.hpp"
#include "sim/simulator.hpp"
#include "telemetry/assurance.hpp"

namespace sda::workload {

/// The VN every DrillFabric defines and provisions its hosts into.
inline constexpr net::VnId kDrillVn{100};
/// Seed of every drill fabric and its fault plane.
inline constexpr std::uint64_t kDrillSeed = 0x5DA;
/// Gap between two packets of one flow (200 Hz). In whole milliseconds, so
/// a flow's phase kDrillSendGap * i / n rounds down to the millisecond.
inline constexpr std::chrono::milliseconds kDrillSendGap{5};

/// The base config of a drill: no L2 gateway, the drill seed, `routing_servers`
/// replicas, and retry budgets (8 Map-Request, 10 Map-Register retransmits)
/// that ride out a multi-second outage.
[[nodiscard]] fabric::FabricConfig drill_config(unsigned routing_servers);
/// drill_config() plus routing-server failover on fast heartbeats (every
/// 100 ms, 30 ms ack timeout; the default 3 misses declare a server down and
/// 4 acks bring it back) and anti-entropy every 500 ms.
[[nodiscard]] fabric::FabricConfig failover_config(unsigned routing_servers);

/// The fabric a drill runs on. Hosts h<i> have MAC 02:00:00:00:00:<i>, group
/// 10 unless provision() is told otherwise, and live in VN 100 ("corp",
/// 10.100.0.0/16). Set-up is: construct, provision(), settle the simulator,
/// start(), schedule faults and flows on `plane` relative to `t0`, run.
class DrillFabric {
 public:
  /// Adds the borders, edges and links and returns the edge names.
  using Wiring = std::function<std::vector<std::string>(fabric::SdaFabric&)>;

  /// `config.routing_servers` borders b0.. in a ring, and `edges` edges e0..
  /// each linked to every border.
  DrillFabric(const fabric::FabricConfig& config, int edges);
  /// The same harness over a caller-built topology.
  DrillFabric(const fabric::FabricConfig& config, const Wiring& wire);
  // Scheduled events and the delivery listener hold `this`.
  DrillFabric(const DrillFabric&) = delete;
  DrillFabric& operator=(const DrillFabric&) = delete;

  [[nodiscard]] static net::MacAddress mac(int host);
  /// The RADIUS identity of `host`: "h<host>".
  [[nodiscard]] static std::string credential(int host);

  /// Provisions hosts 0..hosts-1, host i in `group(i)` (group 10 without
  /// one), and onboards the first `connected` of them, host i on edge
  /// i mod edges, port 1: at once, or with a nonzero `stagger` the i-th
  /// after i × stagger.
  void provision(int hosts, int connected, sim::Duration stagger = {},
                 const std::function<net::GroupId(int)>& group = {});
  /// Onboards `host` on `edges[edge]`; `done` gets the result once the
  /// address is in ips.
  void connect(int host, std::size_t edge, dataplane::PortId port,
               std::function<void(const fabric::OnboardResult&)> done = {});

  /// Ends set-up: t0 is now, the fault plane is armed (recording into the
  /// flight recorder), and sends and deliveries are counted in 100 ms
  /// buckets over [t0, t0 + run_for].
  void start(sim::Duration run_for);
  /// `from` sends 200-byte UDP to `to` every kDrillSendGap over
  /// [t0 + first, t0 + run_for), once both are onboarded.
  void flow(int from, int to, sim::Duration first);

  /// End of the last bucket that lost traffic, in ms after t0 + `since`;
  /// -1 when no bucket lost any.
  [[nodiscard]] double reconvergence_ms(sim::Duration since) const;
  /// (seconds after t0, delivered fraction) of every bucket that sent.
  [[nodiscard]] std::vector<std::pair<double, double>> fraction_series() const;

  sim::Simulator sim;
  fabric::SdaFabric fabric;
  std::vector<std::string> edges;
  std::vector<net::Ipv4Address> ips;  // per host, once onboarded
  std::optional<faults::FaultPlane> plane;
  sim::SimTime t0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;

 private:
  [[nodiscard]] std::size_t bucket_of(sim::SimTime at) const;

  sim::Duration run_for_{};
  std::vector<std::uint64_t> sent_in_;
  std::vector<std::uint64_t> arrived_in_;
};

// --- Server kill: a routing server dies, with and without failover ---------
//
// Two routing servers (edges round-robined between them), border default
// route off so Map-Request resolution is load-bearing. Server 0 is dark for
// 3 s while three cold flows start, all from edges homed on it. Without HA
// those flows blackhole until it returns; with HA the heartbeat monitor
// fails the edges over to the replica and the cold starts cost a blip. A
// late endpoint onboards mid-outage; anti-entropy repairs the registration
// the dead primary missed.

struct ServerKillDrillResult {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  double reconvergence_ms = -1;  // outage end -> last lossy bucket
  std::uint64_t failovers = 0;
  std::uint64_t failbacks = 0;
  std::uint64_t anti_entropy_repairs = 0;
  std::uint64_t request_retries = 0;

  [[nodiscard]] double fraction() const {
    return sent ? static_cast<double>(delivered) / static_cast<double>(sent) : 1.0;
  }
};

[[nodiscard]] ServerKillDrillResult run_server_kill_drill(bool ha_on);

// --- Election: kill the elected leader, resurrect it stale -----------------
//
// The server-kill fabric with leader election on: server 0 leads until it is
// blacked out; the replica's watchdog opens a new term and takes over the
// acking authority and the pub/sub feed (borders snapshot-resync onto it).
// The ex-leader returns still believing it leads; its stale-term asserts,
// acks and pushes must all be fenced.

struct ElectionDrillResult {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t term = 0;
  std::size_t leader = 0;
  std::uint64_t elections = 0;
  std::uint64_t resyncs = 0;        // border snapshot pulls (feed re-homes)
  std::uint64_t stale_rejects = 0;  // epoch-fenced messages, all receivers
  std::uint64_t stale_accepts = 0;  // fence breaches (must be 0)
  std::uint64_t min_feed_epoch = 0;

  [[nodiscard]] double fraction() const {
    return sent ? static_cast<double>(delivered) / static_cast<double>(sent) : 1.0;
  }
};

[[nodiscard]] ElectionDrillResult run_election_drill();

// --- Oscillation: flap dampening vs failover churn -------------------------
//
// Server 0 oscillates at the miss/ack boundary: down long enough to be
// declared dead, up long enough to pass fail-back hysteresis, three times.
// Without dampening that is three failover/failback cycles; with it the
// penalty crosses the suppress threshold after the first flap and the
// server is held down until the penalty decays.

struct OscillationDrillResult {
  std::uint64_t failovers = 0;
  std::uint64_t failbacks = 0;
  std::uint64_t suppressions = 0;
  bool released = false;  // suppression lifted once the penalty decayed
};

[[nodiscard]] OscillationDrillResult run_oscillation_drill(bool dampening_on);

// --- Quorum: a minority partition must elect no leader ---------------------
//
// Three routing servers (one per border) with quorum elections. Border b2,
// hosting replica 2, is partitioned off: the minority loses the leader's
// asserts, opens term after term, and every candidacy must stall leaderless
// while the two-node majority keeps leader 0 and serves onboards. On heal
// the minority's inflated term forces one quorate re-election.

struct QuorumDrillResult {
  std::uint64_t stalls = 0;
  std::uint64_t minority_led_samples = 0;  // minority believed it led (must be 0)
  std::uint64_t minority_wins = 0;         // breach-audit counter (must be 0)
  long long mid_leader = -2;               // majority consensus mid-partition
  long long final_leader = -2;
  std::uint64_t term = 0;
  bool quorum_dipped = false;  // the quorum gauge went 0 during the partition
  bool quorum_held_at_end = false;
  bool onboard_ok = false;
  std::uint64_t stale_accepts = 0;
  bool invariant_pass = false;  // no-minority-leader at quiesce
};

[[nodiscard]] QuorumDrillResult run_quorum_drill();

// --- Catch-up: log replay vs snapshot resync -------------------------------
//
// Two routing servers; replica 1 reboots (database kept) for 2 s while a
// dozen endpoints onboard, a lag only anti-entropy can repair. A roomy
// `log_capacity` repairs by delta replay (far fewer control bytes than a
// table exchange), 0 is the snapshot-only path, and a log smaller than the
// missed delta has its horizon passed and falls back to the snapshot.

struct CatchupDrillResult {
  std::size_t capacity = 0;
  std::uint64_t replays = 0;
  std::uint64_t entries = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t replay_bytes = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t catchup_n = 0;  // assurance.catchup_convergence_us samples
  bool converged = false;
};

[[nodiscard]] CatchupDrillResult run_catchup_drill(std::size_t log_capacity);

// --- Stampede: the post-election admission ramp sheds the re-register rush -

struct StampedeDrillResult {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t ramp_sheds = 0;
  std::uint64_t sheds = 0;
  std::size_t peak_backlog = 0;
  std::size_t limit = 0;
  int onboards_done = 0;
  int onboards_asked = 0;
  std::size_t parked = 0;
  long long leader = -2;
  bool ramp_ended = false;

  [[nodiscard]] double fraction() const {
    return sent ? static_cast<double>(delivered) / static_cast<double>(sent) : 1.0;
  }
};

[[nodiscard]] StampedeDrillResult run_stampede_drill();

// --- Assurance: the causal tracer and the assurance engine end to end ------
//
// The election fabric with causal tracing on: onboards open Register
// operations, roams open Move and SmrFanout operations, and the leader kill
// opens a FailoverRehome operation, so one run fills all four assurance.*
// convergence histograms. At quiesce the engine audits its invariants and
// four convergence SLOs. `breach` adds a 100 ms SMR delay, which must trip
// smr-fanout-p95 and nothing else.

struct AssureDrillResult {
  std::uint64_t register_n = 0;
  std::uint64_t move_n = 0;
  std::uint64_t rehome_n = 0;
  std::uint64_t smr_n = 0;
  std::size_t open_ops = 0;
  std::uint64_t abandoned = 0;
  std::vector<telemetry::Verdict> invariants;
  std::vector<telemetry::Verdict> slos;
};

/// `at_quiesce` sees the fabric once the result is taken (the bench exports
/// the causal trace from it).
[[nodiscard]] AssureDrillResult run_assurance_drill(
    bool breach, const std::function<void(const fabric::SdaFabric&)>& at_quiesce = {});

}  // namespace sda::workload
