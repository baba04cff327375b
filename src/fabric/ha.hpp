// Control-plane high availability: server health tracking, failover,
// replica anti-entropy (PR 4), and the elected-primary machinery (PR 6):
// leader election, epoch fencing, and flap dampening.
//
// The paper's deployments run the routing server as a VM that can crash or
// be partitioned away (§4.1 scale-out, §5 war stories). This monitor gives
// each edge group a heartbeat on its assigned routing server: the group's
// lead edge probes the server over the real (lossy, partitionable) control
// plane, N consecutive misses declare it down, and Map-Requests plus
// reliable-register acks fail over to the next live replica. Fail-back is
// hysteretic — a recovering server must answer several consecutive
// heartbeats before traffic returns, so a flapping VM cannot thrash the
// edges.
//
// Replicas that were down (or partitioned) miss the registrations fanned
// out during the outage window. The anti-entropy loop periodically
// exchanges order-independent database digests between the leader and each
// replica and reconciles divergent pairs (newest-registration-wins,
// tombstones propagate deletions), so a healed replica converges without
// replaying the feed.
//
// Leader election (bully-with-epochs): every replica runs a follower
// watchdog with a decorrelated-jittered timeout; a replica that hears no
// leader assert opens a new term (monotonic epoch) and claims it. A live,
// unsuppressed lower-index peer objects by opening a yet-newer term, so
// the lowest eligible index wins; an unchallenged candidate becomes
// leader and takes over the Notify-acking authority, the pub/sub feed,
// and the anti-entropy driver. Leadership is sticky: a recovered
// ex-leader hears the newer term and stays a follower, so there is no
// failback churn at the leadership layer. Epoch stamps on Map-Notifies,
// publishes, and anti-entropy digests fence a deposed leader's messages
// out (split-brain).
//
// Flap dampening (BGP-style hold-down): each up/down transition charges a
// penalty that decays exponentially; above the suppress threshold the
// server is excluded from active_server_for() and from election until the
// penalty decays below reuse — a server oscillating at the miss/ack
// boundary causes at most one failover.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fabric/config.hpp"
#include "lisp/map_server.hpp"
#include "lisp/map_server_node.hpp"
#include "net/ip_address.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "telemetry/flight_recorder.hpp"

namespace sda::telemetry {
class MetricsRegistry;
}

namespace sda::fabric {

class HaMonitor {
 public:
  /// Control-plane delivery (edge RLOC <-> server RLOC); heartbeats,
  /// election messages, and digest exchanges ride the same lossy underlay
  /// as every other control message, so partitions and loss fail them
  /// realistically.
  using ControlSend = std::function<void(net::Ipv4Address from, net::Ipv4Address to,
                                         std::size_t bytes, sim::InlineAction action)>;
  /// Flight-recorder hook (Failover / Failback / AntiEntropy / election
  /// and dampening events).
  using EventHook = std::function<void(telemetry::EventKind kind, const std::string& node,
                                       std::string detail)>;
  /// Fired when a node wins an election: (leader index, new epoch). The
  /// fabric re-homes the pub/sub feed and advertises the epoch to edges.
  using LeaderChangedHook = std::function<void(std::size_t leader, std::uint64_t epoch)>;
  /// Catch-up trace hooks (PR 9): `begin` fires when a replica's digest is
  /// first seen lagging, `end` when its digests agree again — the fabric
  /// wires these to a CausalTracer Catchup operation feeding the
  /// assurance.catchup_convergence_us histogram.
  using CatchupBeginHook = std::function<void(std::size_t replica)>;
  using CatchupEndHook = std::function<void(std::size_t replica, bool via_snapshot)>;

  /// Sentinel for "no leader": returned by leader() while the cluster is
  /// genuinely leaderless (mid-election, or quorum-stalled).
  static constexpr std::size_t kNoLeader = static_cast<std::size_t>(-1);

  /// `servers[i]` is routing server i's queueing front end and
  /// `databases[i]` the MapServer behind it (index 0 = the initial
  /// leader). `seed` derives the per-node election-timeout jitter.
  HaMonitor(sim::Simulator& simulator, HaConfig config,
            std::vector<lisp::MapServerNode*> servers,
            std::vector<lisp::MapServer*> databases, ControlSend control_send,
            EventHook event_hook, std::uint64_t seed = 0x5DA);

  /// Sets where server `i`'s heartbeats originate (normally the lead edge
  /// of the group assigned to it). Defaults to the server's own RLOC.
  void set_probe_source(std::size_t server, net::Ipv4Address edge_rloc);

  void set_leader_changed(LeaderChangedHook hook) { leader_changed_ = std::move(hook); }
  void set_catchup_hooks(CatchupBeginHook begin, CatchupEndHook end) {
    catchup_begin_ = std::move(begin);
    catchup_end_ = std::move(end);
  }

  /// Arms the heartbeat, anti-entropy, and election timers. All are
  /// perpetual — drive the simulation with run_until(), not run().
  void start();

  [[nodiscard]] bool failover_enabled() const { return config_.failover; }
  [[nodiscard]] bool election_enabled() const {
    return config_.election && servers_.size() > 1;
  }
  [[nodiscard]] bool dampening_enabled() const { return config_.dampening; }
  [[nodiscard]] std::size_t server_count() const { return servers_.size(); }
  [[nodiscard]] bool server_up(std::size_t i) const { return state_[i].up; }

  /// The server index a group homed on `home` should currently use: the
  /// home server while it is believed up and unsuppressed, otherwise the
  /// next live unsuppressed replica (wrapping). With every server down —
  /// or failover disabled — the home server is returned (keep trying;
  /// retransmission covers the gap).
  [[nodiscard]] std::size_t active_server_for(std::size_t home) const;

  // --- Election introspection ---------------------------------------------

  /// Cluster-consensus view: the leader believed by the highest-epoch
  /// *online* node that believes any leader exists (initially 0), or
  /// kNoLeader while the cluster is leaderless — a deposed/crashed
  /// leader's stale belief does not fill the gap, and a quorum-stalled
  /// minority candidate's (leaderless) higher term does not mask a
  /// still-working majority leader. Meaningful only with election enabled.
  [[nodiscard]] std::size_t leader() const;
  /// False while leaderless (the ha.election.leader gauge reports -1).
  [[nodiscard]] bool has_leader() const { return leader() != kNoLeader; }
  /// Whether elections require a strict majority of configured replicas.
  [[nodiscard]] bool quorum_enabled() const {
    return election_enabled() && config_.election_quorum;
  }
  /// True while some candidacy has stalled on a failed quorum and no
  /// quorate leader has been elected since (the ha.election.quorum gauge).
  [[nodiscard]] bool quorum_lost() const { return quorum_lost_; }
  /// The highest election epoch any node has opened (1 before the first
  /// election; 0 when election is disabled).
  [[nodiscard]] std::uint64_t epoch() const;
  /// The highest epoch at which some node actually holds a leader belief —
  /// unlike epoch(), a quorum-stalled candidacy's inflated term does not
  /// count. This is the fence for "stale leadership": an ack or publish
  /// stamped below it came from a deposed leader, whereas one merely below
  /// a failed candidacy's term is still the standing leader's word.
  [[nodiscard]] std::uint64_t leadership_epoch() const;
  /// Node i's local term — stamped on its acks, publishes, and digests.
  [[nodiscard]] std::uint64_t node_epoch(std::size_t i) const {
    return election_enabled() ? election_[i].epoch : 0;
  }
  /// Whether node i currently believes it is the leader (split-brain
  /// faithful: a partitioned ex-leader keeps believing until it observes
  /// the newer term).
  [[nodiscard]] bool node_believes_leader(std::size_t i) const {
    return election_enabled() ? election_[i].leader == i : i == 0;
  }

  // --- Dampening introspection --------------------------------------------

  /// Whether server i is currently held down by flap dampening.
  [[nodiscard]] bool suppressed(std::size_t i) const { return state_[i].suppressed; }
  /// Server i's current (decayed) dampening penalty.
  [[nodiscard]] double penalty(std::size_t i) const;

  struct Counters {
    std::uint64_t heartbeats_sent = 0;
    std::uint64_t heartbeat_misses = 0;
    std::uint64_t failovers = 0;   // servers declared down
    std::uint64_t failbacks = 0;   // servers restored after hysteresis
    std::uint64_t anti_entropy_rounds = 0;
    std::uint64_t digest_mismatches = 0;
    std::uint64_t anti_entropy_repairs = 0;  // entries pushed/pulled/removed
    std::uint64_t elections_started = 0;     // terms opened by a watchdog
    std::uint64_t leaders_elected = 0;       // unchallenged claims won
    std::uint64_t epoch_rejections = 0;      // stale-epoch messages fenced
    std::uint64_t suppressions = 0;          // dampening hold-downs entered
    // Quorum elections (PR 9).
    std::uint64_t quorum_stalls = 0;     // candidacies that failed majority
    std::uint64_t minority_leaders = 0;  // breach audit: wins without quorum (must stay 0)
    // Log-style catch-up (PR 9).
    std::uint64_t catchup_replays = 0;            // delta replays from the leader log
    std::uint64_t catchup_entries_replayed = 0;   // log entries shipped by replays
    std::uint64_t catchup_snapshot_fallbacks = 0; // log enabled but horizon passed
    std::uint64_t catchup_replay_bytes = 0;       // control bytes of replay legs
    std::uint64_t snapshot_bytes = 0;             // control bytes of table-exchange legs
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  /// Entries repaired by the most recent anti-entropy round — the
  /// replica-divergence convergence metric (0 once replicas agree).
  [[nodiscard]] std::uint64_t last_divergence() const { return last_divergence_; }

  /// Pull probes under `prefix` (e.g. "ha"): counters above plus
  /// servers_up / replica_divergence gauges and the election/dampening
  /// gauges (ha.election.term, ha.election.leader, ha.dampening.suppressed).
  void register_metrics(telemetry::MetricsRegistry& registry, const std::string& prefix) const;

 private:
  struct ServerState {
    net::Ipv4Address probe_source;
    bool up = true;
    unsigned misses = 0;      // consecutive unanswered heartbeats while up
    unsigned ack_streak = 0;  // consecutive answered heartbeats while down
    std::uint64_t beat = 0;   // the open heartbeat's number; bumped as it settles
    // Flap dampening (lazily decayed exponential penalty).
    double penalty = 0.0;
    sim::SimTime penalty_at{};
    bool suppressed = false;
  };

  struct ElectionState {
    std::uint64_t epoch = 1;   // highest term this node has seen
    std::size_t leader = 0;    // who this node believes leads (kNoLeader = none)
    bool candidate = false;    // claim outstanding
    std::uint64_t votes = 0;   // quorum acks collected for the open claim
    sim::SimTime last_assert{};       // when a leader assert was last heard
    sim::Duration watchdog_timeout{}; // current jittered timeout
  };

  /// Per-replica catch-up bookkeeping held by the anti-entropy driver.
  struct SyncState {
    std::size_t driver = kNoLeader;  // whose log applied_seq refers to
    std::uint64_t applied_seq = 0;   // driver-log seq the replica has applied
    std::uint64_t generation = 0;    // replica DB generation when last noted
    bool open = false;               // a catch-up operation is in progress
    bool via_snapshot = false;       // last repair path taken
  };

  void heartbeat(std::size_t server);
  void heartbeat_verdict(std::size_t server, std::uint64_t beat, bool answered);
  void anti_entropy_round();
  void anti_entropy_with(std::size_t driver, std::size_t replica);

  // Election machinery (all node-local state; messages ride control_send_).
  void arm_watchdog(std::size_t node);
  void assert_tick();
  void start_election(std::size_t node);
  void receive_claim(std::size_t node, std::size_t from, std::uint64_t claim_epoch);
  void receive_vote(std::size_t candidate, std::size_t from, std::uint64_t claim_epoch);
  void receive_assert(std::size_t node, std::size_t from, std::uint64_t assert_epoch,
                      std::size_t leader_hint);
  void become_leader(std::size_t node);
  void send_assert(std::size_t from, std::size_t to);
  /// Strict majority of *configured* replicas, counting the candidate.
  [[nodiscard]] bool quorum_reached(const ElectionState& el) const {
    return el.votes + 1 > servers_.size() / 2;
  }

  // Catch-up repair legs and trace-op bookkeeping.
  void note_synced(std::size_t driver, std::size_t replica);
  void open_catchup(std::size_t replica);
  void close_catchup(std::size_t replica);

  // Dampening: charge a transition / decay and release.
  void charge_flap(std::size_t server);
  void refresh_dampening(std::size_t server);
  [[nodiscard]] double decayed_penalty(const ServerState& st) const;

  void emit(telemetry::EventKind kind, std::size_t server, std::string detail);

  sim::Simulator& simulator_;
  HaConfig config_;
  std::vector<lisp::MapServerNode*> servers_;
  std::vector<lisp::MapServer*> databases_;
  ControlSend control_send_;
  EventHook event_hook_;
  LeaderChangedHook leader_changed_;
  CatchupBeginHook catchup_begin_;
  CatchupEndHook catchup_end_;
  std::vector<ServerState> state_;
  std::vector<ElectionState> election_;
  std::vector<SyncState> sync_;
  std::vector<sim::Rng> node_rng_;  // per-node timeout decorrelation
  Counters counters_;
  std::uint64_t last_divergence_ = 0;
  bool quorum_lost_ = false;
};

}  // namespace sda::fabric
