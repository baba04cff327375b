// The operational drills' pass criteria, asserted on the structs the
// runners return: one test per drill, so a failure names its drill.
#include "workload/drills.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

namespace sda::workload {
namespace {

using Names = std::set<std::string>;

Names names(const std::vector<telemetry::Verdict>& verdicts) {
  Names out;
  for (const auto& v : verdicts) out.insert(v.name);
  return out;
}

Names failed(const std::vector<telemetry::Verdict>& verdicts) {
  Names out;
  for (const auto& v : verdicts) {
    if (!v.pass) out.insert(v.name + ": " + v.detail);
  }
  return out;
}

// A 3 s routing-server kill is survivable with the HA layer on and visibly
// lossy with it off, so the HA-on result is not an artifact of a toothless
// scenario.
TEST(Drills, ServerKill) {
  const ServerKillDrillResult on = run_server_kill_drill(true);
  const ServerKillDrillResult off = run_server_kill_drill(false);
  ASSERT_GT(on.sent, 0u);
  EXPECT_EQ(on.sent, off.sent) << "the two arms sent different traffic";

  EXPECT_GE(on.fraction(), 0.99);
  EXPECT_LE(on.reconvergence_ms, 500.0) << "HA-on loss outlived the outage by > 500 ms";
  EXPECT_GE(on.failovers, 1u) << "heartbeat monitor never declared the server down";
  EXPECT_GE(on.failbacks, 1u) << "server never failed back after recovery";
  EXPECT_GE(on.anti_entropy_repairs, 1u)
      << "anti-entropy repaired nothing despite a mid-outage registration";

  EXPECT_LE(off.fraction(), 0.97) << "HA-off: the outage is not visible";
  EXPECT_GT(off.reconvergence_ms, 0.0) << "HA-off: no post-outage loss to recover from";
  EXPECT_LE(off.fraction() + 0.02, on.fraction())
      << "HA on/off fractions too close to attribute to failover";
}

// Killing the elected leader opens a new term under a new leader, the
// pub/sub feed re-homes by snapshot resync, and the resurrected ex-leader is
// fenced, never believed.
TEST(Drills, Election) {
  const ElectionDrillResult r = run_election_drill();
  EXPECT_GE(r.term, 2u) << "leader kill never opened a new term";
  EXPECT_NE(r.leader, 0u) << "dead server 0 still leads after the kill";
  EXPECT_GE(r.elections, 1u);
  EXPECT_GE(r.resyncs, 1u) << "no border snapshot resync: feed never re-homed";
  EXPECT_GE(r.min_feed_epoch, 2u) << "a border is still on the old feed epoch";
  EXPECT_GE(r.stale_rejects, 1u) << "resurrected ex-leader sent nothing to fence";
  EXPECT_EQ(r.stale_accepts, 0u) << "epoch fence leaked";
  EXPECT_GE(r.fraction(), 0.97);
}

// Dampening caps an oscillating server at one failover; without it the
// same oscillation churns, or the drill proves nothing.
TEST(Drills, Oscillation) {
  const OscillationDrillResult damped = run_oscillation_drill(true);
  const OscillationDrillResult churn = run_oscillation_drill(false);
  EXPECT_EQ(damped.failovers, 1u);
  EXPECT_GE(damped.suppressions, 1u) << "dampening never suppressed the flapping server";
  EXPECT_TRUE(damped.released) << "suppression never released after the penalty decayed";
  EXPECT_GE(churn.failovers, 2u) << "undamped oscillation shows no churn to damp";
}

// A partitioned one-node minority stalls leaderless; the majority keeps
// leader 0 and serves onboards; the healed cluster reconverges quorate.
TEST(Drills, Quorum) {
  const QuorumDrillResult r = run_quorum_drill();
  EXPECT_GE(r.stalls, 1u) << "minority candidacies never stalled on a failed quorum";
  EXPECT_EQ(r.minority_led_samples, 0u) << "minority believed it led: quorum gate leaked";
  EXPECT_EQ(r.minority_wins, 0u);
  EXPECT_TRUE(r.quorum_dipped) << "ha.election.quorum gauge never dipped mid-partition";
  EXPECT_EQ(r.mid_leader, 0) << "majority lost its leader mid-partition";
  EXPECT_TRUE(r.onboard_ok) << "mid-partition onboard on the majority side never completed";
  EXPECT_EQ(r.stale_accepts, 0u);
  EXPECT_EQ(r.final_leader, 0) << "cluster did not reconverge on leader 0 after heal";
  EXPECT_TRUE(r.quorum_held_at_end) << "quorum gauge still reads lost after reconvergence";
  EXPECT_TRUE(r.invariant_pass) << "no-minority-leader invariant failed";
}

// Delta replay repairs a rebooted replica in fewer control bytes than the
// snapshot exchange; past the log horizon it falls back to the snapshot;
// every arm converges.
TEST(Drills, Catchup) {
  const CatchupDrillResult log = run_catchup_drill(4096);
  const CatchupDrillResult snap = run_catchup_drill(0);
  const CatchupDrillResult horizon = run_catchup_drill(8);
  EXPECT_GE(log.replays, 1u) << "roomy-log arm never repaired by delta replay";
  EXPECT_GE(log.entries, 1u);
  EXPECT_EQ(log.fallbacks, 0u) << "roomy-log arm fell back to a snapshot";
  EXPECT_EQ(snap.replays, 0u) << "log-disabled arm replayed a log";
  EXPECT_GT(snap.snapshot_bytes, 0u);
  EXPECT_GT(log.replay_bytes, 0u);
  EXPECT_LT(log.replay_bytes, snap.snapshot_bytes)
      << "delta replay not cheaper than the snapshot exchange";
  EXPECT_GE(horizon.fallbacks, 1u) << "horizon-passed arm never fell back to a snapshot";
  EXPECT_GT(horizon.snapshot_bytes, 0u);
  for (const CatchupDrillResult* arm : {&log, &snap, &horizon}) {
    SCOPED_TRACE("log capacity " + std::to_string(arm->capacity));
    EXPECT_TRUE(arm->converged);
    EXPECT_GE(arm->catchup_n, 1u) << "assurance.catchup_convergence_us is empty";
  }
}

// A freshly elected leader sheds the re-registration rush while its
// admission ramp opens, and every shed onboard completes on retry.
TEST(Drills, Stampede) {
  const StampedeDrillResult r = run_stampede_drill();
  EXPECT_GE(r.ramp_sheds, 1u) << "admission ramp never shed a post-election register";
  EXPECT_LE(r.peak_backlog, r.limit) << "in-flight registers not bounded";
  EXPECT_EQ(r.onboards_done, r.onboards_asked);
  EXPECT_EQ(r.parked, 0u) << "frames left parked after the stampede";
  EXPECT_EQ(r.leader, 1) << "replica 1 did not hold leadership through the stampede";
  EXPECT_TRUE(r.ramp_ended) << "ramp window never closed";
  EXPECT_GE(r.fraction(), 0.97);
}

// Every kind of control-plane operation is traced to completion, every
// invariant holds in both runs, and the 100 ms SMR delay trips exactly the
// smr-fanout SLO: the gate can go red, and the breach is attributed.
TEST(Drills, Assurance) {
  const Names invariants = {
      "zero-stale-epoch-accepts", "no-minority-leader",   "replica-divergence-converged",
      "no-parked-packet-leak",    "no-frame-slot-leak",   "no-control-slot-leak",
      "no-server-job-slot-leak",  "no-pending-trace-leak", "pubsub-gap-resolved"};
  const Names slos = {"smr-fanout-p95", "move-convergence-p95", "register-rtt-p95",
                      "failover-rehome-p95"};

  const AssureDrillResult normal = run_assurance_drill(false);
  EXPECT_GE(normal.register_n, 1u);
  EXPECT_GE(normal.move_n, 1u);
  EXPECT_GE(normal.rehome_n, 1u);
  EXPECT_GE(normal.smr_n, 1u);
  EXPECT_EQ(normal.open_ops, 0u) << "causal operations still open at quiesce";
  EXPECT_EQ(names(normal.invariants), invariants);
  EXPECT_EQ(failed(normal.invariants), Names{});
  EXPECT_EQ(names(normal.slos), slos);
  EXPECT_EQ(failed(normal.slos), Names{});

  const AssureDrillResult breach = run_assurance_drill(true);
  EXPECT_EQ(names(breach.invariants), invariants);
  EXPECT_EQ(failed(breach.invariants), Names{});
  EXPECT_EQ(names(breach.slos), slos);
  Names breached;
  for (const auto& v : breach.slos) {
    if (!v.pass) breached.insert(v.name);
  }
  EXPECT_EQ(breached, Names{"smr-fanout-p95"});
}

}  // namespace
}  // namespace sda::workload
