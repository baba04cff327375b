// Partition-tolerant control plane (PR 9), end to end on a real fabric:
// quorum elections refusing minority leadership, leaderless telemetry
// while a candidacy stalls, log-based catch-up repairing a lagging
// replica by delta replay, and snapshot fallback past the log horizon.
//
// Election, heartbeat, and anti-entropy timers are perpetual, so every
// test here drives the clock with run_until() (never run()).
#include <gtest/gtest.h>

#include <string>

#include "fabric/fabric.hpp"
#include "fabric/inspect.hpp"
#include "faults/fault_plane.hpp"

namespace sda::faults {
namespace {

using net::GroupId;
using net::MacAddress;
using net::VnId;
using std::chrono::milliseconds;
using std::chrono::seconds;

constexpr VnId kCorp{100};
constexpr GroupId kEmployees{10};

MacAddress mac(std::uint64_t i) { return MacAddress::from_u64(0x0200'0000'0000ull | i); }

fabric::FabricConfig quorum_config(std::size_t servers) {
  fabric::FabricConfig cfg;
  cfg.routing_servers = static_cast<unsigned>(servers);
  cfg.ha.failover = true;
  cfg.ha.heartbeat_interval = milliseconds{100};
  cfg.ha.heartbeat_timeout = milliseconds{20};
  cfg.ha.down_after_misses = 3;
  cfg.ha.up_after_acks = 4;
  cfg.ha.anti_entropy_interval = milliseconds{500};
  cfg.ha.election = true;
  cfg.ha.election_heartbeat_interval = milliseconds{100};
  cfg.ha.election_timeout = milliseconds{400};
  cfg.ha.election_claim_timeout = milliseconds{60};
  cfg.ha.election_quorum = true;
  cfg.map_request_retries = 8;
  cfg.map_register_retries = 10;
  return cfg;
}

// Three borders so each of the three routing servers gets its own
// underlay node (server i homes on border i) — partitioning one border
// isolates exactly one replica.
struct QuorumFixture : ::testing::Test {
  void SetUp() override { build(quorum_config(3), /*borders=*/3); }

  void build(const fabric::FabricConfig& cfg, int borders) {
    fabric = std::make_unique<fabric::SdaFabric>(sim, cfg);
    for (int b = 0; b < borders; ++b) fabric->add_border("b" + std::to_string(b));
    for (int e = 0; e < 4; ++e) {
      const std::string name = "e" + std::to_string(e);
      fabric->add_edge(name);
      for (int b = 0; b < borders; ++b) fabric->link(name, "b" + std::to_string(b));
    }
    for (int b = 0; b < borders; ++b) {
      for (int o = b + 1; o < borders; ++o) {
        fabric->link("b" + std::to_string(b), "b" + std::to_string(o));
      }
    }
    fabric->finalize();
    fabric->define_vn({kCorp, "corp", *net::Ipv4Prefix::parse("10.100.0.0/16")});
  }

  void provision(const std::string& credential, MacAddress m) {
    fabric::EndpointDefinition def;
    def.credential = credential;
    def.secret = "pw";
    def.mac = m;
    def.vn = kCorp;
    def.group = kEmployees;
    fabric->provision_endpoint(def);
  }

  fabric::OnboardResult connect(const std::string& credential, const std::string& edge) {
    fabric::OnboardResult result;
    fabric->connect_endpoint(credential, edge, 1,
                             [&](const fabric::OnboardResult& r) { result = r; });
    run_for(seconds{2});
    return result;
  }

  void run_for(sim::Duration d) { sim.run_until(sim.now() + d); }

  sim::Simulator sim;
  std::unique_ptr<fabric::SdaFabric> fabric;
};

TEST_F(QuorumFixture, PartitionedMinorityNeverElectsItself) {
  const auto* ha = fabric->ha_monitor();
  ASSERT_NE(ha, nullptr);
  ASSERT_TRUE(ha->quorum_enabled());

  provision("alice", mac(1));
  ASSERT_TRUE(connect("alice", "e0").success);
  EXPECT_EQ(ha->leader(), 0u);
  EXPECT_FALSE(ha->quorum_lost());

  // Partition replica 2's border away: the one-node minority loses the
  // leader's asserts, opens term after term, and every candidacy must
  // stall on a failed quorum — it can never believe it leads.
  FaultPlane plane{sim, fabric->underlay(), 0x0B09};
  const auto b2_node =
      fabric->underlay().topology().node_by_loopback(fabric->border("b2").rloc());
  ASSERT_TRUE(b2_node.has_value());
  plane.partition_node(*b2_node, sim::Duration{0}, seconds{6});

  run_for(seconds{3});  // inside the partition window
  EXPECT_FALSE(ha->node_believes_leader(2));
  EXPECT_GE(ha->counters().quorum_stalls, 1u);
  EXPECT_EQ(ha->counters().minority_leaders, 0u);
  EXPECT_TRUE(ha->quorum_lost());
  // The two-node majority keeps its leader and keeps serving: this
  // onboard runs entirely inside the partition window.
  EXPECT_EQ(ha->leader(), 0u);
  provision("bob", mac(2));
  EXPECT_TRUE(connect("bob", "e1").success);
  EXPECT_EQ(fabric->stale_epoch_acks_accepted(), 0u);

  // Mid-partition telemetry: the quorum gauge reads lost, the invariant
  // stays green (a stall is not a breach — a minority *win* would be).
  EXPECT_TRUE(ha->quorum_lost());
  const auto snapshot = fabric->metrics().snapshot();
  EXPECT_EQ(snapshot.gauges.at("ha.election.quorum"), 0.0);
  EXPECT_GE(snapshot.counters.at("ha.quorum_stalls"), 1u);
  EXPECT_EQ(snapshot.counters.at("ha.minority_leaders"), 0u);
  for (const auto& v : fabric->telemetry().assurance.evaluate_invariants()) {
    if (v.name == "no-minority-leader") {
      EXPECT_TRUE(v.pass) << v.detail;
    }
  }

  // Heal: the minority's inflated term forces one quorate re-election;
  // the cluster reconverges with quorum restored.
  run_for(seconds{4});
  EXPECT_EQ(ha->leader(), 0u);
  EXPECT_FALSE(ha->quorum_lost());
  EXPECT_EQ(ha->counters().minority_leaders, 0u);
  EXPECT_TRUE(ha->node_believes_leader(0));
  EXPECT_FALSE(ha->node_believes_leader(2));

  // The stall and the recovery both hit the flight recorder.
  const std::string log = fabric->flight_recorder().dump();
  EXPECT_NE(log.find("quorum-lost"), std::string::npos);
  EXPECT_NE(log.find("quorum-regained"), std::string::npos);
}

// Two-node quorum cluster: when the peer dies no majority exists at all,
// so the survivor must stall leaderless rather than elect itself.
struct TwoNodeQuorumFixture : QuorumFixture {
  void SetUp() override { build(quorum_config(2), /*borders=*/2); }
};

TEST_F(TwoNodeQuorumFixture, SurvivorStallsLeaderlessUntilPeerReturns) {
  const auto* ha = fabric->ha_monitor();
  provision("alice", mac(1));
  ASSERT_TRUE(connect("alice", "e0").success);
  EXPECT_EQ(ha->leader(), 0u);

  // Kill the leader. The survivor opens a term but can never collect a
  // majority (it alone is 1 of 2): leaderless, with the gauges saying so.
  fabric->map_server_node(0).set_online(false);
  run_for(seconds{3});
  EXPECT_FALSE(ha->has_leader());
  EXPECT_EQ(ha->leader(), fabric::HaMonitor::kNoLeader);
  EXPECT_TRUE(ha->quorum_lost());
  EXPECT_GE(ha->counters().quorum_stalls, 1u);
  EXPECT_EQ(ha->counters().minority_leaders, 0u);

  const auto snapshot = fabric->metrics().snapshot();
  EXPECT_EQ(snapshot.gauges.at("ha.election.leader"), -1.0);  // leaderless
  EXPECT_EQ(snapshot.gauges.at("ha.election.quorum"), 0.0);

  // The leaderless state surfaces in the operator inspect() report.
  const std::string report = fabric::inspect(*fabric, {});
  EXPECT_NE(report.find("leader none"), std::string::npos);
  EXPECT_NE(report.find("quorum LOST"), std::string::npos);

  // Peer returns: the next candidacy collects its vote and wins.
  fabric->map_server_node(0).set_online(true);
  run_for(seconds{4});
  EXPECT_TRUE(ha->has_leader());
  EXPECT_FALSE(ha->quorum_lost());
  const auto healed = fabric->metrics().snapshot();
  EXPECT_GE(healed.gauges.at("ha.election.leader"), 0.0);
  EXPECT_EQ(healed.gauges.at("ha.election.quorum"), 1.0);
}

// --- Log-based catch-up on a live fabric ------------------------------------

struct CatchupFixture : QuorumFixture {
  void SetUp() override {
    fabric::FabricConfig cfg = quorum_config(2);
    cfg.ha.election = false;  // isolate catch-up from election churn
    cfg.ha.election_quorum = false;
    cfg.ha.catchup_log_capacity = 256;
    build(cfg, /*borders=*/2);
  }
};

TEST_F(CatchupFixture, LaggingReplicaRepairsByDeltaReplayNotSnapshot) {
  const auto* ha = fabric->ha_monitor();
  provision("alice", mac(1));
  ASSERT_TRUE(connect("alice", "e0").success);
  run_for(seconds{1});  // anti-entropy records the replica as caught up

  // Replica 1 reboots (database preserved) across two onboards.
  fabric->map_server_node(1).set_online(false);
  provision("bob", mac(2));
  provision("carol", mac(3));
  ASSERT_TRUE(connect("bob", "e1").success);
  ASSERT_TRUE(connect("carol", "e2").success);
  const auto before = ha->counters();
  fabric->map_server_node(1).set_online(true);
  run_for(seconds{2});

  // The lag was repaired by replaying the leader's log delta — not by a
  // snapshot exchange — and the replica converged.
  const auto& after = ha->counters();
  EXPECT_GE(after.catchup_replays, before.catchup_replays + 1);
  EXPECT_GE(after.catchup_entries_replayed, before.catchup_entries_replayed + 2);
  EXPECT_EQ(after.catchup_snapshot_fallbacks, before.catchup_snapshot_fallbacks);
  EXPECT_EQ(ha->last_divergence(), 0u);
  EXPECT_EQ(fabric->map_server_replica(1).mapping_count(kCorp), 3u);
}

}  // namespace
}  // namespace sda::faults
