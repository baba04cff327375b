// Fault-injection plane and control-plane hardening tests.
//
// Covers the FaultPlane primitives in isolation (seeded loss/jitter, link
// and node flaps, server outage windows), the border resync protocol at the
// unit level (gap detection, retry-until-snapshot), and the three
// end-to-end acceptance scenarios: convergence under sustained control-
// plane loss, routing-server outages that stall but never lose state, and
// pub/sub feed disconnect/reconnect resyncing a border to the exact server
// state.
#include "faults/fault_plane.hpp"

#include <gtest/gtest.h>

#include <unordered_map>

#include "dataplane/border_router.hpp"
#include "fabric/fabric.hpp"
#include "lisp/messages.hpp"

namespace sda::faults {
namespace {

using net::Eid;
using net::GroupId;
using net::Ipv4Address;
using net::MacAddress;
using net::Rloc;
using net::VnEid;
using net::VnId;
using std::chrono::milliseconds;
using std::chrono::seconds;

// --- FaultPlane primitives -------------------------------------------------

Ipv4Address rloc(std::uint32_t i) { return Ipv4Address{0x0A000000u + i}; }
constexpr auto us50 = std::chrono::microseconds{50};

struct PlaneFixture : ::testing::Test {
  void SetUp() override {
    a = topo.add_node("a", rloc(1));
    b = topo.add_node("b", rloc(2));
    c = topo.add_node("c", rloc(3));
    ab = topo.add_link(a, b, us50);
    bc = topo.add_link(b, c, us50);
    net = std::make_unique<underlay::UnderlayNetwork>(sim, topo);
    plane = std::make_unique<FaultPlane>(sim, *net, 0xFA01);
  }

  int send_data(int count, underlay::NodeId to) {
    int arrived = 0;
    for (int i = 0; i < count; ++i) {
      net->deliver(a, to, 100, [&] { ++arrived; });
    }
    sim.run();
    return arrived;
  }

  sim::Simulator sim;
  underlay::Topology topo;
  underlay::NodeId a{}, b{}, c{};
  underlay::LinkId ab{}, bc{};
  std::unique_ptr<underlay::UnderlayNetwork> net;
  std::unique_ptr<FaultPlane> plane;
};

TEST_F(PlaneFixture, DataLossDoesNotTouchControlTraffic) {
  LossModel total;
  total.loss = 1.0;
  plane->set_data_loss(total);

  EXPECT_EQ(send_data(10, c), 0);
  int control_arrived = 0;
  for (int i = 0; i < 10; ++i) {
    net->deliver(a, c, 100, [&] { ++control_arrived; },
                 underlay::TrafficClass::Control);
  }
  sim.run();
  EXPECT_EQ(control_arrived, 10);
  EXPECT_EQ(plane->counters().data_drops, 10u);
  EXPECT_EQ(plane->counters().control_drops, 0u);
  EXPECT_EQ(net->fault_drops(), 10u);
}

TEST_F(PlaneFixture, DisarmRestoresLosslessDelivery) {
  LossModel total;
  total.loss = 1.0;
  plane->set_data_loss(total);
  EXPECT_EQ(send_data(5, c), 0);
  plane->disarm();
  EXPECT_EQ(send_data(5, c), 5);
}

TEST_F(PlaneFixture, ModelsSwitchTheInjectorUntilDisarmed) {
  // The plane sits on the delivery path only while a model can act; a
  // model set after disarm() does not bring it back.
  LossModel total;
  total.loss = 1.0;
  plane->set_data_loss(total);
  EXPECT_EQ(send_data(5, c), 0);
  plane->set_data_loss({});
  EXPECT_EQ(send_data(5, c), 5);
  plane->set_control_loss(total);
  EXPECT_EQ(send_data(5, c), 5);
  EXPECT_EQ(plane->counters().data_drops, 5u);
  plane->disarm();
  plane->set_data_loss(total);
  EXPECT_EQ(send_data(5, c), 5);
  EXPECT_EQ(net->fault_drops(), 5u);
}

TEST(FaultPlaneDeterminism, LossIsDeterministicForFixedSeed) {
  const auto run_once = [](std::uint64_t seed) {
    sim::Simulator sim;
    underlay::Topology topo;
    const auto a = topo.add_node("a", rloc(1));
    const auto b = topo.add_node("b", rloc(2));
    topo.add_link(a, b, us50);
    underlay::UnderlayNetwork net{sim, topo};
    FaultPlane plane{sim, net, seed};
    LossModel lossy;
    lossy.loss = 0.3;
    plane.set_data_loss(lossy);
    int arrived = 0;
    for (int i = 0; i < 200; ++i) {
      net.deliver(a, b, 100, [&] { ++arrived; });
    }
    sim.run();
    return std::pair{arrived, plane.counters().data_drops};
  };
  const auto first = run_once(42);
  EXPECT_EQ(first, run_once(42));
  EXPECT_GT(first.second, 0u);
  EXPECT_GT(first.first, 0);
  EXPECT_NE(first, run_once(43));
}

TEST_F(PlaneFixture, PerHopLossCompoundsWithPathLength) {
  LossModel per_hop;
  per_hop.per_hop_loss = 0.4;
  plane->set_data_loss(per_hop);
  // a->b crosses one link; a->c crosses two, so more packets must die.
  send_data(400, b);
  const auto one_hop_drops = plane->counters().data_drops;
  send_data(400, c);
  const auto two_hop_drops = plane->counters().data_drops - one_hop_drops;
  EXPECT_GT(one_hop_drops, 100u);  // ~40% of 400
  EXPECT_GT(two_hop_drops, one_hop_drops);
}

TEST_F(PlaneFixture, ExtraJitterDelaysButDelivers) {
  LossModel jittery;
  jittery.extra_jitter_chance = 1.0;
  jittery.extra_jitter_max = milliseconds{1};
  plane->set_data_loss(jittery);
  EXPECT_EQ(send_data(5, c), 5);
  EXPECT_EQ(plane->counters().delays_injected, 5u);
}

TEST_F(PlaneFixture, FlapLinkDrivesWatcherTransitions) {
  std::vector<bool> states;
  net->watch(a, [&](Ipv4Address r, bool up) {
    if (r == rloc(3)) states.push_back(up);
  });
  FlapSchedule schedule;
  schedule.first_down = seconds{1};
  schedule.down_for = seconds{1};
  schedule.cycles = 2;  // down@1s up@2s down@3s up@4s
  plane->flap_link(bc, schedule);
  sim.run();
  EXPECT_EQ(plane->counters().link_transitions, 4u);
  ASSERT_EQ(states.size(), 4u);
  EXPECT_EQ(states, (std::vector<bool>{false, true, false, true}));
  EXPECT_TRUE(net->reachable(a, rloc(3)));
}

TEST_F(PlaneFixture, FlapNodeTakesItsRlocDown) {
  std::vector<bool> states;
  net->watch(a, [&](Ipv4Address r, bool up) {
    if (r == rloc(3)) states.push_back(up);
  });
  FlapSchedule schedule;
  schedule.first_down = seconds{1};
  schedule.down_for = seconds{1};
  plane->flap_node(c, schedule);
  sim.run();
  EXPECT_EQ(plane->counters().node_transitions, 2u);
  EXPECT_EQ(states, (std::vector<bool>{false, true}));
}

TEST_F(PlaneFixture, RandomLinkStormPicksDistinctLinks) {
  FlapSchedule schedule;
  schedule.first_down = seconds{1};
  schedule.down_for = milliseconds{500};
  const auto chosen = plane->random_link_storm(5, schedule, milliseconds{100});
  ASSERT_EQ(chosen.size(), 2u);  // the topology only has two links
  EXPECT_NE(chosen[0], chosen[1]);
  sim.run();
  EXPECT_EQ(plane->counters().link_transitions, 4u);
}

// --- Border resync protocol (unit level) -----------------------------------

VnEid overlay_eid(std::uint32_t host) {
  return VnEid{VnId{1}, Eid{Ipv4Address{0x0A640000u + host}}};
}

lisp::Publish publish_of(std::uint32_t host, std::uint32_t rloc_suffix, std::uint64_t seq) {
  lisp::Publish p;
  p.eid = overlay_eid(host);
  p.rlocs = {Rloc{rloc(rloc_suffix)}};
  p.ttl_seconds = 600;
  p.seq = seq;
  return p;
}

struct ResyncFixture : ::testing::Test {
  ResyncFixture() {
    dataplane::BorderRouterConfig cfg;
    cfg.name = "b0";
    cfg.rloc = rloc(1);
    cfg.resync_retry = seconds{1};
    border = std::make_unique<dataplane::BorderRouter>(sim, cfg);
    border->set_request_resync([this] { ++resync_calls; });
  }

  sim::Simulator sim;
  std::unique_ptr<dataplane::BorderRouter> border;
  int resync_calls = 0;
};

TEST_F(ResyncFixture, SequenceGapDiscardsUpdateAndRequestsResync) {
  border->receive_publish(publish_of(1, 2, 1));
  EXPECT_EQ(border->fib_size(), 1u);
  EXPECT_EQ(border->next_expected_seq(), 2u);

  border->receive_publish(publish_of(2, 2, 5));  // seq 2-4 lost in the feed
  EXPECT_EQ(border->counters().out_of_sequence, 1u);
  EXPECT_TRUE(border->resync_in_flight());
  EXPECT_EQ(resync_calls, 1);
  EXPECT_EQ(border->fib_size(), 1u);  // the gapped update must not apply
}

TEST_F(ResyncFixture, ResyncRetriesUntilSnapshotApplies) {
  border->receive_publish(publish_of(1, 2, 3));  // first seq seen != 1: gap
  EXPECT_EQ(resync_calls, 1);
  sim.run_until(sim::SimTime{milliseconds{3500}});
  EXPECT_GE(resync_calls, 3);  // retry timer keeps asking

  border->apply_snapshot({{overlay_eid(1), {}}, {overlay_eid(2), {}}}, 7);
  EXPECT_FALSE(border->resync_in_flight());
  EXPECT_EQ(border->fib_size(), 2u);
  EXPECT_EQ(border->next_expected_seq(), 7u);
  const int calls_at_snapshot = resync_calls;
  sim.run();
  EXPECT_EQ(resync_calls, calls_at_snapshot);  // retry timer cancelled

  border->receive_publish(publish_of(3, 2, 7));  // feed resumes in order
  EXPECT_EQ(border->fib_size(), 3u);
  EXPECT_EQ(border->counters().out_of_sequence, 1u);
}

TEST_F(ResyncFixture, PublishesDiscardedWhileResyncInFlight) {
  border->receive_publish(publish_of(1, 2, 4));  // gap -> resync in flight
  const auto applied = border->counters().publishes_applied;
  border->receive_publish(publish_of(2, 2, 5));
  border->receive_publish(publish_of(3, 2, 6));
  EXPECT_EQ(border->counters().publishes_applied, applied);
  EXPECT_EQ(border->counters().out_of_sequence, 1u);  // no double-counting
}

TEST_F(ResyncFixture, UnsequencedPublishBypassesGapCheck) {
  // seq == 0 marks a legacy/unsequenced update (direct test injection):
  // applied immediately, no resync machinery involved.
  border->receive_publish(publish_of(1, 2, 0));
  EXPECT_EQ(border->fib_size(), 1u);
  EXPECT_FALSE(border->resync_in_flight());
  EXPECT_EQ(resync_calls, 0);
}

// --- End-to-end acceptance scenarios ---------------------------------------

constexpr VnId kCorp{100};
constexpr GroupId kEmployees{10};

MacAddress mac(std::uint64_t i) { return MacAddress::from_u64(0x0200'0000'0000ull | i); }

struct ChaosFixture : ::testing::Test {
  void SetUp() override {
    fabric::FabricConfig cfg;
    // Generous retry budgets: the scenarios deliberately batter the
    // control plane and assert that nothing is ever permanently lost.
    cfg.map_request_retries = 8;
    cfg.map_register_retries = 10;
    configure(cfg);
    fabric = std::make_unique<fabric::SdaFabric>(sim, cfg);
    fabric->add_border("b0");
    fabric->add_edge("e0");
    fabric->add_edge("e1");
    fabric->add_edge("e2");
    fabric->link("e0", "b0");
    fabric->link("e1", "b0");
    fabric->link("e2", "b0");
    fabric->finalize();

    fabric->define_vn({kCorp, "corp", *net::Ipv4Prefix::parse("10.100.0.0/16")});
    provision("alice", mac(1));
    provision("bob", mac(2));
    provision("camera", mac(3));

    fabric->set_delivery_listener([this](const dataplane::AttachedEndpoint& e,
                                         const net::OverlayFrame&, sim::SimTime) {
      deliveries.push_back(e.credential);
    });
  }

  virtual void configure(fabric::FabricConfig&) {}

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
    sim.run();
    return result;
  }

  sim::Simulator sim;
  std::unique_ptr<fabric::SdaFabric> fabric;
  std::vector<std::string> deliveries;
};

TEST_F(ChaosFixture, ControlPlaneLossEventuallyResolvesEverything) {
  FaultPlane plane{sim, fabric->underlay(), 0xC0FFEE};
  LossModel lossy;
  lossy.loss = 0.2;  // 20% of every control-plane message vanishes
  plane.set_control_loss(lossy);

  const auto alice = connect("alice", "e0");
  const auto bob = connect("bob", "e1");
  ASSERT_TRUE(alice.success);
  ASSERT_TRUE(bob.success);
  EXPECT_EQ(fabric->map_server().mapping_count(kCorp), 2u);
  EXPECT_GT(plane.counters().control_drops, 0u);  // the plane really bit

  // Warm-up packet triggers the (lossy, retried) Map-Request; the backoff
  // machinery must land the resolution despite drops in either direction.
  fabric->endpoint_send_udp(mac(1), bob.ip, 443, 100);
  sim.run();
  EXPECT_GE(fabric->edge("e0").fib_size(), 1u);

  // Once resolved, the data plane (lossless here) must deliver 100%.
  deliveries.clear();
  for (int i = 0; i < 20; ++i) fabric->endpoint_send_udp(mac(1), bob.ip, 443, 100);
  sim.run();
  EXPECT_EQ(deliveries.size(), 20u);
  EXPECT_EQ(fabric->edge("e0").counters().registers_acked,
            fabric->edge("e0").counters().registers_sent);
}

TEST_F(ChaosFixture, ServerOutageStallsButNeverLosesState) {
  FaultPlane plane{sim, fabric->underlay(), 7};
  const auto alice = connect("alice", "e0");
  const auto bob = connect("bob", "e1");
  ASSERT_TRUE(alice.success && bob.success);
  (void)alice;

  // 3-second routing-server blackout. During it: a new endpoint onboards
  // (its Map-Register is swallowed) and alice resolves bob (her
  // Map-Request is swallowed). Both must complete after the window.
  plane.server_outage(fabric->map_server_node(), sim::Duration{0}, seconds{3});
  fabric::OnboardResult camera;
  sim.schedule_after(milliseconds{10}, [&] {
    fabric->connect_endpoint("camera", "e2", 1,
                             [&](const fabric::OnboardResult& r) { camera = r; });
    fabric->endpoint_send_udp(mac(1), bob.ip, 443, 100);
  });
  sim.run();

  EXPECT_TRUE(camera.success);
  EXPECT_GT(camera.elapsed, seconds{2});  // stalled behind the outage
  EXPECT_EQ(fabric->map_server().mapping_count(kCorp), 3u);
  EXPECT_GT(fabric->map_server_node().dropped_submissions(), 0u);
  // The in-outage packet still arrived: default-routed and hairpinned by
  // the border, whose FIB predates the outage.
  EXPECT_EQ(deliveries, std::vector<std::string>{"bob"});
  // ...and the stalled Map-Request resolved once the server returned.
  EXPECT_GE(fabric->edge("e0").fib_size(), 1u);
}

struct ChaosRefreshFixture : ChaosFixture {
  void configure(fabric::FabricConfig& cfg) override {
    cfg.register_refresh_interval = seconds{2};
  }
};

TEST_F(ChaosRefreshFixture, ColdCrashRebuildsDatabaseFromReRegisters) {
  // The refresh timer re-arms forever, so this test must drive the clock
  // with run_until() instead of draining the queue with run().
  FaultPlane plane{sim, fabric->underlay(), 7};
  fabric->connect_endpoint("alice", "e0", 1);
  fabric->connect_endpoint("bob", "e1", 1);
  sim.run_until(sim.now() + seconds{1});
  ASSERT_EQ(fabric->map_server().mapping_count(kCorp), 2u);

  // Crash losing the registration database; back after 500ms. The edges'
  // periodic soft-state refresh must repopulate it.
  plane.server_crash(fabric->map_server_node(), sim::Duration{0}, milliseconds{500},
                     /*preserve_database=*/false);
  sim.run_until(sim.now() + milliseconds{100});
  EXPECT_EQ(fabric->map_server().mapping_count(kCorp), 0u);
  EXPECT_FALSE(fabric->map_server_node().online());

  sim.run_until(sim.now() + seconds{6});  // refresh timers are perpetual
  EXPECT_TRUE(fabric->map_server_node().online());
  EXPECT_EQ(fabric->map_server().mapping_count(kCorp), 2u);
}

TEST_F(ChaosFixture, BorderFeedReconnectResyncsToExactServerState) {
  const auto alice = connect("alice", "e0");
  connect("bob", "e1");
  (void)alice;
  ASSERT_EQ(fabric->border("b0").fib_size(), 2u);

  // Cut the feed, then churn the registration state behind its back.
  fabric->set_border_feed_connected("b0", false);
  EXPECT_FALSE(fabric->border_feed_connected("b0"));
  connect("camera", "e2");
  fabric->disconnect_endpoint(mac(2));  // bob leaves
  sim.run();
  EXPECT_GT(fabric->border_publishes_dropped("b0"), 0u);
  // Stale view: still has bob, never saw camera.
  EXPECT_EQ(fabric->border("b0").fib_size(), 2u);
  EXPECT_EQ(fabric->map_server().mapping_count(kCorp), 2u);  // alice + camera

  fabric->set_border_feed_connected("b0", true);
  sim.run();

  // Entry-by-entry equality with the authoritative server database.
  std::unordered_map<VnEid, lisp::MappingRecord> server_state;
  fabric->map_server().walk([&](const VnEid& e, const lisp::MappingRecord& r) {
    server_state.emplace(e, r);
  });
  const auto& border = fabric->border("b0");
  EXPECT_EQ(border.fib_size(), server_state.size());
  for (const auto& [eid, record] : server_state) {
    const lisp::MappingRecord* synced = border.synced(eid);
    ASSERT_NE(synced, nullptr) << "border missing " << eid.to_string();
    ASSERT_EQ(synced->rlocs.size(), record.rlocs.size());
    for (std::size_t i = 0; i < record.rlocs.size(); ++i) {
      EXPECT_EQ(synced->rlocs[i].address, record.rlocs[i].address);
    }
  }
  EXPECT_GE(fabric->border("b0").counters().snapshots_applied, 1u);
  EXPECT_FALSE(fabric->border("b0").resync_in_flight());
  EXPECT_EQ(fabric->border("b0").next_expected_seq(), fabric->publish_seq() + 1);

  // The live feed resumes gap-free after the snapshot.
  provision("dan", mac(4));
  connect("dan", "e0");
  EXPECT_EQ(fabric->border("b0").fib_size(), 3u);
  EXPECT_EQ(fabric->border("b0").counters().out_of_sequence, 0u);
}

}  // namespace
}  // namespace sda::faults
