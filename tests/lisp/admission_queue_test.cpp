// Bounded admission on the routing-server front end (overload-safe
// degradation): beyond the configured limit, submissions are shed with an
// explicit retry-after instead of queueing unboundedly, so an onboarding
// storm degrades into deferred work instead of unbounded sojourn times.
#include <gtest/gtest.h>

#include "lisp/map_server_node.hpp"

namespace sda::lisp {
namespace {

using net::Eid;
using net::Ipv4Address;
using net::Rloc;
using net::VnEid;
using net::VnId;
using std::chrono::milliseconds;

VnEid eid(const char* ip) { return VnEid{VnId{1}, Eid{*Ipv4Address::parse(ip)}}; }

struct AdmissionFixture : ::testing::Test {
  AdmissionFixture() : node(sim, server, *Ipv4Address::parse("10.0.0.1"), config(), 42) {}

  static MapServerNodeConfig config() {
    MapServerNodeConfig c;
    c.workers = 2;
    c.request_service = std::chrono::microseconds{25};
    c.register_service = std::chrono::microseconds{30};
    c.jitter_sigma = 0.0;
    c.admission_limit = 4;  // 2 in service + 2 waiting
    c.shed_retry_after = milliseconds{150};
    return c;
  }

  MapRequest request(const char* ip) {
    MapRequest r;
    r.nonce = nonce++;
    r.eid = eid(ip);
    return r;
  }

  /// Counts answers and sheds through the node's request sinks.
  void count_outcomes() {
    node.set_request_sink([this](std::uint32_t, const MapReply&, sim::Duration) { ++answered; },
                          [this](std::uint32_t, sim::Duration retry_after) {
                            ++shed;
                            hint = retry_after;
                          });
  }

  sim::Simulator sim;
  MapServer server;
  MapServerNode node;
  std::uint64_t nonce = 1;
  int answered = 0;
  int shed = 0;
  sim::Duration hint{};
};

TEST_F(AdmissionFixture, BurstBeyondLimitIsShedWithRetryAfter) {
  count_outcomes();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(node.submit_request(request("10.9.9.9")), i < 4);
  sim.run();
  EXPECT_EQ(answered, 4);
  EXPECT_EQ(shed, 6);
  EXPECT_EQ(hint, milliseconds{150});
  EXPECT_EQ(node.shed_submissions(), 6u);
  EXPECT_EQ(node.dropped_submissions(), 0u);  // shed != offline drop
  // The backlog never grew past the admission limit.
  EXPECT_LE(node.peak_backlog(), 4u);
}

TEST_F(AdmissionFixture, RegistersShedLikeRequests) {
  int acked = 0;
  for (int i = 0; i < 8; ++i) {
    MapRegister reg;
    reg.nonce = nonce++;
    reg.eid = eid("10.1.0.5");
    reg.rlocs = {Rloc{*Ipv4Address::parse("10.0.0.2")}};
    reg.ttl_seconds = 3600;
    node.submit_register(
        reg, [&](const RegisterOutcome&, const MapNotify&, sim::Duration) { ++acked; },
        [&](sim::Duration) { ++shed; });
  }
  sim.run();
  EXPECT_EQ(acked, 4);
  EXPECT_EQ(shed, 4);
}

TEST_F(AdmissionFixture, SpacedLoadIsNeverShed) {
  count_outcomes();
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(sim::SimTime{milliseconds{i}},
                    [this] { node.submit_request(request("10.9.9.9")); });
  }
  sim.run();
  EXPECT_EQ(answered, 10);
  EXPECT_EQ(shed, 0);
}

TEST_F(AdmissionFixture, AdmissionDrainsAsWorkCompletes) {
  // Fill the queue, let it drain, then a second burst is admitted again.
  for (int i = 0; i < 4; ++i) node.submit_request(request("10.9.9.9"));
  sim.run();
  count_outcomes();
  for (int i = 0; i < 4; ++i) node.submit_request(request("10.9.9.9"));
  sim.run();
  EXPECT_EQ(answered, 4);
  EXPECT_EQ(shed, 0);
}

TEST(AdmissionUnlimited, ZeroLimitNeverSheds) {
  sim::Simulator sim;
  MapServer server;
  MapServerNodeConfig c;
  c.workers = 1;
  c.jitter_sigma = 0.0;
  MapServerNode node{sim, server, *Ipv4Address::parse("10.0.0.1"), c, 42};
  int shed = 0;
  node.set_request_sink({}, [&](std::uint32_t, sim::Duration) { ++shed; });
  for (int i = 0; i < 100; ++i) {
    MapRequest r;
    r.eid = eid("10.9.9.9");
    node.submit_request(r);
  }
  sim.run();
  EXPECT_EQ(shed, 0);
  EXPECT_EQ(node.peak_backlog(), 100u);
}

TEST_F(AdmissionFixture, OfflineDropsStillWinOverShedding) {
  node.set_online(false);
  count_outcomes();
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(node.submit_request(request("10.9.9.9")));
  sim.run();
  // A dead server cannot send busy signals: submissions vanish silently.
  EXPECT_EQ(shed, 0);
  EXPECT_EQ(node.dropped_submissions(), 10u);
}

// --- Post-election admission ramp (PR 9) ------------------------------------

TEST_F(AdmissionFixture, RampClimbsFromQuarterFloorToFullLimit) {
  // A fresh leader opens at a quarter of its admission limit and climbs
  // linearly back to full over the window, so the re-registration rush
  // right after an election is shed instead of queued.
  EXPECT_EQ(node.effective_admission_limit(), 4u);
  EXPECT_FALSE(node.ramp_active());

  node.begin_admission_ramp(milliseconds{1000});
  EXPECT_TRUE(node.ramp_active());
  EXPECT_EQ(node.effective_admission_limit(), 1u);  // floor: limit / 4

  std::size_t mid = 0;
  std::size_t end = 0;
  bool active_mid = false;
  bool active_end = true;
  sim.schedule_after(milliseconds{500}, [&] {
    mid = node.effective_admission_limit();
    active_mid = node.ramp_active();
  });
  sim.schedule_after(milliseconds{1100}, [&] {
    end = node.effective_admission_limit();
    active_end = node.ramp_active();
  });
  sim.run();

  EXPECT_TRUE(active_mid);
  EXPECT_GT(mid, 1u);
  EXPECT_LT(mid, 4u);
  EXPECT_FALSE(active_end);
  EXPECT_EQ(end, 4u);  // window closed: full limit restored
}

TEST_F(AdmissionFixture, RampShedsAreCountedSeparately) {
  // Sheds caused by the lowered ramp limit (in-flight below the configured
  // limit) are attributed to the ramp, so telemetry can tell election
  // stampede deflection from plain overload.
  node.begin_admission_ramp(milliseconds{1000});
  ASSERT_EQ(node.effective_admission_limit(), 1u);

  count_outcomes();
  for (int i = 0; i < 3; ++i) node.submit_request(request("10.9.9.9"));
  sim.run();
  EXPECT_EQ(answered, 1);
  EXPECT_EQ(shed, 2);
  EXPECT_EQ(node.shed_submissions(), 2u);
  EXPECT_EQ(node.ramp_shed_submissions(), 2u);  // below the configured limit
}

TEST_F(AdmissionFixture, ZeroWindowOrUnboundedNodeNeverRamps) {
  node.begin_admission_ramp(milliseconds{0});
  EXPECT_FALSE(node.ramp_active());
  EXPECT_EQ(node.effective_admission_limit(), 4u);
}

}  // namespace
}  // namespace sda::lisp
