#include "lisp/map_server_node.hpp"

#include <gtest/gtest.h>

namespace sda::lisp {
namespace {

using net::Eid;
using net::Ipv4Address;
using net::Rloc;
using net::VnEid;
using net::VnId;

VnEid eid(const char* ip) { return VnEid{VnId{1}, Eid{*Ipv4Address::parse(ip)}}; }

struct NodeFixture : ::testing::Test {
  NodeFixture() : node(sim, server, *Ipv4Address::parse("10.0.0.1"), config(), 42) {}

  static MapServerNodeConfig config() {
    MapServerNodeConfig c;
    c.workers = 2;
    c.request_service = std::chrono::microseconds{25};
    c.register_service = std::chrono::microseconds{30};
    c.jitter_sigma = 0.0;  // deterministic service for assertions
    return c;
  }

  MapRegister make_register(const char* ip, const char* rloc_ip) {
    MapRegister r;
    r.nonce = nonce++;
    r.eid = eid(ip);
    r.rlocs = {Rloc{*Ipv4Address::parse(rloc_ip)}};
    r.ttl_seconds = 3600;
    return r;
  }

  sim::Simulator sim;
  MapServer server;
  MapServerNode node;
  std::uint64_t nonce = 1;
};

TEST_F(NodeFixture, RegisterThenRequestRoundTrip) {
  bool registered = false;
  node.submit_register(make_register("10.1.0.5", "10.0.0.2"),
                       [&](const RegisterOutcome& outcome, const MapNotify& notify,
                           sim::Duration) {
                         registered = true;
                         EXPECT_TRUE(outcome.created);
                         EXPECT_EQ(notify.eid, eid("10.1.0.5"));
                       });
  sim.run();
  ASSERT_TRUE(registered);

  bool replied = false;
  MapRequest request;
  request.nonce = 99;
  request.eid = eid("10.1.0.5");
  node.set_request_sink([&](std::uint32_t ticket, const MapReply& reply, sim::Duration sojourn) {
    replied = true;
    EXPECT_EQ(ticket, 7u);
    EXPECT_EQ(reply.nonce, 99u);
    EXPECT_FALSE(reply.negative());
    EXPECT_EQ(sojourn, std::chrono::microseconds{25});
  });
  EXPECT_TRUE(node.submit_request(request, 7));
  sim.run();
  EXPECT_TRUE(replied);
}

TEST_F(NodeFixture, NegativeReplyForUnknown) {
  bool replied = false;
  MapRequest request;
  request.eid = eid("10.9.9.9");
  node.set_request_sink([&](std::uint32_t, const MapReply& reply, sim::Duration) {
    replied = true;
    EXPECT_TRUE(reply.negative());
  });
  node.submit_request(request);
  sim.run();
  EXPECT_TRUE(replied);
}

TEST_F(NodeFixture, QueueingDelaysExcessLoad) {
  // 2 workers, 25us service: 6 simultaneous requests -> sojourns of
  // 25, 25, 50, 50, 75, 75 us.
  std::vector<std::int64_t> sojourns_us;
  node.set_request_sink([&](std::uint32_t, const MapReply&, sim::Duration s) {
    sojourns_us.push_back(s.count() / 1000);
  });
  for (int i = 0; i < 6; ++i) {
    MapRequest request;
    request.eid = eid("10.9.9.9");
    node.submit_request(request);
  }
  sim.run();
  ASSERT_EQ(sojourns_us.size(), 6u);
  EXPECT_EQ(sojourns_us, (std::vector<std::int64_t>{25, 25, 50, 50, 75, 75}));
  EXPECT_EQ(node.peak_backlog(), 6u);
}

TEST_F(NodeFixture, SpacedLoadSeesNoQueueing) {
  std::vector<std::int64_t> sojourns_us;
  node.set_request_sink([&](std::uint32_t, const MapReply&, sim::Duration s) {
    sojourns_us.push_back(s.count() / 1000);
  });
  for (int i = 0; i < 4; ++i) {
    sim.schedule_at(sim::SimTime{std::chrono::milliseconds{i}}, [&] {
      MapRequest request;
      request.eid = eid("10.9.9.9");
      node.submit_request(request);
    });
  }
  sim.run();
  for (const auto s : sojourns_us) EXPECT_EQ(s, 25);
}

TEST_F(NodeFixture, EachReplyCarriesItsTicket) {
  // Two workers, six queued requests: every ticket comes back once, with
  // its own request's nonce, in completion order.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> done;
  node.set_request_sink([&](std::uint32_t ticket, const MapReply& reply, sim::Duration) {
    done.emplace_back(ticket, reply.nonce);
  });
  for (std::uint32_t t = 0; t < 6; ++t) {
    MapRequest request;
    request.nonce = 100 + t;
    request.eid = eid("10.9.9.9");
    EXPECT_TRUE(node.submit_request(request, 40 + t));
  }
  sim.run();
  ASSERT_EQ(done.size(), 6u);
  for (std::uint32_t t = 0; t < 6; ++t) {
    EXPECT_EQ(done[t].first, 40 + t);
    EXPECT_EQ(done[t].second, 100 + t);
  }
  EXPECT_EQ(node.in_flight(), 0u);
}

TEST_F(NodeFixture, OfflineSubmissionReturnsFalse) {
  int replies = 0;
  node.set_request_sink([&](std::uint32_t, const MapReply&, sim::Duration) { ++replies; });
  node.set_online(false);
  MapRequest request;
  request.eid = eid("10.9.9.9");
  EXPECT_FALSE(node.submit_request(request, 1));
  sim.run();
  EXPECT_EQ(replies, 0);
  EXPECT_EQ(node.dropped_submissions(), 1u);
}

TEST_F(NodeFixture, ZeroTtlRegisterWithdraws) {
  node.submit_register(make_register("10.1.0.5", "10.0.0.2"), {});
  sim.run();
  EXPECT_EQ(server.mapping_count(), 1u);

  MapRegister withdraw = make_register("10.1.0.5", "10.0.0.2");
  withdraw.ttl_seconds = 0;
  node.submit_register(withdraw, {});
  sim.run();
  EXPECT_EQ(server.mapping_count(), 0u);
}

TEST_F(NodeFixture, MoveOutcomePropagates) {
  node.submit_register(make_register("10.1.0.5", "10.0.0.2"), {});
  sim.run();
  bool moved = false;
  node.submit_register(make_register("10.1.0.5", "10.0.0.3"),
                       [&](const RegisterOutcome& outcome, const MapNotify&, sim::Duration) {
                         moved = outcome.moved;
                         EXPECT_EQ(outcome.previous_rloc, *Ipv4Address::parse("10.0.0.2"));
                       });
  sim.run();
  EXPECT_TRUE(moved);
}

TEST_F(NodeFixture, SojournSamplesCollected) {
  for (int i = 0; i < 10; ++i) {
    MapRequest request;
    request.eid = eid("10.9.9.9");
    node.submit_request(request);
  }
  node.submit_register(make_register("10.1.0.5", "10.0.0.2"), {});
  sim.run();
  EXPECT_EQ(node.request_sojourns().count(), 10u);
  EXPECT_EQ(node.register_sojourns().count(), 1u);
}

TEST_F(NodeFixture, GroupCarriedIntoRecord) {
  MapRegister reg = make_register("10.1.0.5", "10.0.0.2");
  reg.group = 55;
  node.submit_register(reg, {});
  sim.run();
  EXPECT_EQ(server.resolve(eid("10.1.0.5"))->group, net::GroupId{55});
}

}  // namespace
}  // namespace sda::lisp
