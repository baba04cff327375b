// Job-slab accounting: every Map-Request a routing server accepts holds a
// slot of its job slab until the server answers it. The fabric's
// no-server-job-slot-leak invariant sums those slots over every server: it
// reads zero at quiesce after a resolution round, and a job that is never
// completed fails it.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "fabric/fabric.hpp"

namespace sda::fabric {
namespace {

constexpr net::VnId kVn{100};

class JobSlab : public ::testing::Test {
 protected:
  void SetUp() override {
    FabricConfig config;
    config.seed = 31;
    config.routing_servers = 2;
    fabric_ = std::make_unique<SdaFabric>(sim_, config);
    fabric_->add_border("b0");
    for (int e = 0; e < 2; ++e) {
      fabric_->add_edge("e" + std::to_string(e));
      fabric_->link("e" + std::to_string(e), "b0");
    }
    fabric_->finalize();
    fabric_->define_vn({kVn, "corp", *net::Ipv4Prefix::parse("10.100.0.0/16")});
    for (std::size_t h = 0; h < 2; ++h) {
      macs_[h] = net::MacAddress::from_u64(0x0200 + h);
      const std::string credential = "host" + std::to_string(h);
      fabric_->provision_endpoint({credential, "pw", macs_[h], kVn, net::GroupId{10}});
      fabric_->connect_endpoint(credential, "e" + std::to_string(h), 1,
                                [this, h](const OnboardResult& r) { ips_[h] = r.ip; });
    }
    sim_.run();
  }

  /// Job-slab slots held over every routing server.
  [[nodiscard]] std::size_t jobs_held() {
    std::size_t held = 0;
    for (std::size_t i = 0; i < fabric_->routing_server_count(); ++i) {
      held += fabric_->map_server_node(i).request_jobs_held();
    }
    return held;
  }

  /// The invariant's verdict, which must exist.
  [[nodiscard]] telemetry::Verdict verdict() const {
    for (const auto& v : fabric_->telemetry().assurance.evaluate_invariants()) {
      if (v.name == "no-server-job-slot-leak") return v;
    }
    ADD_FAILURE() << "no-server-job-slot-leak is not registered";
    return {};
  }

  sim::Simulator sim_;
  std::unique_ptr<SdaFabric> fabric_;
  net::MacAddress macs_[2];
  net::Ipv4Address ips_[2];
};

TEST_F(JobSlab, FirstPacketHoldsAJobUntilTheServerAnswers) {
  fabric_->endpoint_send_udp(macs_[0], ips_[1], 443, 100);
  bool held = false;
  while (!held && sim_.step()) held = jobs_held() == 1;
  EXPECT_TRUE(held) << "the Map-Request never reached a server's job slab";
  sim_.run();
  EXPECT_EQ(jobs_held(), 0u);
  const telemetry::Verdict v = verdict();
  EXPECT_TRUE(v.pass) << v.detail;
}

TEST_F(JobSlab, JobNeverCompletedFailsTheInvariant) {
  lisp::MapRequest request;
  request.eid = net::VnEid{kVn, net::Eid{ips_[1]}};
  ASSERT_TRUE(fabric_->map_server_node(1).submit_request(request));
  // The simulator never runs, so the job is never answered.
  EXPECT_EQ(jobs_held(), 1u);
  const telemetry::Verdict v = verdict();
  EXPECT_FALSE(v.pass);
  EXPECT_EQ(v.detail, "held_slots=1");
}

}  // namespace
}  // namespace sda::fabric
