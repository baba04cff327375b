// Allocation gate for the cached packet path, independent of the machine:
// once every destination sits in the map-cache, a send -> encap -> underlay
// -> egress VRF + SGACL -> delivery round makes no heap allocation and
// costs exactly one simulator event, with telemetry on or off.
//
// Built as its own executable because it replaces the global operator new
// with a counting one.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "fabric/fabric.hpp"

namespace {

std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sda::fabric {
namespace {

constexpr net::VnId kVn{100};
constexpr std::size_t kEdges = 16;
constexpr std::size_t kHostsPerEdge = 16;
constexpr std::size_t kHosts = kEdges * kHostsPerEdge;

struct CachedPathRun {
  std::uint64_t sends = 0;
  std::uint64_t delivered = 0;
  std::uint64_t allocations = 0;
  std::uint64_t events = 0;
  std::size_t frames_in_flight = 0;
};

// 16 edges on a ring of 4 distribution nodes, 256 hosts; host h sends to
// the host in the same slot on the next edge. Returns the counts of
// `rounds` rounds of one cached send per host, each round run to quiesce.
CachedPathRun run_cached(bool telemetry, int rounds) {
  sim::Simulator sim;
  FabricConfig config;
  config.seed = 11;
  config.telemetry = telemetry;
  SdaFabric fabric(sim, config);
  fabric.add_border("b0");
  for (int d = 0; d < 4; ++d) fabric.add_underlay_node("d" + std::to_string(d));
  for (std::size_t e = 0; e < kEdges; ++e) {
    fabric.add_edge("e" + std::to_string(e));
    fabric.link("e" + std::to_string(e), "d" + std::to_string(e % 4));
  }
  for (int d = 0; d < 4; ++d) {
    fabric.link("d" + std::to_string(d), "b0");
    fabric.link("d" + std::to_string(d), "d" + std::to_string((d + 1) % 4));
  }
  fabric.finalize();
  fabric.define_vn({kVn, "campus", *net::Ipv4Prefix::parse("10.64.0.0/14")});

  std::vector<net::MacAddress> macs;
  std::vector<net::Ipv4Address> ips(kHosts);
  for (std::size_t h = 0; h < kHosts; ++h) {
    macs.push_back(net::MacAddress::from_u64(0x0200'0000'0000ull + h));
    const std::string credential = "host" + std::to_string(h);
    fabric.provision_endpoint({credential, "pw", macs[h], kVn, net::GroupId{10}});
    fabric.connect_endpoint(credential, "e" + std::to_string(h / kHostsPerEdge), 1,
                            [&ips, h](const OnboardResult& r) { ips[h] = r.ip; });
  }
  sim.run();

  std::uint64_t delivered = 0;
  fabric.set_delivery_listener(
      [&delivered](const dataplane::AttachedEndpoint&, const net::OverlayFrame&,
                   sim::SimTime) { ++delivered; });
  const auto round = [&] {
    for (std::size_t h = 0; h < kHosts; ++h) {
      EXPECT_TRUE(fabric.endpoint_send_udp(macs[h], ips[(h + kHostsPerEdge) % kHosts], 5000,
                                           64));
    }
    sim.run();
  };
  // The first round resolves every destination (map-cache misses ride the
  // border); the next ones grow the event heap and the frame slab to the
  // size a round needs.
  for (int i = 0; i < 3; ++i) round();

  CachedPathRun run;
  delivered = 0;
  const std::uint64_t allocations = g_allocations;
  const std::uint64_t events = sim.executed_events();
  for (int i = 0; i < rounds; ++i) round();
  run.allocations = g_allocations - allocations;
  run.events = sim.executed_events() - events;
  run.sends = static_cast<std::uint64_t>(rounds) * kHosts;
  run.delivered = delivered;
  if (telemetry) {
    run.frames_in_flight = static_cast<std::size_t>(
        fabric.metrics().snapshot().gauges.at("fabric.frames_in_flight"));
  }
  return run;
}

TEST(PacketPathAlloc, CachedSendsAllocateNothingWithTelemetryOn) {
  const CachedPathRun run = run_cached(/*telemetry=*/true, 40);  // 10,240 sends
  EXPECT_EQ(run.delivered, run.sends);
  EXPECT_EQ(run.allocations, 0u);
  EXPECT_EQ(run.events, run.delivered);
  EXPECT_EQ(run.frames_in_flight, 0u);
}

TEST(PacketPathAlloc, CachedSendsAllocateNothingWithTelemetryOff) {
  const CachedPathRun run = run_cached(/*telemetry=*/false, 40);
  EXPECT_EQ(run.delivered, run.sends);
  EXPECT_EQ(run.allocations, 0u);
  EXPECT_EQ(run.events, run.delivered);
}

}  // namespace
}  // namespace sda::fabric
