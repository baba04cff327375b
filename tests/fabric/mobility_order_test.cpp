// Mobility in the order of Fig. 6 (§3.4), end to end: the old edge learns
// the new location from the Map-Notify and only then solicits the senders,
// so a roam costs each active correspondent one SMR and a couple of stale
// forwards instead of a second of them.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fabric/fabric.hpp"

namespace sda::fabric {
namespace {

constexpr net::VnId kVn{100};
constexpr auto kSendGap = std::chrono::microseconds{2500};  // a 400 Hz peer

net::MacAddress mac(std::uint64_t i) { return net::MacAddress::from_u64(0x0200'0000'0000ull | i); }

/// The RLOC `edge` caches for `eid` (unspecified if none), read without
/// touching the cache's LRU order or hit counters.
net::Ipv4Address cached_rloc(const dataplane::EdgeRouter& edge, const net::VnEid& eid) {
  net::Ipv4Address rloc;
  edge.map_cache().walk([&](const net::VnEid& key, const lisp::MapCacheEntry& entry) {
    if (key == eid) rloc = entry.primary_rloc();
  });
  return rloc;
}

struct RoamRun {
  std::uint64_t roams = 0;
  std::uint64_t smr_sent = 0;
  std::uint64_t stale_forwards = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  /// SMRs sent by an edge whose map-cache did not yet hold the roamer's
  /// new location, i.e. before that roam's Map-Notify was applied.
  std::uint64_t early_smrs = 0;
  /// Peer-sync events for the roamer: from the edge it left (Map-Notify)
  /// and from the peer's edge (its SMR-invoked re-resolution).
  std::uint64_t old_edge_syncs = 0;
  std::uint64_t sender_edge_syncs = 0;
};

// A roamer on e0 moves e0 -> e1 -> e0 -> e2, one roam a second, while a
// peer on e3 sends to it at 400 Hz. The second visit to e0 is the case
// where e0 once resolved the roamer remotely and then hosted it again.
RoamRun run_roams() {
  sim::Simulator sim;
  FabricConfig config;
  config.seed = 5;
  SdaFabric fabric{sim, config};
  fabric.add_border("b0");
  std::vector<std::string> edges;
  for (int e = 0; e < 4; ++e) {
    edges.push_back("e" + std::to_string(e));
    fabric.add_edge(edges.back());
    fabric.link(edges.back(), "b0");
  }
  fabric.finalize();
  fabric.define_vn({kVn, "corp", *net::Ipv4Prefix::parse("10.100.0.0/16")});
  net::Ipv4Address roamer_ip;
  for (std::uint64_t h = 0; h < 2; ++h) {
    const std::string credential = h == 0 ? "roamer" : "peer";
    fabric.provision_endpoint({credential, "pw", mac(h), kVn, net::GroupId{10}});
    fabric.connect_endpoint(credential, h == 0 ? "e0" : "e3", 1,
                            [&roamer_ip, h](const OnboardResult& r) {
                              if (h == 0) roamer_ip = r.ip;
                            });
  }
  sim.run();

  RoamRun run;
  fabric.set_delivery_listener(
      [&run](const dataplane::AttachedEndpoint&, const net::OverlayFrame&, sim::SimTime) {
        ++run.delivered;
      });
  std::string left;  // the edge the roamer last left
  fabric.set_peer_sync_listener([&](const std::string& edge, const net::VnEid& eid) {
    if (eid.eid != net::Eid{roamer_ip}) return;
    if (edge == left) ++run.old_edge_syncs;
    if (edge == "e3") ++run.sender_edge_syncs;
  });
  const sim::SimTime t0 = sim.now();
  const auto end = t0 + std::chrono::seconds{4};
  for (sim::SimTime at = t0; at < end; at = at + kSendGap) {
    sim.schedule_at(at, [&] {
      if (fabric.endpoint_send_udp(mac(1), roamer_ip, 443, 100)) ++run.sent;
    });
  }
  // Each roam starts 700 us before a whole second, clear of the sends.
  std::string target = "e0";
  const std::vector<std::string> hops{"e1", "e0", "e2"};
  for (std::size_t i = 0; i < hops.size(); ++i) {
    sim.schedule_at(t0 + std::chrono::seconds{1} * static_cast<int>(i + 1) -
                        std::chrono::microseconds{700},
                    [&, to = hops[i]] {
                      left = target;
                      target = to;
                      ++run.roams;
                      fabric.roam_endpoint(mac(0), to, 1);
                    });
  }

  // Step event by event: any SMR must come from an edge that already
  // caches the roamer at its current edge.
  const net::VnEid roamer{kVn, net::Eid{roamer_ip}};
  std::vector<std::uint64_t> smrs(edges.size(), 0);
  while (sim.step()) {
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const dataplane::EdgeRouter& edge = fabric.edge(edges[e]);
      if (edge.counters().smr_sent == smrs[e]) continue;
      if (cached_rloc(edge, roamer) != fabric.edge(target).rloc()) {
        run.early_smrs += edge.counters().smr_sent - smrs[e];
      }
      smrs[e] = edge.counters().smr_sent;
    }
  }
  for (const auto& name : edges) {
    run.smr_sent += fabric.edge(name).counters().smr_sent;
    run.stale_forwards += fabric.edge(name).counters().stale_forwards;
  }
  EXPECT_EQ(fabric.location_of(mac(0)), "e2");
  return run;
}

TEST(MobilityOrder, RoamCostsAFewStaleForwardsAndOneSmrRound) {
  const RoamRun run = run_roams();
  ASSERT_EQ(run.roams, 3u);
  EXPECT_EQ(run.sent, 1600u);
  const double roams = static_cast<double>(run.roams);
  EXPECT_LE(static_cast<double>(run.stale_forwards) / roams, 5.0);
  EXPECT_LE(static_cast<double>(run.smr_sent) / roams, 2.5);
  EXPECT_GE(run.smr_sent, run.roams);  // every roam still refreshed the peer
  // Only the frames in flight while the roamer re-authenticates are lost.
  EXPECT_GE(run.delivered + 3 * run.roams, run.sent);
}

TEST(MobilityOrder, NoSmrPrecedesTheMapNotify) {
  const RoamRun run = run_roams();
  EXPECT_EQ(run.early_smrs, 0u);
}

// The peers converge once per roam each: the old edge on its Map-Notify,
// the peer's edge when its solicited re-resolution lands.
TEST(MobilityOrder, EveryPeerSyncsOncePerRoam) {
  const RoamRun run = run_roams();
  EXPECT_EQ(run.old_edge_syncs, run.roams);
  EXPECT_EQ(run.sender_edge_syncs, run.roams);
}

}  // namespace
}  // namespace sda::fabric
