// Ablation (§5.1) — underlay-outage fallback.
//
// The paper's scenario: an edge router dies; its endpoints re-home to
// another edge, but senders still hold map-cache entries pointing at the
// dead RLOC and blackhole traffic. Edge routers monitor the IGP to detect
// the outage, purge the affected entries, and fall back to the border
// default route (which, being pub/sub-synchronized, already knows the new
// location). The recovery blind spot is the IGP convergence window — this
// bench sweeps it and measures packets lost from a continuous flow.
#include <cstdio>
#include <vector>

#include "fabric/fabric.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "underlay/linkstate.hpp"

namespace {

using namespace sda;

constexpr net::VnId kVn{100};

net::MacAddress mac(std::uint64_t i) {
  return net::MacAddress::from_u64(0x0200'0000'0000ull | i);
}

struct OutageResult {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t purged_entries = 0;
  double recovery_ms = 0;  // last loss -> measured from outage start
  [[nodiscard]] std::uint64_t lost() const { return sent - delivered; }
};

OutageResult run(sim::Duration igp_convergence) {
  sim::Simulator sim;
  fabric::FabricConfig config;
  config.l2_gateway = false;
  config.underlay.igp_convergence = igp_convergence;
  fabric::SdaFabric fabric{sim, config};

  fabric.add_border("b0");
  for (const char* name : {"e0", "e1", "e2"}) {
    fabric.add_edge(name);
    fabric.link(name, "b0");
  }
  fabric.finalize();
  fabric.define_vn({kVn, "corp", *net::Ipv4Prefix::parse("10.100.0.0/16")});

  for (int i = 0; i < 2; ++i) {
    fabric::EndpointDefinition def;
    def.credential = "h" + std::to_string(i);
    def.secret = "pw";
    def.mac = mac(static_cast<std::uint64_t>(i));
    def.vn = kVn;
    def.group = net::GroupId{10};
    fabric.provision_endpoint(def);
  }
  net::Ipv4Address dst_ip;
  fabric.connect_endpoint("h0", "e0", 1);
  fabric.connect_endpoint("h1", "e1", 1,
                          [&](const fabric::OnboardResult& r) { dst_ip = r.ip; });
  sim.run();

  OutageResult result;
  sim::SimTime last_delivery;
  fabric.set_delivery_listener(
      [&](const dataplane::AttachedEndpoint&, const net::OverlayFrame&, sim::SimTime at) {
        ++result.delivered;
        last_delivery = at;
      });

  // 1 kHz flow h0 -> h1 for 3 simulated seconds.
  constexpr auto kGap = std::chrono::milliseconds{1};
  const auto t_outage = sim::SimTime{std::chrono::seconds{1}};
  for (int p = 0; p < 3000; ++p) {
    sim.schedule_at(sim::SimTime{kGap * p}, [&] {
      ++result.sent;
      fabric.endpoint_send_udp(mac(0), dst_ip, 443, 200);
    });
  }

  // t=1s: e1 dies. h1's radio re-associates via e2 after 100 ms (fresh
  // onboarding). e0's cached entry keeps pointing at the dead e1 until the
  // IGP watcher fires.
  sim.schedule_at(t_outage, [&] {
    fabric.topology().set_node_state(fabric.edge("e1").config().node, false);
    fabric.underlay().topology_changed();
    fabric.edge("e1").reboot();
  });
  sim.schedule_at(t_outage + std::chrono::milliseconds{100}, [&] {
    fabric.connect_endpoint("h1", "e2", 1);
  });

  sim.run();
  result.purged_entries = fabric.edge("e0").counters().rloc_fallbacks;

  // Recovery time: gap between outage start and traffic being restored.
  // Approximate as the first delivery after the loss window; measure via
  // the largest inter-delivery gap after t_outage.
  result.recovery_ms =
      static_cast<double>((last_delivery - t_outage).count()) / 1e6;  // diagnostic only
  return result;
}

}  // namespace

int main() {
  std::printf("=== Ablation (section 5.1): IGP convergence vs packets lost in an outage ===\n");
  std::printf("1 kHz flow; destination edge dies at t=1s; endpoint re-homes after 100 ms;\n");
  std::printf("the sender's cache blackholes until the IGP watcher purges it.\n\n");

  sda::stats::Table table{{"IGP convergence", "sent", "delivered", "lost", "loss %",
                           "cache entries purged"}};
  for (const auto ms : {25, 50, 100, 200, 500, 1000}) {
    const OutageResult r = run(std::chrono::milliseconds{ms});
    table.add_row({std::to_string(ms) + " ms", sda::stats::Table::num(std::size_t{r.sent}),
                   sda::stats::Table::num(std::size_t{r.delivered}),
                   sda::stats::Table::num(std::size_t{r.lost()}),
                   sda::stats::Table::num(100.0 * static_cast<double>(r.lost()) /
                                              static_cast<double>(r.sent),
                                          2),
                   sda::stats::Table::num(std::size_t{r.purged_entries})});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("takeaway: loss grows with the IGP convergence window — once the watcher\n");
  std::printf("fires, traffic falls back to the border default route and recovers (5.1).\n\n");

  // --- Where does the convergence window come from? -----------------------
  // The fabric models IGP convergence as one delay; the link-state module
  // implements the mechanism (detection + LSP flooding + SPF). Measure the
  // per-node view-convergence spread for an edge-router death in a
  // three-tier campus: nodes near the failure converge first.
  std::printf("link-state mechanics: per-node view convergence after an edge dies\n");
  std::printf("(3-tier campus: 2 borders, 2 distribution, 12 edges; detect 300 ms,\n");
  std::printf(" 1 ms/hop flooding, 50 ms SPF delay)\n\n");
  {
    sim::Simulator lsim;
    underlay::Topology topo;
    const auto b0 = topo.add_node("b0", net::Ipv4Address{10, 0, 0, 1});
    const auto b1 = topo.add_node("b1", net::Ipv4Address{10, 0, 0, 2});
    const auto d0 = topo.add_node("d0", net::Ipv4Address{10, 0, 0, 3});
    const auto d1 = topo.add_node("d1", net::Ipv4Address{10, 0, 0, 4});
    topo.add_link(b0, b1, std::chrono::microseconds{20});
    for (const auto d : {d0, d1}) {
      topo.add_link(d, b0, std::chrono::microseconds{50});
      topo.add_link(d, b1, std::chrono::microseconds{50});
    }
    std::vector<underlay::NodeId> edge_nodes;
    for (int e = 0; e < 12; ++e) {
      const auto n = topo.add_node("e" + std::to_string(e),
                                   net::Ipv4Address{10, 0, 1, static_cast<std::uint8_t>(e)});
      topo.add_link(n, e % 2 ? d1 : d0, std::chrono::microseconds{30});
      topo.add_link(n, e % 2 ? d0 : d1, std::chrono::microseconds{30});
      edge_nodes.push_back(n);
    }
    underlay::LinkStateProtocol igp{lsim, topo};
    igp.start();
    lsim.run();

    const underlay::NodeId victim = edge_nodes[0];
    sda::stats::Summary convergence_ms;
    const sim::SimTime t0 = lsim.now();
    igp.set_view_change_callback([&](underlay::NodeId node) {
      if (node != victim && !igp.view_reachable(node, victim)) {
        convergence_ms.add(static_cast<double>((lsim.now() - t0).count()) / 1e6);
      }
    });
    topo.set_node_state(victim, false);
    igp.notify_node_change(victim);
    lsim.run();

    std::printf("  views converged: %zu nodes; first %.1f ms, median %.1f ms, last %.1f ms\n",
                convergence_ms.count(), convergence_ms.min(), convergence_ms.median(),
                convergence_ms.max());
    std::printf("  (the fabric-level 'IGP convergence' knob above stands in for this\n");
    std::printf("   detect+flood+SPF pipeline)\n");
  }
  return 0;
}
