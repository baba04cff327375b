// Property test: ECMP Dijkstra vs a Floyd-Warshall reference on random
// graphs — distances, reachability, and first-hop validity must agree.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "sim/random.hpp"
#include "underlay/spf.hpp"

namespace sda::underlay {
namespace {

struct GraphCase {
  std::uint64_t seed;
  std::size_t nodes;
  double edge_probability;
  bool with_failures;
};

// Test names carry this printout; gtest's default dumps the raw bytes,
// padding included, which differ from one test discovery to the next.
void PrintTo(const GraphCase& c, std::ostream* os) {
  *os << "seed" << c.seed << "_nodes" << c.nodes << (c.with_failures ? "_failures" : "");
}

class SpfProperty : public ::testing::TestWithParam<GraphCase> {};

TEST_P(SpfProperty, MatchesFloydWarshallReference) {
  const GraphCase param = GetParam();
  sim::Rng rng{param.seed};

  Topology topo;
  for (std::size_t i = 0; i < param.nodes; ++i) {
    topo.add_node("n" + std::to_string(i),
                  net::Ipv4Address{0x0A000000u + static_cast<std::uint32_t>(i)});
  }
  for (std::size_t a = 0; a < param.nodes; ++a) {
    for (std::size_t b = a + 1; b < param.nodes; ++b) {
      if (rng.chance(param.edge_probability)) {
        topo.add_link(static_cast<NodeId>(a), static_cast<NodeId>(b),
                      std::chrono::microseconds{10},
                      static_cast<std::uint32_t>(1 + rng.next_below(4)));
      }
    }
  }
  if (param.with_failures) {
    for (LinkId l = 0; l < topo.link_count(); ++l) {
      if (rng.chance(0.2)) topo.set_link_state(l, false);
    }
    for (NodeId n = 1; n < topo.node_count(); ++n) {  // never fail the source
      if (rng.chance(0.1)) topo.set_node_state(n, false);
    }
  }

  // Floyd-Warshall over usable links.
  constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max() / 4;
  std::vector<std::vector<std::uint64_t>> dist(param.nodes,
                                               std::vector<std::uint64_t>(param.nodes, kInf));
  for (std::size_t i = 0; i < param.nodes; ++i) {
    if (topo.node(static_cast<NodeId>(i)).up) dist[i][i] = 0;
  }
  for (LinkId l = 0; l < topo.link_count(); ++l) {
    if (!topo.link_usable(l)) continue;
    const Link& link = topo.link(l);
    dist[link.a][link.b] = std::min<std::uint64_t>(dist[link.a][link.b], link.cost);
    dist[link.b][link.a] = std::min<std::uint64_t>(dist[link.b][link.a], link.cost);
  }
  for (std::size_t k = 0; k < param.nodes; ++k) {
    for (std::size_t i = 0; i < param.nodes; ++i) {
      for (std::size_t j = 0; j < param.nodes; ++j) {
        dist[i][j] = std::min(dist[i][j], dist[i][k] + dist[k][j]);
      }
    }
  }

  for (NodeId src = 0; src < param.nodes; ++src) {
    const SpfTable table = compute_spf(topo, src);
    for (NodeId dst = 0; dst < param.nodes; ++dst) {
      if (dst == src) continue;
      const SpfRoute* route = table.route(dst);
      const bool src_up = topo.node(src).up;
      const bool reachable = src_up && dist[src][dst] < kInf;
      ASSERT_EQ(route != nullptr, reachable) << "src " << src << " dst " << dst;
      if (!route) continue;
      EXPECT_EQ(route->cost, dist[src][dst]) << "src " << src << " dst " << dst;
      // Every ECMP next hop must be a usable neighbor lying on a shortest path.
      for (const NodeId hop : route->next_hops) {
        bool adjacent = false;
        for (const LinkId l : topo.links_of(src)) {
          if (topo.link_usable(l) && topo.link(l).other(src) == hop) {
            adjacent = true;
            EXPECT_EQ(topo.link(l).cost + dist[hop][dst], dist[src][dst])
                << "non-shortest next hop " << hop << " for " << src << "->" << dst;
            break;
          }
        }
        EXPECT_TRUE(adjacent) << "next hop " << hop << " not adjacent to " << src;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, SpfProperty,
    ::testing::Values(GraphCase{1, 8, 0.4, false}, GraphCase{2, 12, 0.3, false},
                      GraphCase{3, 12, 0.3, true}, GraphCase{4, 16, 0.25, true},
                      GraphCase{5, 20, 0.2, true}, GraphCase{6, 10, 0.9, false},
                      GraphCase{7, 15, 0.15, true}));

}  // namespace
}  // namespace sda::underlay
