#include "workload/warehouse.hpp"

#include <gtest/gtest.h>

namespace sda::workload {
namespace {

WarehouseSpec tiny_spec() {
  WarehouseSpec spec;
  spec.edges = 20;
  spec.hosts = 400;
  spec.moves_per_second = 100;
  spec.measure_seconds = 4;
  spec.seed = 3;
  return spec;
}

TEST(WarehouseWorkload, ReactiveRunProducesHandovers) {
  WarehouseWorkload warehouse{tiny_spec()};
  std::size_t moves = 0;
  const stats::Summary handovers = warehouse.run_reactive(&moves);
  EXPECT_GT(moves, 100u);  // ~400 expected in 4s at 100/s
  EXPECT_EQ(handovers.count(), moves);
  // Every handover is positive and well under a second in a quiet fabric.
  EXPECT_GT(handovers.min(), 0.0);
  EXPECT_LT(handovers.percentile(99), 0.5);
}

// The old edge applies each move's Map-Notify after the border synced, so
// every move has a peers-converged time, never before its handover.
TEST(WarehouseWorkload, ReactiveRunReportsPeersConverged) {
  WarehouseWorkload warehouse{tiny_spec()};
  std::size_t moves = 0;
  stats::Summary peers;
  const stats::Summary handovers = warehouse.run_reactive(&moves, &peers);
  EXPECT_EQ(peers.count(), moves);
  EXPECT_GE(peers.min(), handovers.min());
  EXPECT_GE(peers.median(), handovers.median());
  EXPECT_LT(peers.percentile(99), 0.5);
}

TEST(WarehouseWorkload, ProactiveRunProducesHandovers) {
  WarehouseWorkload warehouse{tiny_spec()};
  std::size_t moves = 0;
  const stats::Summary handovers = warehouse.run_proactive(&moves);
  EXPECT_GT(moves, 100u);
  EXPECT_GT(handovers.min(), 0.0);
  // Proactive convergence includes attach plus at least reflector network
  // and install latency; an announcement can land just before a batch
  // flush, so the batch window is not a hard lower bound.
  EXPECT_GE(handovers.min(), 0.001);
  // But typical convergence does wait for the MRAI window.
  EXPECT_GE(handovers.median(), 0.010);
}

TEST(WarehouseWorkload, ReactiveBeatsProactiveMedian) {
  WarehouseWorkload warehouse{tiny_spec()};
  const stats::Summary lisp = warehouse.run_reactive(nullptr);
  const stats::Summary bgp = warehouse.run_proactive(nullptr);
  // The paper's headline: the reactive control plane converges much
  // faster under mobility. Even at toy scale the gap must be clear.
  EXPECT_LT(lisp.median() * 2, bgp.median());
}

TEST(WarehouseWorkload, ProactiveVarianceHigher) {
  WarehouseWorkload warehouse{tiny_spec()};
  const stats::Summary lisp = warehouse.run_reactive(nullptr);
  const stats::Summary bgp = warehouse.run_proactive(nullptr);
  EXPECT_GT(bgp.stddev(), lisp.stddev());
}

TEST(WarehouseWorkload, DeterministicForSeed) {
  WarehouseWorkload a{tiny_spec()};
  WarehouseWorkload b{tiny_spec()};
  std::size_t ma = 0, mb = 0;
  const auto ha = a.run_reactive(&ma);
  const auto hb = b.run_reactive(&mb);
  EXPECT_EQ(ma, mb);
  EXPECT_DOUBLE_EQ(ha.mean(), hb.mean());
}

}  // namespace
}  // namespace sda::workload
