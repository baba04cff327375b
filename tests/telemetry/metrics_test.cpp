#include "telemetry/metrics.hpp"

#include <gtest/gtest.h>

#include "telemetry/export.hpp"

namespace sda::telemetry {
namespace {

TEST(MetricsRegistry, JoinBuildsHierarchicalNames) {
  EXPECT_EQ(join("edge[3]", "map_cache.miss"), "edge[3].map_cache.miss");
  EXPECT_EQ(join("", "fabric.onboard_ms"), "fabric.onboard_ms");
}

TEST(MetricsRegistry, OwnedCellsAppearInSnapshot) {
  MetricsRegistry registry;
  Counter& c = registry.counter("edge[0].smr_sent");
  c.inc(3);
  ++c;
  registry.gauge("edge[0].fib_size").set(42.5);
  registry.histogram("fabric.first_packet_us", {0.0, 100.0, 10}).observe(25.0);

  const Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("edge[0].smr_sent"), 4u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("edge[0].fib_size"), 42.5);
  const HistogramSnapshot& hist = snap.histograms.at("fabric.first_packet_us");
  EXPECT_EQ(hist.total, 1u);
  EXPECT_DOUBLE_EQ(hist.sum, 25.0);
  EXPECT_EQ(registry.size(), 3u);
}

TEST(MetricsRegistry, CellReferencesSurviveLaterRegistrations) {
  MetricsRegistry registry;
  Counter& first = registry.counter("a.first");
  for (int i = 0; i < 64; ++i) {
    (void)registry.counter("b.filler" + std::to_string(i));
  }
  first.inc();
  EXPECT_EQ(registry.snapshot().counters.at("a.first"), 1u);
  // Same name returns the same cell, not a fresh one.
  registry.counter("a.first").inc();
  EXPECT_EQ(first.value(), 2u);
}

TEST(MetricsRegistry, ProbesSampleAtSnapshotTime) {
  MetricsRegistry registry;
  std::uint64_t hits = 0;
  double depth = 0;
  registry.register_counter("edge[1].map_cache.hits", [&hits] { return hits; });
  registry.register_gauge("server.queue_depth", [&depth] { return depth; });

  EXPECT_EQ(registry.snapshot().counters.at("edge[1].map_cache.hits"), 0u);
  hits = 17;
  depth = 3.5;
  const Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("edge[1].map_cache.hits"), 17u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("server.queue_depth"), 3.5);
}

TEST(MetricsRegistry, DeltaSubtractsCountersAndKeepsGauges) {
  MetricsRegistry registry;
  std::uint64_t sent = 10;
  registry.register_counter("edge[0].registers_sent", [&sent] { return sent; });
  registry.gauge("edge[0].fib_size").set(5);
  LatencyHistogram& hist = registry.histogram("fabric.roam_ms", {0.0, 100.0, 10});
  hist.observe(10.0);

  const Snapshot before = registry.snapshot();
  sent = 25;
  registry.gauge("edge[0].fib_size").set(9);
  hist.observe(30.0);
  hist.observe(50.0);

  const Snapshot delta = registry.snapshot().delta(before);
  EXPECT_EQ(delta.counters.at("edge[0].registers_sent"), 15u);
  EXPECT_DOUBLE_EQ(delta.gauges.at("edge[0].fib_size"), 9.0);  // gauges: current value
  const HistogramSnapshot& dh = delta.histograms.at("fabric.roam_ms");
  EXPECT_EQ(dh.total, 2u);  // only the two samples since `before`
  EXPECT_DOUBLE_EQ(dh.sum, 80.0);
}

TEST(MetricsRegistry, DeltaSaturatesWhenSubsystemResets) {
  MetricsRegistry registry;
  std::uint64_t count = 100;
  registry.register_counter("edge[0].decapsulated", [&count] { return count; });
  const Snapshot before = registry.snapshot();
  count = 40;  // e.g. a reboot wiped the counters
  EXPECT_EQ(registry.snapshot().delta(before).counters.at("edge[0].decapsulated"), 0u);
}

TEST(MetricsRegistry, UnregisterPrefixRemovesNode) {
  MetricsRegistry registry;
  (void)registry.counter("edge[0].a");
  (void)registry.counter("edge[0].b");
  (void)registry.counter("edge[1].a");
  registry.register_counter("edge[0].probe", [] { return std::uint64_t{1}; });
  EXPECT_EQ(registry.unregister_prefix("edge[0]."), 3u);
  const Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.count("edge[0].a"), 0u);
  EXPECT_EQ(snap.counters.count("edge[1].a"), 1u);
}

TEST(HistogramSnapshot, MergeFoldsPerNodeHistograms) {
  // Two "edges" observing the same latency metric with identical specs.
  const HistogramSpec spec{0.0, 100.0, 10};
  MetricsRegistry ra, rb;
  ra.histogram("lat", spec).observe(5.0);
  ra.histogram("lat", spec).observe(15.0);
  rb.histogram("lat", spec).observe(15.0);
  rb.histogram("lat", spec).observe(95.0);
  rb.histogram("lat", spec).observe(250.0);  // overflow

  HistogramSnapshot merged = ra.snapshot().histograms.at("lat");
  ASSERT_TRUE(merged.merge(rb.snapshot().histograms.at("lat")));
  EXPECT_EQ(merged.total, 5u);
  EXPECT_EQ(merged.overflow, 1u);
  EXPECT_DOUBLE_EQ(merged.sum, 380.0);
  EXPECT_EQ(merged.counts[0], 1u);  // 5.0
  EXPECT_EQ(merged.counts[1], 2u);  // both 15.0 samples
  EXPECT_EQ(merged.counts[9], 1u);  // 95.0
  EXPECT_NEAR(merged.mean(), 76.0, 1e-9);
}

TEST(HistogramSnapshot, MergeRejectsMismatchedSpecs) {
  MetricsRegistry ra, rb;
  ra.histogram("lat", {0.0, 100.0, 10}).observe(1.0);
  rb.histogram("lat", {0.0, 200.0, 10}).observe(1.0);
  HistogramSnapshot a = ra.snapshot().histograms.at("lat");
  const HistogramSnapshot b = rb.snapshot().histograms.at("lat");
  EXPECT_FALSE(a.merge(b));
  EXPECT_EQ(a.total, 1u);  // unchanged
}

TEST(HistogramSnapshot, QuantileInterpolatesWithinBuckets) {
  MetricsRegistry registry;
  LatencyHistogram& hist = registry.histogram("lat", {0.0, 100.0, 10});
  for (int i = 0; i < 100; ++i) hist.observe(static_cast<double>(i));
  const HistogramSnapshot snap = registry.snapshot().histograms.at("lat");
  EXPECT_NEAR(snap.quantile(0.5), 50.0, 10.0 + 1e-9);  // within one bucket width
  EXPECT_LE(snap.quantile(0.1), snap.quantile(0.9));
  EXPECT_GE(snap.quantile(1.0), 90.0);
}

TEST(Exporters, JsonAndPrometheusRenderSnapshot) {
  MetricsRegistry registry;
  registry.counter("edge[2].map_cache.misses").inc(7);
  registry.gauge("fabric.endpoints").set(3);
  registry.histogram("fabric.onboard_ms", {0.0, 10.0, 2}).observe(4.0);
  const Snapshot snap = registry.snapshot();

  const std::string json = to_json(snap);
  EXPECT_NE(json.find("\"edge[2].map_cache.misses\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"total\": 1"), std::string::npos);

  const std::string prom = to_prometheus(snap);
  EXPECT_NE(prom.find("sda_edge_2_map_cache_misses 7"), std::string::npos);
  EXPECT_NE(prom.find("sda_fabric_onboard_ms_count 1"), std::string::npos);
  EXPECT_NE(prom.find("_bucket{le=\"+Inf\"} 1"), std::string::npos);
}

TEST(SnapshotMergeTest, SumsCountersGaugesAndHistogramsAcrossShards) {
  MetricsRegistry shard0;
  shard0.counter("lane.delivered").inc(10);
  shard0.gauge("lane.depth").set(2);
  shard0.histogram("lane.latency_us", {0.0, 100.0, 4}).observe(10.0);
  shard0.counter("lane.only_on_0").inc(1);

  MetricsRegistry shard1;
  shard1.counter("lane.delivered").inc(5);
  shard1.gauge("lane.depth").set(3);
  shard1.histogram("lane.latency_us", {0.0, 100.0, 4}).observe(60.0);
  shard1.counter("lane.only_on_1").inc(2);

  Snapshot merged = shard0.snapshot();
  merged.merge(shard1.snapshot());

  EXPECT_EQ(merged.counters.at("lane.delivered"), 15u);
  EXPECT_DOUBLE_EQ(merged.gauges.at("lane.depth"), 5.0);
  EXPECT_EQ(merged.histograms.at("lane.latency_us").total, 2u);
  EXPECT_DOUBLE_EQ(merged.histograms.at("lane.latency_us").sum, 70.0);
  // Names union: metrics present on only one shard survive the fold.
  EXPECT_EQ(merged.counters.at("lane.only_on_0"), 1u);
  EXPECT_EQ(merged.counters.at("lane.only_on_1"), 2u);
}

TEST(SnapshotMergeTest, SpecMismatchKeepsLocalHistogram) {
  MetricsRegistry a;
  a.histogram("h", {0.0, 100.0, 4}).observe(10.0);
  MetricsRegistry b;
  b.histogram("h", {0.0, 200.0, 8}).observe(10.0);

  Snapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.histograms.at("h").total, 1u);  // local wins, no mixing
  EXPECT_EQ(merged.histograms.at("h").spec.buckets, 4u);
}

}  // namespace
}  // namespace sda::telemetry
