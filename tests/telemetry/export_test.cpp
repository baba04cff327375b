// Exporter conformance tests: the Prometheus text rendering and JSON
// snapshot must keep their exact shape — external scrape pipelines parse
// these formats byte-by-byte.
#include "telemetry/export.hpp"

#include <gtest/gtest.h>

#include <string>

#include "telemetry/metrics.hpp"

namespace sda::telemetry {
namespace {

Snapshot sample_snapshot() {
  MetricsRegistry reg;
  reg.counter("edge[3].map_cache.misses").inc(7);
  reg.counter("ha.failovers").inc(2);
  reg.gauge("ha.election.leader").set(1);
  reg.gauge("fabric.load").set(0.25);
  auto& hist = reg.histogram("assurance.register_rtt_us", HistogramSpec{0.0, 40.0, 4});
  // Buckets are [0,10) [10,20) [20,30) [30,40): one underflow, spread the
  // rest so the cumulative rendering is distinguishable per bucket.
  hist.observe(-5.0);   // underflow
  hist.observe(5.0);    // bucket 0
  hist.observe(15.0);   // bucket 1
  hist.observe(17.0);   // bucket 1
  hist.observe(35.0);   // bucket 3
  hist.observe(100.0);  // overflow
  return reg.snapshot();
}

TEST(Export, PrometheusNameSanitization) {
  const std::string prom = to_prometheus(sample_snapshot());
  // Brackets and dots collapse to single underscores; no trailing '_'.
  EXPECT_NE(prom.find("# TYPE sda_edge_3_map_cache_misses counter\n"), std::string::npos);
  EXPECT_NE(prom.find("sda_edge_3_map_cache_misses 7\n"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE sda_ha_election_leader gauge\n"), std::string::npos);
  EXPECT_EQ(prom.find("sda_edge_3_"), prom.find("# TYPE sda_edge_3_") + 7);
}

TEST(Export, PrometheusHistogramIsCumulativeWithUnderflow) {
  const std::string prom = to_prometheus(sample_snapshot());
  // Cumulative counts start from the underflow bin: 1 underflow, then
  // +1, +2, +0, +1 across the four buckets -> 2, 4, 4, 5; +Inf adds the
  // overflow sample to reach total=6.
  const std::string h = "sda_assurance_register_rtt_us";
  EXPECT_NE(prom.find("# TYPE " + h + " histogram\n"), std::string::npos);
  EXPECT_NE(prom.find(h + "_bucket{le=\"10\"} 2\n"), std::string::npos);
  EXPECT_NE(prom.find(h + "_bucket{le=\"20\"} 4\n"), std::string::npos);
  EXPECT_NE(prom.find(h + "_bucket{le=\"30\"} 4\n"), std::string::npos);
  EXPECT_NE(prom.find(h + "_bucket{le=\"40\"} 5\n"), std::string::npos);
  EXPECT_NE(prom.find(h + "_bucket{le=\"+Inf\"} 6\n"), std::string::npos);
  EXPECT_NE(prom.find(h + "_sum 167\n"), std::string::npos);
  EXPECT_NE(prom.find(h + "_count 6\n"), std::string::npos);
}

TEST(Export, PrometheusInfBucketMatchesCount) {
  // Conformance rule: le="+Inf" equals _count for every histogram, and
  // bucket values never decrease (cumulative semantics).
  const std::string prom = to_prometheus(sample_snapshot());
  std::uint64_t last = 0;
  std::size_t pos = 0;
  std::uint64_t inf_value = 0, count_value = 0;
  while ((pos = prom.find("_bucket{le=\"", pos)) != std::string::npos) {
    const std::size_t close = prom.find("\"} ", pos);
    ASSERT_NE(close, std::string::npos);
    const bool inf = prom.compare(pos, 17, "_bucket{le=\"+Inf\"") == 0;
    const std::uint64_t v = std::stoull(prom.substr(close + 3));
    EXPECT_GE(v, last) << "bucket counts must be cumulative";
    last = inf ? 0 : v;  // reset at histogram boundary (+Inf is last)
    if (inf) inf_value = v;
    pos = close;
  }
  pos = prom.find("_count ");
  ASSERT_NE(pos, std::string::npos);
  count_value = std::stoull(prom.substr(pos + 7));
  EXPECT_EQ(inf_value, count_value);
}

TEST(Export, GoldenPrometheusRendering) {
  // Full golden string for a minimal snapshot: sorted order, one # TYPE
  // line per metric, exact float formatting. A diff here means the scrape
  // format changed — update its consumers deliberately.
  MetricsRegistry reg;
  reg.counter("b.count").inc(3);
  reg.gauge("a.depth").set(1.5);
  reg.histogram("c.lat_us", HistogramSpec{0.0, 20.0, 2}).observe(5.0);
  const std::string expected =
      "# TYPE sda_b_count counter\n"
      "sda_b_count 3\n"
      "# TYPE sda_a_depth gauge\n"
      "sda_a_depth 1.5\n"
      "# TYPE sda_c_lat_us histogram\n"
      "sda_c_lat_us_bucket{le=\"10\"} 1\n"
      "sda_c_lat_us_bucket{le=\"20\"} 1\n"
      "sda_c_lat_us_bucket{le=\"+Inf\"} 1\n"
      "sda_c_lat_us_sum 5\n"
      "sda_c_lat_us_count 1\n";
  EXPECT_EQ(to_prometheus(reg.snapshot()), expected);
}

TEST(Export, JsonShapeAndDeterminism) {
  const Snapshot snap = sample_snapshot();
  const std::string json = to_json(snap);
  // Keys are sorted, so equal snapshots render identically.
  EXPECT_EQ(json, to_json(snap));
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"edge[3].map_cache.misses\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"ha.failovers\": 2"), std::string::npos);
  // Histogram object carries the full bucket-layout contract.
  for (const char* field : {"\"lo\"", "\"hi\"", "\"counts\"", "\"underflow\"",
                            "\"overflow\"", "\"total\"", "\"sum\""}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
  EXPECT_NE(json.find("\"total\": 6"), std::string::npos);
}

TEST(Export, EmptySnapshotRenders) {
  const Snapshot empty;
  EXPECT_EQ(to_prometheus(empty), "");
  const std::string json = to_json(empty);
  EXPECT_NE(json.find("\"counters\": {}"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\": {}"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\": {}"), std::string::npos);
}

}  // namespace
}  // namespace sda::telemetry
