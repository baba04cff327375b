// Exporters for telemetry snapshots and the shared bench CSV conventions.
//
// Three formats cover the consumers we have:
//  * Prometheus-style text — scrape-shaped, for eyeballing and diffing;
//  * JSON — machine-readable snapshot for external tooling;
//  * CSV timeseries — the bench figure pipeline, with one convention for
//    every bench: first column "time_s" (simulated seconds), last column
//    "seed" (the run's RNG seed), so downstream plotting never has to
//    guess units or provenance again.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/metrics.hpp"

namespace sda::telemetry {

/// Renders a snapshot as Prometheus-style exposition text. Metric names
/// are sanitized ("edge[3].map_cache.misses" -> "sda_edge_3_map_cache_misses");
/// histograms expand to cumulative _bucket{le="..."} lines plus _sum/_count.
[[nodiscard]] std::string to_prometheus(const Snapshot& snapshot);

/// Renders a snapshot as a JSON object:
///   {"counters": {...}, "gauges": {...},
///    "histograms": {name: {"lo","hi","counts","underflow","overflow","total","sum"}}}
/// Keys are emitted in sorted order, so equal snapshots render identically.
[[nodiscard]] std::string to_json(const Snapshot& snapshot);

/// Writes to_json(snapshot) to `<dir>/<name>.json`. Best-effort like the
/// CSV writers: returns false on I/O failure.
bool write_json(const std::string& dir, const std::string& name, const Snapshot& snapshot);

/// Writes to_prometheus(snapshot) to `<dir>/<name>.prom`.
bool write_prometheus(const std::string& dir, const std::string& name,
                      const Snapshot& snapshot);

/// One row of a bench timeseries: simulated time plus the value columns.
struct TimeseriesRow {
  double time_s = 0;
  std::vector<double> values;
};

/// Shared bench CSV exporter: header is "time_s,<columns...>,seed"; every
/// row is stamped with the run seed. All sim-time series across benches go
/// through here so column conventions stay consistent.
bool write_timeseries_csv(const std::string& dir, const std::string& name,
                          const std::vector<std::string>& value_columns,
                          const std::vector<TimeseriesRow>& rows, std::uint64_t seed);

/// Shared bench CSV exporter for non-time series (CDFs, size sweeps):
/// header is "<x_label>,<y_label>,seed".
bool write_xy_csv(const std::string& dir, const std::string& name, const std::string& x_label,
                  const std::string& y_label,
                  const std::vector<std::pair<double, double>>& series, std::uint64_t seed);

}  // namespace sda::telemetry
