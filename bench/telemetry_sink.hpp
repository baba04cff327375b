// Shared telemetry export for benches.
//
// Every bench funnels its file output through here so the on-disk
// conventions stay uniform: metrics snapshots as JSON (+ Prometheus text)
// named after the bench, CSV timeseries with a leading "time_s" column and
// a trailing "seed" column, and flight-recorder dumps as plain text. All
// exports are rooted at $SDA_RESULTS_DIR and silently no-op when it is
// unset — benches stay runnable with zero setup.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fabric/fabric.hpp"
#include "stats/csv.hpp"
#include "telemetry/export.hpp"

namespace sda::bench {

/// The shared results directory ($SDA_RESULTS_DIR); nullopt when unset.
[[nodiscard]] inline std::optional<std::string> results_dir() {
  return stats::results_dir();
}

/// Snapshots a fabric's metrics registry into `<dir>/<name>.json` and
/// `<dir>/<name>.prom`. Returns the snapshot either way, so benches can
/// also summarize from it on stdout.
inline telemetry::Snapshot export_fabric_metrics(fabric::SdaFabric& fabric,
                                                 const std::string& name) {
  telemetry::Snapshot snapshot = fabric.telemetry().metrics.snapshot();
  if (const auto dir = results_dir()) {
    if (telemetry::write_json(*dir, name, snapshot)) {
      std::printf("telemetry snapshot written to %s/%s.json\n", dir->c_str(), name.c_str());
    }
    telemetry::write_prometheus(*dir, name, snapshot);
  }
  return snapshot;
}

/// Dumps the fabric's flight recorder to `<dir>/<name>.log` (best effort).
inline void export_flight_recorder(fabric::SdaFabric& fabric, const std::string& name) {
  const auto dir = results_dir();
  if (!dir) return;
  const std::string path = *dir + "/" + name + ".log";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  const std::string dump = fabric.flight_recorder().dump();
  std::fwrite(dump.data(), 1, dump.size(), f);
  std::fclose(f);
  std::printf("flight recorder written to %s\n", path.c_str());
}

/// Writes a sim-time series through the shared exporter (header
/// "time_s,<columns...>,seed"). Returns false when no results dir is set
/// or the write failed.
inline bool write_timeseries(const std::string& name,
                             const std::vector<std::string>& value_columns,
                             const std::vector<telemetry::TimeseriesRow>& rows,
                             std::uint64_t seed) {
  const auto dir = results_dir();
  if (!dir) return false;
  if (!telemetry::write_timeseries_csv(*dir, name, value_columns, rows, seed)) return false;
  std::printf("CSV written to %s/%s.csv\n", dir->c_str(), name.c_str());
  return true;
}

/// Writes a non-time (x, y) series through the shared exporter (header
/// "<x_label>,<y_label>,seed").
inline bool write_xy(const std::string& name, const std::string& x_label,
                     const std::string& y_label,
                     const std::vector<std::pair<double, double>>& series,
                     std::uint64_t seed) {
  const auto dir = results_dir();
  if (!dir) return false;
  if (!telemetry::write_xy_csv(*dir, name, x_label, y_label, series, seed)) return false;
  std::printf("CSV written to %s/%s.csv\n", dir->c_str(), name.c_str());
  return true;
}

/// Converts a (time_s, value) pair series into single-column rows for
/// write_timeseries.
[[nodiscard]] inline std::vector<telemetry::TimeseriesRow> rows_from_series(
    const std::vector<std::pair<double, double>>& series) {
  std::vector<telemetry::TimeseriesRow> rows;
  rows.reserve(series.size());
  for (const auto& [t, v] : series) rows.push_back({t, {v}});
  return rows;
}

/// Converts a sim-time stats::TimeSeries into single-column rows
/// (timestamps land in the canonical time_s column as seconds).
[[nodiscard]] inline std::vector<telemetry::TimeseriesRow> rows_from_timeseries(
    const stats::TimeSeries& series) {
  std::vector<telemetry::TimeseriesRow> rows;
  rows.reserve(series.points().size());
  for (const auto& point : series.points()) {
    rows.push_back({point.time.seconds(), {point.value}});
  }
  return rows;
}

/// Writes a generic (non-timeseries) table with the trailing seed column
/// appended, e.g. boxplot-stat sweeps.
inline bool write_table(const std::string& name, std::vector<std::string> header,
                        std::vector<std::vector<std::string>> rows, std::uint64_t seed) {
  const auto dir = results_dir();
  if (!dir) return false;
  header.push_back("seed");
  for (auto& row : rows) row.push_back(std::to_string(seed));
  if (!stats::write_csv(*dir, name, header, rows)) return false;
  std::printf("CSV written to %s/%s.csv\n", dir->c_str(), name.c_str());
  return true;
}

}  // namespace sda::bench
