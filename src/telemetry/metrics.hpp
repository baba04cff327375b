// MetricsRegistry: one query surface over every subsystem's counters.
//
// The fabric grew ~13 ad-hoc per-subsystem Stats/Counters structs; this
// registry federates them under hierarchical dotted names (e.g.
// "edge[3].map_cache.misses") without changing any existing accessor.
// Two registration styles coexist:
//
//  * owned cells (Counter/Gauge/LatencyHistogram) for new instrumentation —
//    hot-path increments are a single add on a member integer;
//  * pull probes (register_counter/register_gauge with a callable) that
//    sample an existing struct field at snapshot() time — zero cost on the
//    instrumented hot path, which is how the legacy Stats structs migrate.
//
// snapshot() materializes everything into a plain-value Snapshot with
// deterministic (name-sorted) ordering; Snapshot::delta() subtracts an
// earlier snapshot so benches can report per-window rates, and
// HistogramSnapshot::merge() folds per-node latency histograms into a
// fabric-wide one.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "stats/histogram.hpp"

namespace sda::telemetry {

/// Joins hierarchical metric name segments: join("edge[3]", "miss") ->
/// "edge[3].miss". An empty prefix yields the leaf unchanged.
[[nodiscard]] std::string join(const std::string& prefix, const std::string& leaf);

/// An owned monotonic counter cell. Incrementing is one integer add; the
/// registry samples the value at snapshot time.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  Counter& operator++() {
    ++value_;
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// An owned gauge cell (a value that can go down: queue depth, FIB size).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double d) { value_ += d; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Bucket layout for a latency histogram: `buckets` equal-width bins over
/// [lo, hi), out-of-range samples land in under/overflow (stats::Histogram
/// semantics). Two histograms merge only if their specs match.
struct HistogramSpec {
  double lo = 0.0;
  double hi = 10'000.0;  // default: 0..10ms in microseconds
  std::size_t buckets = 50;

  friend bool operator==(const HistogramSpec&, const HistogramSpec&) = default;
};

/// An owned latency histogram (reuses the stats::Histogram bucket
/// machinery and additionally tracks the sample sum for mean latency).
class LatencyHistogram {
 public:
  explicit LatencyHistogram(HistogramSpec spec = {})
      : spec_(spec), histogram_(spec.lo, spec.hi, spec.buckets) {}

  void observe(double sample) {
    histogram_.add(sample);
    sum_ += sample;
  }

  [[nodiscard]] const HistogramSpec& spec() const { return spec_; }
  [[nodiscard]] const stats::Histogram& histogram() const { return histogram_; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  HistogramSpec spec_;
  stats::Histogram histogram_;
  double sum_ = 0;
};

/// A histogram materialized into plain values: safe to copy, merge across
/// nodes, and diff across time.
struct HistogramSnapshot {
  HistogramSpec spec;
  std::vector<std::uint64_t> counts;  // spec.buckets entries
  std::uint64_t underflow = 0;
  std::uint64_t overflow = 0;
  std::uint64_t total = 0;
  double sum = 0;

  [[nodiscard]] double bucket_width() const;
  /// Lower edge of bucket i.
  [[nodiscard]] double bucket_lo(std::size_t i) const;
  [[nodiscard]] double mean() const { return total == 0 ? 0.0 : sum / static_cast<double>(total); }

  /// Bucket-interpolated quantile (q in [0,1]); under/overflow samples clamp
  /// to the range edges.
  [[nodiscard]] double quantile(double q) const;

  /// Adds `other` bucket-wise (cross-node merge). Returns false (and leaves
  /// this unchanged) when the specs differ.
  bool merge(const HistogramSnapshot& other);

  /// Bucket-wise saturating subtraction: the samples observed since
  /// `earlier` was taken.
  [[nodiscard]] HistogramSnapshot delta(const HistogramSnapshot& earlier) const;
};

/// A point-in-time materialization of a registry: plain values with
/// deterministic (sorted-by-name) iteration order for exporters.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Counters and histograms become "since earlier" (saturating at 0 so a
  /// reset subsystem never underflows); gauges keep their current value.
  [[nodiscard]] Snapshot delta(const Snapshot& earlier) const;

  /// Cross-node fold: counters and gauges sum, histograms merge bucket-wise
  /// (skipped when specs mismatch — the local histogram wins), names union.
  /// Per-node registries with identical schemas fold into one fabric-wide
  /// snapshot.
  void merge(const Snapshot& other);

  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

class MetricsRegistry {
 public:
  using CounterProbe = std::function<std::uint64_t()>;
  using GaugeProbe = std::function<double()>;

  /// Owned cells, created on first use. References stay valid for the
  /// registry's lifetime (node-based map storage), so hot paths can cache
  /// them once and increment without any lookup.
  [[nodiscard]] Counter& counter(const std::string& name) { return counters_[name]; }
  [[nodiscard]] Gauge& gauge(const std::string& name) { return gauges_[name]; }
  [[nodiscard]] LatencyHistogram& histogram(const std::string& name, HistogramSpec spec = {});

  /// Pull probes sampled at snapshot() time. Re-registering a name
  /// replaces the probe. The callable must stay valid until the probe is
  /// unregistered (or the registry is destroyed) — unregister_prefix()
  /// before tearing down the instrumented subsystem.
  void register_counter(const std::string& name, CounterProbe probe);
  void register_gauge(const std::string& name, GaugeProbe probe);

  /// Removes every metric (owned or probe) whose name starts with
  /// `prefix`. Returns the number removed.
  std::size_t unregister_prefix(const std::string& prefix);

  [[nodiscard]] Snapshot snapshot() const;

  /// Total number of registered metrics (owned + probes).
  [[nodiscard]] std::size_t size() const;

 private:
  // std::map keeps references stable and iteration deterministic.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, LatencyHistogram> histograms_;
  std::map<std::string, CounterProbe> counter_probes_;
  std::map<std::string, GaugeProbe> gauge_probes_;
};

}  // namespace sda::telemetry
