// Figure 11 — Handover-delay CDF under massive mobility (paper §4.3).
//
// Warehouse topology (Fig. 10 / Table 3): one border with an embedded
// routing server, 200 edge routers, 16,000 robot endpoints on the two
// "physical" edges, unidirectional UDP towards the border, and 800
// mobility events per second (~5% of endpoints move every second).
//
// Two control planes on identical topology and attach timings:
//   reactive (LISP): Map-Register + pub/sub sync to the border;
//   proactive (BGP): route-reflector replication to all 200 peers.
// The paper's headline: the proactive CDF sits roughly an order of
// magnitude to the right, with much higher variance, because the reflector
// updates peers "randomly, i.e. not by their need".
#include <cstdio>

#include "stats/cdf.hpp"
#include "stats/table.hpp"
#include "telemetry_sink.hpp"
#include "workload/warehouse.hpp"

int main() {
  using namespace sda;
  std::printf("=== Figure 11: handover delay CDF, reactive (LISP) vs proactive (BGP) ===\n");

  workload::WarehouseSpec spec;
  spec.edges = 200;
  spec.hosts = 16000;
  spec.moves_per_second = 800;
  spec.measure_seconds = 12;
  // Reflector CPU cost per peer UPDATE: at 800 moves/s over 200 peers this
  // keeps the output queue hot (utilization ~0.85) as in the overloaded
  // lab run the paper describes.
  spec.reflector.per_peer_send = std::chrono::microseconds{26};
  // Telemetry: trace every flow's first packet in the reactive run and
  // export the fabric's metrics snapshot (per-edge map-cache hits/misses,
  // SMR counts, onboarding/roam/first-packet histograms) plus the Chrome
  // trace of the first-packet operations, hop by hop with their
  // resolutions.
  spec.trace_first_packets = true;
  spec.inspect_reactive = [](fabric::SdaFabric& f) {
    const telemetry::Snapshot snap = bench::export_fabric_metrics(f, "fig11_mobility_metrics");
    const auto dir = bench::results_dir();
    if (dir && f.telemetry().causal.write_chrome_trace(*dir, "fig11_mobility_traces")) {
      std::printf("chrome trace written to %s/fig11_mobility_traces.json\n", dir->c_str());
    }
    std::uint64_t hits = 0, misses = 0, smr_sent = 0;
    for (const auto& [name, value] : snap.counters) {
      if (name.ends_with(".map_cache.hits")) hits += value;
      if (name.ends_with(".map_cache.misses")) misses += value;
      if (name.ends_with(".smr_sent")) smr_sent += value;
    }
    std::printf("telemetry: map-cache %llu hits / %llu misses, %llu SMRs sent\n",
                static_cast<unsigned long long>(hits), static_cast<unsigned long long>(misses),
                static_cast<unsigned long long>(smr_sent));
    const auto fp = snap.histograms.find("fabric.first_packet_us");
    if (fp != snap.histograms.end() && fp->second.total > 0) {
      std::printf("telemetry: first packet n=%llu p50=%.0fus p95=%.0fus (traced: %zu kept)\n",
                  static_cast<unsigned long long>(fp->second.total),
                  fp->second.quantile(0.5), fp->second.quantile(0.95),
                  f.telemetry().causal.completed().size());
    }
  };
  workload::WarehouseWorkload warehouse{spec};

  std::printf("running reactive (LISP) control plane...\n");
  std::size_t lisp_moves = 0;
  stats::Summary lisp_peers;
  const stats::Summary lisp = warehouse.run_reactive(&lisp_moves, &lisp_peers);
  std::printf("running proactive (BGP route-reflector) control plane...\n\n");
  std::size_t bgp_moves = 0;
  const stats::Summary bgp = warehouse.run_proactive(&bgp_moves);

  // The paper normalizes to the minimum observed handover delay.
  const double base = std::min(lisp.min(), bgp.min());
  const stats::Cdf lisp_cdf = stats::Cdf{lisp.samples()}.normalized_to(base);
  const stats::Cdf bgp_cdf = stats::Cdf{bgp.samples()}.normalized_to(base);

  stats::Table table{{"percentile", "LISP (norm.)", "BGP (norm.)", "BGP/LISP"}};
  for (const double p : {0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99}) {
    const double l = lisp_cdf.quantile(p);
    const double b = bgp_cdf.quantile(p);
    table.add_row({stats::Table::num(100 * p, 0) + "th", stats::Table::num(l, 2),
                   stats::Table::num(b, 2), stats::Table::num(b / l, 1)});
  }
  std::printf("%s\n", table.render().c_str());

  std::vector<std::pair<double, double>> lisp_series, bgp_series;
  for (const auto& [x, y] : lisp_cdf.series(64)) lisp_series.emplace_back(x, y);
  for (const auto& [x, y] : bgp_cdf.series(64)) bgp_series.emplace_back(x, y);
  std::printf("%s\n", stats::ascii_multiplot({{"LISP (reactive)", 'L', lisp_series},
                                              {"BGP (proactive)", 'B', bgp_series}},
                                             96, 18,
                                             "CDF of handover delay (normalized to min)")
                          .c_str());

  bench::write_xy("fig11_lisp_cdf", "normalized_delay", "fraction", lisp_cdf.series(256),
                  spec.seed);
  bench::write_xy("fig11_bgp_cdf", "normalized_delay", "fraction", bgp_cdf.series(256),
                  spec.seed);

  std::printf("moves measured: LISP %zu, BGP %zu\n", lisp_moves, bgp_moves);
  std::printf("median handover: LISP %.2f ms, BGP %.2f ms  (ratio %.1fx)\n",
              1e3 * lisp.median(), 1e3 * bgp.median(), bgp.median() / lisp.median());
  std::printf("stddev:          LISP %.2f ms, BGP %.2f ms\n", 1e3 * lisp.stddev(),
              1e3 * bgp.stddev());
  // Handover stops at the border; the old edge learns the new location from
  // its Map-Notify (and any solicited sender from its re-resolution) after.
  if (lisp_peers.count() > 0) {
    std::printf("peers converged: LISP median %.2f ms, p99 %.2f ms  (%zu moves)\n",
                1e3 * lisp_peers.median(), 1e3 * lisp_peers.percentile(99),
                lisp_peers.count());
  }
  std::printf("paper reference: proactive ~10x slower to converge, higher variance.\n");
  return 0;
}
