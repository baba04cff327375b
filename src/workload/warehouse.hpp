// Warehouse workload: massive-mobility handover measurement (Fig. 10/11).
//
// Recreates the paper's lab setup: one border with an embedded routing
// server, 200 edge routers, 16,000 robot endpoints attached to the two
// "physical" edges, unidirectional UDP from hosts towards the border, and
// 800 mobility events per second bouncing hosts between the two edges.
//
// Handover delay is measured per move as
//     max(attach-complete, convergence-at-the-border) - detach,
// i.e. when the host can transmit again AND the rest of the fabric can
// reach it. The reactive run also reports when the peers converged: the
// same, extended to the last edge that took up the new location (the old
// edge's Map-Notify, each solicited sender's re-resolution).
// Two control planes are compared on identical topology/timing:
//   * reactive (LISP): Map-Register + pub/sub to the border, Map-Notify to
//     the previous edge; only routers that need the update hear about it.
//   * proactive (BGP): the new edge announces to a route reflector that
//     replicates the update to all 200 peers; the border's (random)
//     position in the fan-out sets its convergence time.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bgp/route_reflector.hpp"
#include "fabric/fabric.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "stats/summary.hpp"

namespace sda::workload {

struct WarehouseSpec {
  unsigned edges = 200;
  unsigned hosts = 16000;
  double moves_per_second = 800;        // ~5% of hosts move each second
  double measure_seconds = 20;          // steady-state measurement window
  /// Fast-roaming control timings (robots use PSK fast transition).
  fabric::FabricTimings timings{
      .detection = std::chrono::microseconds{500},
      .auth_processing = std::chrono::microseconds{500},
      .rule_download_processing = std::chrono::microseconds{200},
  };
  bgp::ReflectorConfig reflector;  // proactive-baseline knobs
  std::uint64_t seed = 11;
  /// Trace the first packet of every flow in the reactive run (feeds the
  /// fabric.first_packet_us histogram and the causal tracer's ring).
  bool trace_first_packets = false;
  /// Called with the reactive fabric after the run completes but before it
  /// is destroyed — the hook for exporting its telemetry snapshot.
  std::function<void(fabric::SdaFabric&)> inspect_reactive;
};

struct WarehouseResult {
  stats::Summary lisp_handover_s;  // per-move handover delay, seconds
  stats::Summary lisp_peers_converged_s;  // per-move, until the peers converged
  stats::Summary bgp_handover_s;
  std::size_t lisp_moves = 0;
  std::size_t bgp_moves = 0;
  /// Peak Map-Register+Map-Request rate seen by the routing server (§4.1).
  double peak_registers_per_second = 0;
};

/// The paper's Fig. 11 run: 200 edges, 16,000 hosts, 800 moves/s measured
/// over 12 s, and a reflector that spends 26 µs of CPU per peer UPDATE. At
/// 800 moves/s over 200 peers that keeps its output queue hot (utilization
/// ~0.85), as in the overloaded lab run the paper describes.
[[nodiscard]] WarehouseSpec fig11_spec();

class WarehouseWorkload {
 public:
  explicit WarehouseWorkload(WarehouseSpec spec) : spec_(std::move(spec)) {}

  /// Runs the reactive (LISP/SDA) configuration; returns the handovers and
  /// fills `peers_out` with the per-move peers-converged times.
  [[nodiscard]] stats::Summary run_reactive(std::size_t* moves_out = nullptr,
                                            stats::Summary* peers_out = nullptr);

  /// Runs the proactive (BGP route-reflector) configuration.
  [[nodiscard]] stats::Summary run_proactive(std::size_t* moves_out = nullptr);

  /// Runs both and returns the combined result.
  [[nodiscard]] WarehouseResult run();

 private:
  WarehouseSpec spec_;
};

}  // namespace sda::workload
