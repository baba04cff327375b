// Ablation (§2 "Mobility" / Table 1) — centralized vs distributed wireless
// data plane: the legacy controller is every frame's data sink (easy
// mobility, triangular routing); SDA keeps only the control plane central.
// Prints run_wlan_dataplane_ablation() (workload/ablations.hpp).
#include <cstdio>

#include "stats/table.hpp"
#include "workload/ablations.hpp"

int main() {
  using sda::stats::Table;
  using A = sda::workload::WlanDataplaneAblation;
  std::printf("=== Ablation (section 2, Table 1): wireless data-plane placement ===\n");
  std::printf("%u stations, %u APs on %u edges; same traffic and roaming both modes\n\n",
              A::kStations, A::kEdges * A::kApsPerEdge, A::kEdges);

  const A r = sda::workload::run_wlan_dataplane_ablation();
  const auto& dist = r.distributed;
  const auto& cent = r.centralized;
  Table table{{"metric", "distributed (SDA)", "centralized (legacy WLC)"}};
  table.add_row({"median data latency (ms)", Table::num(dist.data_latency_ms.median(), 3),
                 Table::num(cent.data_latency_ms.median(), 3)});
  table.add_row({"p95 data latency (ms)", Table::num(dist.data_latency_ms.percentile(95), 3),
                 Table::num(cent.data_latency_ms.percentile(95), 3)});
  table.add_row({"median handover (ms)", Table::num(dist.handover_ms.median(), 3),
                 Table::num(cent.handover_ms.median(), 3)});
  table.add_row({"frames through controller", Table::num(std::size_t{dist.frames_tunneled}),
                 Table::num(std::size_t{cent.frames_tunneled})});
  table.add_row({"controller CPU busy (us)", Table::num(std::size_t{dist.controller_busy_us}),
                 Table::num(std::size_t{cent.controller_busy_us})});
  std::printf("%s\n", table.render().c_str());

  std::printf("takeaway (Table 1): the legacy sink wins only on handover (anchor never\n");
  std::printf("moves); it pays triangular routing on every frame and its controller CPU\n");
  std::printf("scales with *traffic*, while SDA's controller scales with *events*.\n");
  return 0;
}
