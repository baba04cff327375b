// Ablation (§5.3) — ingress vs egress policy-enforcement point: egress keeps
// only the rules of locally attached destination groups, at the price of
// fabric bytes carried by frames the far end drops. Prints
// run_enforcement_point_ablation() (workload/ablations.hpp).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "stats/table.hpp"
#include "workload/ablations.hpp"

int main() {
  using sda::stats::Table;
  using A = sda::workload::EnforcementPointAblation;
  std::printf("=== Ablation (section 5.3): policy enforcement point ===\n");
  std::printf("%u edges, %u groups, %u endpoints, %u flows, ~25%% of group pairs denied\n\n",
              A::kEdges, A::kGroups, A::kEdges * A::kEndpointsPerEdge, A::kFlows);

  const A r = sda::workload::run_enforcement_point_ablation();
  const auto row = [](const char* metric, std::size_t egress, std::size_t ingress) {
    return std::vector<std::string>{metric, Table::num(egress), Table::num(ingress)};
  };
  Table table{{"metric", "egress (SDA)", "ingress (ablation)"}};
  table.add_row(row("SGACL rules, total across edges", r.egress.total_rules,
                    r.ingress.total_rules));
  table.add_row(row("SGACL rules, max per edge", r.egress.max_rules_per_edge,
                    r.ingress.max_rules_per_edge));
  table.add_row(row("frames dropped at ingress", r.egress.dropped_at_ingress,
                    r.ingress.dropped_at_ingress));
  table.add_row(row("frames dropped at egress", r.egress.dropped_at_egress,
                    r.ingress.dropped_at_egress));
  table.add_row(row("wasted fabric bytes", r.egress.wasted_fabric_bytes,
                    r.ingress.wasted_fabric_bytes));
  table.add_row(row("frames delivered", r.egress.delivered, r.ingress.delivered));
  std::printf("%s\n", table.render().c_str());

  std::printf("takeaway: ingress saves the wasted bytes but multiplies rule state by ~%.1fx;\n",
              static_cast<double>(r.ingress.total_rules) /
                  static_cast<double>(std::max<std::size_t>(r.egress.total_rules, 1)));
  std::printf("egress also keeps (IP, GroupId) fresh without extra signaling (Fig. 13).\n");
  return 0;
}
