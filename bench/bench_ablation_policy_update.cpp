// Ablation (§5.4) — policy-update strategies: moving endpoints between
// groups vs rewriting the group ACLs. The paper reports that which is
// cheaper depends on the endpoint distribution. Prints
// run_policy_update_ablation() (workload/ablations.hpp).
#include <cstdio>

#include "stats/table.hpp"
#include "workload/ablations.hpp"

int main() {
  using sda::stats::Table;
  std::printf("=== Ablation (section 5.4): group-move vs ACL-update signaling ===\n\n");

  Table table{{"scenario", "cohort", "src groups", "reach", "A: move signals", "B: rule pushes",
               "cheaper"}};
  for (const auto& r : sda::workload::run_policy_update_ablation()) {
    const auto& s = r.scenario;
    table.add_row({s.name, Table::num(std::size_t{s.cohort}), Table::num(std::size_t{s.groups}),
                   Table::num(std::size_t{s.reach}), Table::num(std::size_t{r.move_signals}),
                   Table::num(std::size_t{r.rule_pushes}),
                   r.move_cheaper() ? "move endpoints" : "update rules"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("takeaway (paper section 5.4): neither strategy dominates — moving users wins\n");
  std::printf("for small cohorts or wide-reach policies; rewriting ACLs wins when a few\n");
  std::printf("rules cover many endpoints.\n");
  return 0;
}
