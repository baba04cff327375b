// Ablation (§3.4) — mobility signaling vs. traffic pattern.
//
// "...the control plane doesn't need to update *all* edge routers that have
// the stale location, but only those that require it."
//
// Prints run_smr_fanout_ablation() (workload/ablations.hpp): the reactive
// plane's messages for one roam with K correspondents vs the proactive
// route reflector's, sweeping the fabric size E and K.
#include <cstdio>

#include "stats/table.hpp"
#include "workload/ablations.hpp"

int main() {
  using sda::stats::Table;
  std::printf("=== Ablation (section 3.4): mobility signaling vs traffic pattern ===\n");
  std::printf("one host roams; K correspondents keep sending; count control messages\n\n");

  Table table{{"edges", "correspondents", "reactive msgs", "proactive msgs",
               "reactive scales with"}};
  for (const auto& r : sda::workload::run_smr_fanout_ablation()) {
    table.add_row({Table::num(std::size_t{r.edges}), Table::num(std::size_t{r.senders}),
                   Table::num(std::size_t{r.reactive}), Table::num(std::size_t{r.proactive}),
                   r.reactive < r.proactive ? "senders (K)" : "senders (K) - large K"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("takeaway: reactive signaling tracks the number of *active correspondents*\n");
  std::printf("and is flat in fabric size; proactive signaling tracks the number of\n");
  std::printf("*routers* regardless of who actually talks to the roamed host (3.4).\n");
  return 0;
}
