// Ablation — onboarding storms ("large gatherings with highly mobile
// end-hosts", paper conclusion): a flash crowd queues on the policy
// server's RADIUS workers. Prints run_onboarding_storm_ablation()
// (workload/ablations.hpp).
#include <cstdio>

#include "stats/table.hpp"
#include "workload/ablations.hpp"

int main() {
  using sda::stats::Table;
  std::printf("=== Ablation: onboarding storm (flash-crowd authentication) ===\n");
  std::printf("%u devices arriving Poisson; RADIUS service 2 ms per auth round\n\n",
              sda::workload::OnboardingStormAblation::kDevices);

  Table table{{"arrivals/s", "workers", "utilization", "median ms", "p95 ms", "p99 ms",
               "max ms"}};
  for (const auto& r : sda::workload::run_onboarding_storm_ablation().rows) {
    const auto& s = r.onboarding_ms;
    table.add_row({Table::num(r.arrivals_per_second, 0), Table::num(std::size_t{r.workers}),
                   Table::num(r.utilization, 2), Table::num(s.median(), 1),
                   Table::num(s.percentile(95), 1), Table::num(s.percentile(99), 1),
                   Table::num(s.max(), 1)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("takeaway: onboarding latency is flat while the auth pool keeps up and\n");
  std::printf("degrades sharply past utilization ~1 — provision the policy server for\n");
  std::printf("the arrival *burst*, not the average (the §4.1 horizontal-scaling logic\n");
  std::printf("applies to the policy plane too).\n");
  return 0;
}
