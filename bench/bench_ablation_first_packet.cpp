// Ablation (§3.2.2) — absorbing the reactive protocol's initial delay.
//
// "A drawback of using a reactive protocol such as LISP is the initial
// packet loss until the edge router downloads the route... We have
// overcome this issue by installing a default route in all edge routers
// that points to the border router, and by synchronizing the routing state
// in the border."
//
// Prints run_first_packet_ablation() (workload/ablations.hpp): the same cold
// flows with the border default route and classic-LISP drop-on-miss, as the
// routing server slows down.
#include <cstdio>

#include "stats/table.hpp"
#include "workload/ablations.hpp"

namespace {

using sda::stats::Table;

void add_mode_row(Table& table, const char* label, const sda::workload::FirstPacketArm& r) {
  table.add_row({label, Table::num(std::size_t{r.first_packets_sent}),
                 Table::num(std::size_t{r.first_packets_lost}),
                 Table::num(std::size_t{r.flows_delivered}) + "/" +
                     Table::num(std::size_t{sda::workload::FirstPacketAblation::kColdFlows}),
                 r.first_packet_ms.empty() ? "-" : Table::num(r.first_packet_ms.median(), 3),
                 Table::num(r.warm_packet_ms.median(), 3)});
}

}  // namespace

int main() {
  using A = sda::workload::FirstPacketAblation;
  std::printf("=== Ablation (section 3.2.2): absorbing the reactive initial delay ===\n");
  std::printf("%u cold flows across %u edges; border default route vs drop-on-miss\n\n",
              A::kColdFlows, A::kEdges);

  for (const auto& row : sda::workload::run_first_packet_ablation().rows) {
    std::printf("routing-server service time: %u us\n", row.service_us);
    Table table{{"mode", "first pkts", "lost", "flows delivered", "first-pkt median ms",
                 "warm median ms"}};
    add_mode_row(table, "SDA (border default route)", row.sda);
    add_mode_row(table, "classic LISP (drop on miss)", row.classic);
    std::printf("%s\n", table.render().c_str());
  }

  std::printf("takeaway: the default route converts first-packet *loss* into a bounded\n");
  std::printf("extra hop through the border, and the cost stays flat as the routing\n");
  std::printf("server slows down — the border absorbs the resolution delay (3.2.2).\n");
  return 0;
}
