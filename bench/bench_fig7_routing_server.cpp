// Figure 7 — Routing-server performance (paper §4.1).
//
//  7a: delay of 10k Map-Requests vs number of configured routes
//      (1 / 100 / 1k / 10k), boxplot stats relative to the 1-route 1st percentile.
//  7b: same sweep for Map-Register (route updates).
//  7c: request sojourn time vs offered load (queries/s) through the
//      simulated 8-worker server front end, relative to the minimum.
//
// 7a/7b measure the *real* Patricia-trie-backed database with wall-clock
// timers — the paper's flat curves come from the trie's key-width-bound
// lookups, and that property must hold in this implementation, not just in
// a model. 7c exercises the queueing front end in simulated time.
#include <chrono>
#include <cstdio>
#include <vector>

#include "lisp/map_server.hpp"
#include "lisp/map_server_node.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "telemetry_sink.hpp"

namespace {

using namespace sda;

constexpr std::uint64_t kSeed = 99;  // rng seed of the 7c queueing front end

net::VnEid eid_of(std::uint32_t i) {
  return net::VnEid{net::VnId{1}, net::Eid{net::Ipv4Address{0x0A000000u + i}}};
}

lisp::MapServer make_server(std::uint32_t routes) {
  lisp::MapServer server;
  for (std::uint32_t i = 0; i < routes; ++i) {
    lisp::MappingRecord record;
    record.rlocs = {net::Rloc{net::Ipv4Address{0xC0A80001u + (i % 200)}}};
    server.register_mapping(eid_of(i), record);
  }
  return server;
}

/// Wall-clock timing of `queries` Map-Requests against a server holding
/// `routes` routes; each query targets a distinct EID (cache-hostile).
/// Times the full service path a real server executes per query: wire
/// decode of the request, database lookup, wire encode of the reply.
stats::Summary time_requests(std::uint32_t routes, std::uint32_t queries) {
  lisp::MapServer server = make_server(routes);
  stats::Summary delays_ns;
  delays_ns.reserve(queries);
  // Pre-encode the request messages (that work belongs to the client).
  std::vector<std::vector<std::uint8_t>> wire;
  wire.reserve(queries);
  for (std::uint32_t q = 0; q < queries; ++q) {
    lisp::MapRequest request;
    request.nonce = q;
    request.itr_rloc = net::Ipv4Address{0xC0A80001u};
    request.eid = eid_of(q % std::max(routes, 1u));
    wire.push_back(lisp::encode_message(lisp::Message{request}));
  }
  for (std::uint32_t q = 0; q < queries; ++q) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto message = lisp::decode_message(wire[q]);
    const lisp::MapReply reply = server.answer(std::get<lisp::MapRequest>(*message));
    const auto reply_bytes = lisp::encode_message(lisp::Message{reply});
    const auto t1 = std::chrono::steady_clock::now();
    if (reply_bytes.empty() || (reply.negative() && routes > 0)) std::abort();
    delays_ns.add(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()));
  }
  return delays_ns;
}

/// Wall-clock timing of `updates` Map-Registers (distinct EIDs, alternating
/// RLOC so every update mutates state), including wire decode and the
/// Map-Notify encode that acknowledges each registration.
stats::Summary time_updates(std::uint32_t routes, std::uint32_t updates) {
  lisp::MapServer server = make_server(routes);
  stats::Summary delays_ns;
  delays_ns.reserve(updates);
  std::vector<std::vector<std::uint8_t>> wire;
  wire.reserve(updates);
  for (std::uint32_t u = 0; u < updates; ++u) {
    lisp::MapRegister reg;
    reg.nonce = u;
    reg.eid = eid_of(u % std::max(routes, 1u));
    reg.rlocs = {net::Rloc{net::Ipv4Address{0xC0A80001u + (u % 2)}}};
    wire.push_back(lisp::encode_message(lisp::Message{reg}));
  }
  for (std::uint32_t u = 0; u < updates; ++u) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto message = lisp::decode_message(wire[u]);
    const auto& reg = std::get<lisp::MapRegister>(*message);
    lisp::MappingRecord record;
    record.rlocs = reg.rlocs;
    record.ttl_seconds = reg.ttl_seconds;
    server.register_mapping(reg.eid, record);
    const lisp::MapNotify notify{reg.nonce, reg.eid, reg.rlocs};
    const auto notify_bytes = lisp::encode_message(lisp::Message{notify});
    const auto t1 = std::chrono::steady_clock::now();
    if (notify_bytes.empty()) std::abort();
    delays_ns.add(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()));
  }
  return delays_ns;
}

void print_boxplot_table(const char* title, const char* x_label,
                         const std::vector<std::pair<std::string, stats::BoxStats>>& rows,
                         const char* csv_name = nullptr) {
  std::printf("%s\n", title);
  stats::Table table{{x_label, "w2.5", "q1", "median", "q3", "w97.5", "mean"}};
  std::vector<std::vector<std::string>> csv_rows;
  for (const auto& [label, box] : rows) {
    std::vector<std::string> cells = {label,
                                      stats::Table::num(box.whisker_low),
                                      stats::Table::num(box.q1),
                                      stats::Table::num(box.median),
                                      stats::Table::num(box.q3),
                                      stats::Table::num(box.whisker_high),
                                      stats::Table::num(box.mean)};
    table.add_row(cells);
    csv_rows.push_back(std::move(cells));
  }
  std::printf("%s\n", table.render().c_str());
  if (csv_name != nullptr) {
    bench::write_table(csv_name, {x_label, "w2.5", "q1", "median", "q3", "w97.5", "mean"},
                       std::move(csv_rows), kSeed);
  }
}

/// Fig. 7c: offered Poisson load through the simulated queueing front end.
stats::Summary simulate_load(double queries_per_second, std::uint32_t queries) {
  sim::Simulator sim;
  lisp::MapServer server = make_server(10000);
  lisp::MapServerNode node{sim, server, net::Ipv4Address{0xC0A80001u}, {}, 7};
  sim::Rng rng{kSeed};

  sim::SimTime at = sim::SimTime::zero();
  for (std::uint32_t q = 0; q < queries; ++q) {
    at += rng.exp_interarrival(queries_per_second);
    sim.schedule_at(at, [&node, q] {
      lisp::MapRequest request;
      request.nonce = q;
      request.eid = eid_of(q % 10000);
      node.submit_request(request);
    });
  }
  sim.run();
  return node.request_sojourns();
}

}  // namespace

int main() {
  std::printf("=== Figure 7: routing-server performance (paper section 4.1) ===\n\n");
  constexpr std::uint32_t kQueries = 10000;
  const std::vector<std::uint32_t> route_counts = {1, 100, 1000, 10000};

  // Warm up allocator/caches once so the 1-route baseline is not penalized.
  (void)time_requests(1000, 2000);

  // --- Fig. 7a: request delay vs configured routes ----------------------
  // Rows are relative to the 1-route run's 1st percentile, not its single
  // fastest sample, so one lucky sample cannot rescale the table.
  std::vector<std::pair<std::string, stats::BoxStats>> rows_7a;
  double base_request = 0;
  for (const std::uint32_t routes : route_counts) {
    const stats::Summary s = time_requests(routes, kQueries);
    if (routes == 1) base_request = s.percentile(1);
    rows_7a.emplace_back(std::to_string(routes),
                         s.box_stats().relative_to(std::max(base_request, 1.0)));
  }
  print_boxplot_table(
      "Fig. 7a — Map-Request delay vs #configured routes (relative to 1-route p1)",
      "routes", rows_7a, "fig7a_request_delay");

  // --- Fig. 7b: update delay vs configured routes -----------------------
  std::vector<std::pair<std::string, stats::BoxStats>> rows_7b;
  double base_update = 0;
  for (const std::uint32_t routes : route_counts) {
    const stats::Summary s = time_updates(routes, kQueries);
    if (routes == 1) base_update = s.percentile(1);
    rows_7b.emplace_back(std::to_string(routes),
                         s.box_stats().relative_to(std::max(base_update, 1.0)));
  }
  print_boxplot_table(
      "Fig. 7b — Map-Register delay vs #configured routes (relative to 1-route p1)",
      "routes", rows_7b, "fig7b_update_delay");

  // --- Fig. 7c: request delay vs offered load ---------------------------
  const std::vector<double> loads = {200, 400, 800, 1600, 3200};
  std::vector<stats::Summary> sojourns;
  double min_sojourn = 1e18;
  for (const double load : loads) {
    sojourns.push_back(simulate_load(load, 8000));
    min_sojourn = std::min(min_sojourn, sojourns.back().min());
  }
  std::vector<std::pair<std::string, stats::BoxStats>> rows_7c;
  for (std::size_t i = 0; i < loads.size(); ++i) {
    rows_7c.emplace_back(stats::Table::num(loads[i], 0) + " q/s",
                         sojourns[i].box_stats().relative_to(min_sojourn));
  }
  print_boxplot_table(
      "Fig. 7c — Map-Request sojourn vs offered load (relative to min of all)",
      "load", rows_7c, "fig7c_load_sweep");

  // --- §4.1 sizing notes -------------------------------------------------
  std::printf("Sizing (paper section 4.1):\n");
  std::printf("  10k routes / 3 routes per endpoint (IPv4+IPv6+MAC) -> ~%d endpoints\n",
              10000 / 3);
  std::printf("  warehouse peak: 800 moves/s * 2 queries/move = 1600 q/s — covered by the\n");
  std::printf("  flat region of Fig. 7c above.\n");
  return 0;
}
