#include "fabric/inspect.hpp"

#include "stats/table.hpp"

namespace sda::fabric {

std::string inspect(SdaFabric& fabric, const InspectOptions& options) {
  std::string out;
  out += "=== SDA fabric @ " + fabric.simulator().now().to_string() + " ===\n";

  if (options.include_routers) {
    stats::Table borders{{"border", "synced FIB", "hairpinned", "ext out", "ext in",
                          "policy drops", "no-route drops"}};
    for (const auto& name : fabric.border_names()) {
      auto& border = fabric.border(name);
      const auto& c = border.counters();
      borders.add_row({name, stats::Table::num(border.fib_size()),
                       stats::Table::num(std::size_t{c.hairpinned}),
                       stats::Table::num(std::size_t{c.external_out}),
                       stats::Table::num(std::size_t{c.external_in}),
                       stats::Table::num(std::size_t{c.policy_drops}),
                       stats::Table::num(std::size_t{c.no_route_drops})});
    }
    out += borders.render();
    out += "\n";

    stats::Table edges{{"edge", "endpoints", "map-cache", "VRF", "SGACL rules",
                        "encap", "default-routed", "policy drops", "SMR tx/rx"}};
    for (const auto& name : fabric.edge_names()) {
      auto& edge = fabric.edge(name);
      const auto& c = edge.counters();
      edges.add_row({name, stats::Table::num(edge.endpoint_count()),
                     stats::Table::num(edge.map_cache().size()),
                     stats::Table::num(edge.vrf().size()),
                     stats::Table::num(edge.sgacl().rule_count()),
                     stats::Table::num(std::size_t{c.encapsulated}),
                     stats::Table::num(std::size_t{c.default_routed}),
                     stats::Table::num(std::size_t{c.policy_drops}),
                     stats::Table::num(std::size_t{c.smr_sent}) + "/" +
                         stats::Table::num(std::size_t{c.smr_received})});
    }
    out += edges.render();
    out += "\n";
  }

  const auto& ms = fabric.map_server();
  out += "routing server: " + std::to_string(ms.mapping_count()) + " endpoint mappings (" +
         std::to_string(ms.total_entries()) + " entries incl. prefixes), " +
         std::to_string(ms.stats().requests) + " requests (" +
         std::to_string(ms.stats().negative_replies) + " negative), " +
         std::to_string(ms.stats().registers) + " registers, " +
         std::to_string(ms.stats().moves) + " moves";
  if (fabric.routing_server_count() > 1) {
    out += " [+" + std::to_string(fabric.routing_server_count() - 1) + " replicas]";
  }
  out += "\n";

  if (const HaMonitor* ha = fabric.ha_monitor(); ha != nullptr && ha->election_enabled()) {
    const std::size_t leader = ha->leader();
    out += "control plane: leader ";
    out += leader == HaMonitor::kNoLeader ? std::string{"none"} : std::to_string(leader);
    out += ", term " + std::to_string(ha->epoch());
    if (ha->quorum_enabled()) {
      out += ha->quorum_lost() ? ", quorum LOST" : ", quorum held";
      out += " (" + std::to_string(ha->counters().quorum_stalls) + " stalls)";
    }
    out += ", " + std::to_string(ha->counters().leaders_elected) + " elections won, " +
           std::to_string(ha->counters().epoch_rejections) + " stale terms fenced\n";
  }

  if (options.include_policy) {
    const auto& ps = fabric.policy_server().stats();
    out += "policy server: " + std::to_string(fabric.policy_server().endpoint_count()) +
           " endpoints, " + std::to_string(ps.auth_accepts) + " accepts / " +
           std::to_string(ps.auth_rejects) + " rejects, " +
           std::to_string(ps.rule_downloads) + " rule downloads, " +
           std::to_string(ps.rule_push_messages) + " rule pushes, " +
           std::to_string(ps.endpoint_change_signals) + " group-change signals\n";
  }

  if (options.include_mappings) {
    out += "mappings:\n";
    fabric.map_server().walk([&out](const net::VnEid& eid, const lisp::MappingRecord& record) {
      out += "  " + eid.to_string() + " -> " + record.primary_rloc().to_string();
      if (!record.group.is_unknown()) {
        out += ' ';
        out += record.group.to_string();
      }
      out += "\n";
    });
  }

  if (options.include_telemetry) {
    const telemetry::Snapshot snap = fabric.telemetry().metrics.snapshot();
    out += "telemetry: ";
    out += std::to_string(snap.counters.size());
    out += " counters, ";
    out += std::to_string(snap.gauges.size());
    out += " gauges, ";
    out += std::to_string(snap.histograms.size());
    out += " histograms\n";
    for (const auto& [name, value] : snap.counters) {
      if (value == 0) continue;  // idle counters are noise in a text report
      out += "  ";
      out += name;
      out += " = ";
      out += std::to_string(value);
      out += "\n";
    }
    for (const auto& [name, hist] : snap.histograms) {
      if (hist.total == 0) continue;
      out += "  ";
      out += name;
      out += ": n=";
      out += std::to_string(hist.total);
      out += " mean=";
      out += std::to_string(hist.mean());
      out += " p95=";
      out += std::to_string(hist.quantile(0.95));
      out += "\n";
    }
    const auto& recorder = fabric.telemetry().recorder;
    out += "flight recorder: ";
    out += std::to_string(recorder.recorded());
    out += " events (";
    out += std::to_string(recorder.overwritten());
    out += " overwritten), tail:\n";
    for (const auto& event : recorder.tail(options.telemetry_events)) {
      out += "  ";
      out += event.to_string();
      out += "\n";
    }
  }

  if (options.include_assurance) {
    telemetry::AssuranceEngine& assurance = fabric.telemetry().assurance;
    const auto verdicts = assurance.evaluate(fabric.telemetry().metrics.snapshot());
    out += "assurance: ";
    out += std::to_string(assurance.invariant_count());
    out += " invariants, ";
    out += std::to_string(assurance.slo_count());
    out += " SLOs, ";
    out += telemetry::AssuranceEngine::all_pass(verdicts) ? "all PASS" : "FAILURES";
    out += "\n";
    for (const auto& v : verdicts) {
      out += "  [";
      out += v.pass ? "PASS" : "FAIL";
      out += "] ";
      out += v.name;
      if (!v.detail.empty()) {
        out += ": ";
        out += v.detail;
      }
      out += "\n";
    }
    out += "causal traces: ";
    out += std::to_string(fabric.telemetry().causal.completed_count());
    out += " completed, ";
    out += std::to_string(fabric.telemetry().causal.open_count());
    out += " open, ";
    out += std::to_string(fabric.telemetry().causal.abandoned_count());
    out += " abandoned\n";
  }
  return out;
}

}  // namespace sda::fabric
