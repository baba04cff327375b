#include "policy/policy_server.hpp"
#include "telemetry/metrics.hpp"


namespace sda::policy {

void PolicyServer::provision_endpoint(const std::string& credential, const std::string& secret,
                                      EndpointPolicy policy) {
  endpoints_[credential] = Credential{secret, policy};
}

bool PolicyServer::deprovision_endpoint(const std::string& credential) {
  return endpoints_.erase(credential) > 0;
}

bool PolicyServer::reassign_group(const std::string& credential, net::GroupId new_group) {
  const auto it = endpoints_.find(credential);
  if (it == endpoints_.end()) return false;
  if (it->second.policy.group == new_group) return false;
  it->second.policy.group = new_group;
  ++stats_.endpoint_change_signals;  // one CoA-style signal to the hosting edge
  if (on_endpoint_changed_) on_endpoint_changed_(credential, it->second.policy);
  return true;
}

ConnectivityMatrix& PolicyServer::matrix(net::VnId vn) { return matrices_[vn]; }

void PolicyServer::update_rule(net::VnId vn, net::GroupId source, net::GroupId destination,
                               Action action) {
  if (!matrices_[vn].set_rule(source, destination, action)) return;
  // Push the refreshed destination-group rule set to each hosting edge.
  const auto it = group_hosts_.find(VnGroup{vn, destination});
  if (it == group_hosts_.end() || !on_rules_push_) {
    if (it != group_hosts_.end()) stats_.rule_push_messages += it->second.size();
    return;
  }
  const std::vector<Rule> rules = matrices_[vn].rules_for_destination(destination);
  for (const net::Ipv4Address edge : it->second) {
    ++stats_.rule_push_messages;
    on_rules_push_(edge, vn, rules);
  }
}

std::optional<EndpointPolicy> PolicyServer::authenticate(const AccessRequest& request,
                                                         net::Ipv4Address edge_rloc) {
  if (!online_) {
    ++stats_.auth_unavailable;
    return std::nullopt;
  }
  const auto it = endpoints_.find(request.credential);
  if (it == endpoints_.end() || it->second.secret != request.secret) {
    ++stats_.auth_rejects;
    return std::nullopt;
  }
  ++stats_.auth_accepts;
  const EndpointPolicy& policy = it->second.policy;
  group_hosts_[VnGroup{policy.vn, policy.group}].insert(edge_rloc);
  return policy;
}

std::vector<Rule> PolicyServer::download_rules(net::VnId vn, net::GroupId destination) const {
  ++stats_.rule_downloads;
  const auto it = matrices_.find(vn);
  if (it == matrices_.end()) return {};
  return it->second.rules_for_destination(destination);
}

void PolicyServer::record_group_host(net::Ipv4Address edge_rloc, net::VnId vn,
                                     net::GroupId group) {
  group_hosts_[VnGroup{vn, group}].insert(edge_rloc);
}

void PolicyServer::release_group(net::Ipv4Address edge_rloc, net::VnId vn, net::GroupId group) {
  const auto it = group_hosts_.find(VnGroup{vn, group});
  if (it == group_hosts_.end()) return;
  it->second.erase(edge_rloc);
  if (it->second.empty()) group_hosts_.erase(it);
}

void PolicyServer::register_metrics(telemetry::MetricsRegistry& registry,
                                    const std::string& prefix) const {
  registry.register_counter(telemetry::join(prefix, "auth_accepts"),
                            [this] { return stats_.auth_accepts; });
  registry.register_counter(telemetry::join(prefix, "auth_rejects"),
                            [this] { return stats_.auth_rejects; });
  registry.register_counter(telemetry::join(prefix, "auth_unavailable"),
                            [this] { return stats_.auth_unavailable; });
  registry.register_gauge(telemetry::join(prefix, "online"),
                          [this] { return online_ ? 1.0 : 0.0; });
  registry.register_counter(telemetry::join(prefix, "rule_downloads"),
                            [this] { return stats_.rule_downloads; });
  registry.register_counter(telemetry::join(prefix, "rule_push_messages"),
                            [this] { return stats_.rule_push_messages; });
  registry.register_counter(telemetry::join(prefix, "endpoint_change_signals"),
                            [this] { return stats_.endpoint_change_signals; });
  registry.register_gauge(telemetry::join(prefix, "endpoints"),
                          [this] { return static_cast<double>(endpoint_count()); });
}

}  // namespace sda::policy
