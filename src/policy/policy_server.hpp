// The SDA policy server.
//
// Holds the three operator-maintained tables of the paper (Table 2):
//   endpoint data   credential -> (VN, GroupId)
//   group rules     per-VN connectivity matrices
// and serves the onboarding flow: authenticate an endpoint (RADIUS-style),
// return its (VN, GroupId), and let the edge download the SGACL rules whose
// destination is that group (SXP-style distribution, §3.2.1 / §3.3.1).
//
// The server also tracks which edge routers host which destination groups
// so a rule change can be pushed to exactly the affected edges; the
// signaling counters feed the §5.4 policy-update ablation.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/ip_address.hpp"
#include "policy/matrix.hpp"
#include "policy/radius.hpp"

namespace sda::telemetry {
class MetricsRegistry;
}

namespace sda::policy {

/// An endpoint's policy-plane identity.
struct EndpointPolicy {
  net::VnId vn;
  net::GroupId group;
  friend bool operator==(const EndpointPolicy&, const EndpointPolicy&) = default;
};

class PolicyServer {
 public:
  /// Fired when an endpoint's group assignment changes (§5.3: egress
  /// enforcement keeps (IP, GroupId) fresh by re-triggering authentication
  /// at the endpoint's edge). Argument: credential, new policy.
  using EndpointChangedCallback =
      std::function<void(const std::string& credential, const EndpointPolicy&)>;

  /// Fired when matrix rules change, once per affected edge router RLOC
  /// with the rules it must (re)download.
  using RulesPushCallback =
      std::function<void(net::Ipv4Address edge_rloc, net::VnId vn, const std::vector<Rule>&)>;

  // --- Operator interface (the declarative northbound of Fig. 1) ---------

  /// Defines (or redefines) an endpoint: credential + secret -> (VN, group).
  void provision_endpoint(const std::string& credential, const std::string& secret,
                          EndpointPolicy policy);

  /// Removes an endpoint definition. True if it existed.
  bool deprovision_endpoint(const std::string& credential);

  /// Moves an endpoint to another group (the §5.4 "move users between
  /// groups" update strategy). Triggers the endpoint-changed callback.
  bool reassign_group(const std::string& credential, net::GroupId new_group);

  /// The per-VN connectivity matrix (created on first touch).
  [[nodiscard]] ConnectivityMatrix& matrix(net::VnId vn);

  /// Sets a matrix rule and pushes the delta to every edge router hosting
  /// the destination group (the §5.4 "update the ACLs" strategy).
  void update_rule(net::VnId vn, net::GroupId source, net::GroupId destination, Action action);

  // --- Edge-router interface ---------------------------------------------

  /// Authenticates an endpoint. On success returns its policy and records
  /// that `edge_rloc` now hosts the endpoint's group (for rule pushes).
  /// While the server is offline every attempt fails (counted separately
  /// from credential rejects).
  [[nodiscard]] std::optional<EndpointPolicy> authenticate(const AccessRequest& request,
                                                           net::Ipv4Address edge_rloc);

  /// Availability switch for fault injection: an offline policy server
  /// refuses authentications and rule downloads until it comes back.
  void set_online(bool online) { online_ = online; }
  [[nodiscard]] bool online() const { return online_; }

  /// The SGACL rules an edge must hold for a locally attached destination
  /// group (downloaded during onboarding, Fig. 3 step 2).
  [[nodiscard]] std::vector<Rule> download_rules(net::VnId vn, net::GroupId destination) const;

  /// Reports that `edge_rloc` no longer hosts any endpoint of `group`
  /// (last one left); stops rule pushes for it.
  void release_group(net::Ipv4Address edge_rloc, net::VnId vn, net::GroupId group);

  /// Records that `edge_rloc` now hosts `group` without a full
  /// authentication (group reassignment re-tags in place, §5.3/§5.4).
  void record_group_host(net::Ipv4Address edge_rloc, net::VnId vn, net::GroupId group);

  void set_endpoint_changed_callback(EndpointChangedCallback cb) {
    on_endpoint_changed_ = std::move(cb);
  }
  void set_rules_push_callback(RulesPushCallback cb) { on_rules_push_ = std::move(cb); }

  struct Stats {
    std::uint64_t auth_accepts = 0;
    std::uint64_t auth_rejects = 0;
    std::uint64_t auth_unavailable = 0;        // attempts while offline
    std::uint64_t rule_downloads = 0;
    std::uint64_t rule_push_messages = 0;      // rule-change fan-out count (§5.4)
    std::uint64_t endpoint_change_signals = 0; // group-move signal count (§5.4)
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  [[nodiscard]] std::size_t endpoint_count() const { return endpoints_.size(); }

  /// Registers pull probes for the stats fields and an endpoint-count gauge
  /// under `prefix` (e.g. "policy_server"). Probes capture `this`.
  void register_metrics(telemetry::MetricsRegistry& registry, const std::string& prefix) const;

 private:
  struct Credential {
    std::string secret;
    EndpointPolicy policy;
  };
  struct VnGroup {
    net::VnId vn;
    net::GroupId group;
    friend bool operator==(const VnGroup&, const VnGroup&) = default;
  };
  struct VnGroupHash {
    std::size_t operator()(const VnGroup& g) const noexcept {
      return (std::size_t{g.vn.value()} << 16) ^ g.group.value();
    }
  };

  std::unordered_map<std::string, Credential> endpoints_;
  std::map<net::VnId, ConnectivityMatrix> matrices_;
  // (vn, destination group) -> edges currently hosting that group.
  std::unordered_map<VnGroup, std::unordered_set<net::Ipv4Address>, VnGroupHash> group_hosts_;
  bool online_ = true;
  EndpointChangedCallback on_endpoint_changed_;
  RulesPushCallback on_rules_push_;
  mutable Stats stats_;  // counters tick inside const query paths too
};

}  // namespace sda::policy
