// Group-based ACL (SGACL): the second stage of the egress pipeline.
//
// An exact-match table on (source GroupId, destination GroupId) enforcing
// the connectivity matrix (paper Fig. 4): one flat, hash-tagged probe per
// verdict. Per-rule hit counters feed the Fig. 12 drop-rate analysis.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lisp/flat_index.hpp"
#include "net/eid.hpp"
#include "net/types.hpp"
#include "policy/matrix.hpp"

namespace sda::telemetry {
class MetricsRegistry;
}

namespace sda::dataplane {

/// What traffic gets when its destination group's rules have not been
/// provisioned yet (policy-server outage, download still in flight).
/// Open = fall through to the default action (availability over policy);
/// Closed = deny until the rules actually arrive (policy over availability).
enum class PolicyFailMode : std::uint8_t { Open, Closed };

/// The SGACL of one router. Rules are installed per destination group as
/// endpoints onboard (egress enforcement) or per source group (ingress
/// ablation); lookup falls back to the configured default action.
class Sgacl {
 public:
  explicit Sgacl(policy::Action default_action = policy::Action::Allow)
      : default_action_(default_action) {}

  /// Replaces all rules for `destination` with `rules` (the onboarding
  /// download / policy-push path).
  void install_destination_rules(net::VnId vn, net::GroupId destination,
                                 const std::vector<policy::Rule>& rules);

  /// Removes all rules whose destination is `destination` (last endpoint of
  /// that group detached).
  void remove_destination_rules(net::VnId vn, net::GroupId destination);

  /// Installs one rule directly (ingress ablation path).
  void install_rule(net::VnId vn, const policy::Rule& rule);

  /// Evaluates the pipeline stage and bumps counters. Unknown groups pass.
  /// Under PolicyFailMode::Closed, a miss for an unprovisioned destination
  /// group denies instead of falling through to the default action.
  [[nodiscard]] policy::Action evaluate(net::VnId vn, net::GroupId source,
                                        net::GroupId destination);

  /// Fail-open (default, legacy behavior) vs fail-closed for destination
  /// groups whose rules never downloaded. Only meaningful for egress
  /// enforcement, where install_destination_rules marks provisioning.
  void set_fail_mode(PolicyFailMode mode) { fail_mode_ = mode; }

  /// True once install_destination_rules has run for (vn, destination)
  /// and the rules have not been removed since.
  [[nodiscard]] bool provisioned(net::VnId vn, net::GroupId destination) const;

  [[nodiscard]] std::size_t rule_count() const { return rule_count_; }

  struct Counters {
    std::uint64_t permits = 0;
    std::uint64_t drops = 0;
    /// Subset of drops caused by fail-closed hitting an unprovisioned group.
    std::uint64_t fail_closed_drops = 0;
    [[nodiscard]] std::uint64_t total() const { return permits + drops; }
    /// Drops per thousand evaluations (Fig. 12's permille metric).
    [[nodiscard]] double drop_permille() const {
      return total() == 0 ? 0.0 : 1000.0 * static_cast<double>(drops) /
                                      static_cast<double>(total());
    }
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }
  void reset_counters() { counters_ = {}; }

  /// Registers pull probes for the counters and a rule-count gauge under
  /// `prefix` (e.g. "edge[3].sgacl"). Probes capture `this`.
  void register_metrics(telemetry::MetricsRegistry& registry, const std::string& prefix) const;

  void clear();

 private:
  /// One flat table holds both the rules and the provisioning marks: a rule
  /// is keyed (vn << 32 | source << 16 | destination); the mark that
  /// (vn, destination)'s download completed (even if the matrix row was
  /// empty), which tells "no rule matched" from "rules missing", is keyed
  /// kProvisionedMark | vn << 32 | destination.
  static constexpr std::uint64_t kProvisionedMark = std::uint64_t{1} << 63;
  [[nodiscard]] static std::uint64_t rule_key(net::VnId vn, net::GroupId source,
                                              net::GroupId destination) {
    return (std::uint64_t{vn.value()} << 32) | (std::uint64_t{source.value()} << 16) |
           destination.value();
  }
  [[nodiscard]] static std::uint64_t provisioned_key(net::VnId vn, net::GroupId destination) {
    return kProvisionedMark | rule_key(vn, net::GroupId::unknown(), destination);
  }
  struct KeyHash {
    std::size_t operator()(std::uint64_t key) const noexcept { return net::hash_mix(key); }
  };

  /// Sets the rule for `key`, adding it if absent.
  void set_rule(std::uint64_t key, policy::Action action);

  policy::Action default_action_;
  PolicyFailMode fail_mode_ = PolicyFailMode::Open;
  lisp::FlatMap<std::uint64_t, policy::Action, KeyHash> table_;
  std::size_t rule_count_ = 0;  // table_ entries that are rules, not marks
  Counters counters_;
};

}  // namespace sda::dataplane
