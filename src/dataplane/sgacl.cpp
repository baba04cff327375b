#include "dataplane/sgacl.hpp"

#include "telemetry/metrics.hpp"

namespace sda::dataplane {

void Sgacl::install_destination_rules(net::VnId vn, net::GroupId destination,
                                      const std::vector<policy::Rule>& rules) {
  remove_destination_rules(vn, destination);
  for (const auto& rule : rules) {
    set_rule(rule_key(vn, rule.pair.source, rule.pair.destination), rule.action);
  }
  table_.insert(provisioned_key(vn, destination), policy::Action::Allow);
}

void Sgacl::remove_destination_rules(net::VnId vn, net::GroupId destination) {
  // Rules and the provisioning mark share (vn, destination) bits; erased
  // slots are recycled, so a re-download of the same size allocates nothing.
  const std::uint64_t group = rule_key(vn, net::GroupId::unknown(), destination);
  constexpr std::uint64_t kGroupBits = (std::uint64_t{0xFFFFFF} << 32) | 0xFFFF;
  table_.erase_if([&](std::uint64_t key, policy::Action) {
    if ((key & kGroupBits) != group) return false;
    if ((key & kProvisionedMark) == 0) --rule_count_;
    return true;
  });
}

bool Sgacl::provisioned(net::VnId vn, net::GroupId destination) const {
  return table_.contains(provisioned_key(vn, destination));
}

void Sgacl::install_rule(net::VnId vn, const policy::Rule& rule) {
  set_rule(rule_key(vn, rule.pair.source, rule.pair.destination), rule.action);
}

void Sgacl::set_rule(std::uint64_t key, policy::Action action) {
  if (policy::Action* existing = table_.find(key)) {
    *existing = action;
    return;
  }
  table_.insert(key, action);
  ++rule_count_;
}

policy::Action Sgacl::evaluate(net::VnId vn, net::GroupId source, net::GroupId destination) {
  policy::Action action = default_action_;
  if (source.is_unknown() || destination.is_unknown()) {
    action = policy::Action::Allow;
  } else if (const policy::Action* rule = table_.find(rule_key(vn, source, destination))) {
    action = *rule;
  } else if (fail_mode_ == PolicyFailMode::Closed && !provisioned(vn, destination)) {
    // The destination group's rules never arrived (policy-server outage):
    // fail closed rather than apply a default the operator never chose.
    action = policy::Action::Deny;
    ++counters_.fail_closed_drops;
  }
  if (action == policy::Action::Allow) {
    ++counters_.permits;
  } else {
    ++counters_.drops;
  }
  return action;
}

void Sgacl::register_metrics(telemetry::MetricsRegistry& registry,
                             const std::string& prefix) const {
  registry.register_counter(telemetry::join(prefix, "permits"),
                            [this] { return counters_.permits; });
  registry.register_counter(telemetry::join(prefix, "drops"), [this] { return counters_.drops; });
  registry.register_counter(telemetry::join(prefix, "fail_closed_drops"),
                            [this] { return counters_.fail_closed_drops; });
  registry.register_gauge(telemetry::join(prefix, "rules"),
                          [this] { return static_cast<double>(rule_count()); });
}

void Sgacl::clear() {
  table_.clear();
  rule_count_ = 0;
}

}  // namespace sda::dataplane
