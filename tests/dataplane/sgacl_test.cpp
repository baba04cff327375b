#include "dataplane/sgacl.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/random.hpp"

namespace sda::dataplane {
namespace {

using net::GroupId;
using net::VnId;
using policy::Action;
using policy::Rule;

Rule rule(std::uint16_t src, std::uint16_t dst, Action action) {
  return Rule{{GroupId{src}, GroupId{dst}}, action};
}

TEST(Sgacl, DefaultActionWhenNoRule) {
  Sgacl allow{Action::Allow};
  EXPECT_EQ(allow.evaluate(VnId{1}, GroupId{1}, GroupId{2}), Action::Allow);
  Sgacl deny{Action::Deny};
  EXPECT_EQ(deny.evaluate(VnId{1}, GroupId{1}, GroupId{2}), Action::Deny);
}

TEST(Sgacl, ExactMatchRuleApplies) {
  Sgacl sgacl{Action::Allow};
  sgacl.install_destination_rules(VnId{1}, GroupId{9},
                                  {rule(1, 9, Action::Deny), rule(2, 9, Action::Allow)});
  EXPECT_EQ(sgacl.evaluate(VnId{1}, GroupId{1}, GroupId{9}), Action::Deny);
  EXPECT_EQ(sgacl.evaluate(VnId{1}, GroupId{2}, GroupId{9}), Action::Allow);
  EXPECT_EQ(sgacl.evaluate(VnId{1}, GroupId{3}, GroupId{9}), Action::Allow);  // default
  EXPECT_EQ(sgacl.rule_count(), 2u);
}

TEST(Sgacl, VnScopesRules) {
  Sgacl sgacl{Action::Allow};
  sgacl.install_destination_rules(VnId{1}, GroupId{9}, {rule(1, 9, Action::Deny)});
  EXPECT_EQ(sgacl.evaluate(VnId{2}, GroupId{1}, GroupId{9}), Action::Allow);
}

TEST(Sgacl, UnknownGroupsAlwaysPass) {
  Sgacl sgacl{Action::Deny};
  EXPECT_EQ(sgacl.evaluate(VnId{1}, GroupId::unknown(), GroupId{9}), Action::Allow);
  EXPECT_EQ(sgacl.evaluate(VnId{1}, GroupId{9}, GroupId::unknown()), Action::Allow);
}

TEST(Sgacl, InstallReplacesDestinationRuleSet) {
  Sgacl sgacl{Action::Allow};
  sgacl.install_destination_rules(VnId{1}, GroupId{9},
                                  {rule(1, 9, Action::Deny), rule(2, 9, Action::Deny)});
  sgacl.install_destination_rules(VnId{1}, GroupId{9}, {rule(3, 9, Action::Deny)});
  EXPECT_EQ(sgacl.rule_count(), 1u);
  EXPECT_EQ(sgacl.evaluate(VnId{1}, GroupId{1}, GroupId{9}), Action::Allow);
  EXPECT_EQ(sgacl.evaluate(VnId{1}, GroupId{3}, GroupId{9}), Action::Deny);
}

TEST(Sgacl, RemoveDestinationRules) {
  Sgacl sgacl{Action::Allow};
  sgacl.install_destination_rules(VnId{1}, GroupId{9}, {rule(1, 9, Action::Deny)});
  sgacl.install_destination_rules(VnId{1}, GroupId{8}, {rule(1, 8, Action::Deny)});
  sgacl.remove_destination_rules(VnId{1}, GroupId{9});
  EXPECT_EQ(sgacl.rule_count(), 1u);
  EXPECT_EQ(sgacl.evaluate(VnId{1}, GroupId{1}, GroupId{9}), Action::Allow);
  EXPECT_EQ(sgacl.evaluate(VnId{1}, GroupId{1}, GroupId{8}), Action::Deny);
}

TEST(Sgacl, CountersTrackPermitsAndDrops) {
  Sgacl sgacl{Action::Allow};
  sgacl.install_destination_rules(VnId{1}, GroupId{9}, {rule(1, 9, Action::Deny)});
  (void)sgacl.evaluate(VnId{1}, GroupId{1}, GroupId{9});  // drop
  (void)sgacl.evaluate(VnId{1}, GroupId{2}, GroupId{9});  // permit
  (void)sgacl.evaluate(VnId{1}, GroupId{2}, GroupId{9});  // permit
  EXPECT_EQ(sgacl.counters().drops, 1u);
  EXPECT_EQ(sgacl.counters().permits, 2u);
  EXPECT_EQ(sgacl.counters().total(), 3u);
  EXPECT_NEAR(sgacl.counters().drop_permille(), 333.3, 0.1);
  sgacl.reset_counters();
  EXPECT_EQ(sgacl.counters().total(), 0u);
  EXPECT_DOUBLE_EQ(sgacl.counters().drop_permille(), 0.0);
}

// Property: with every destination's rule set installed, the SGACL must
// produce exactly the connectivity matrix's verdict for every group pair —
// the egress pipeline is a faithful compilation of operator intent.
struct SgaclMatrixCase {
  std::uint64_t seed;
  unsigned groups;
  double deny_probability;
};

// Test names carry this printout; gtest's default dumps the raw bytes,
// padding included, which differ from one test discovery to the next.
void PrintTo(const SgaclMatrixCase& c, std::ostream* os) {
  *os << "seed" << c.seed << "_groups" << c.groups;
}

class SgaclMatrixEquivalence : public ::testing::TestWithParam<SgaclMatrixCase> {};

TEST_P(SgaclMatrixEquivalence, MatchesMatrixVerdicts) {
  const auto param = GetParam();
  sim::Rng rng{param.seed};
  policy::ConnectivityMatrix matrix{Action::Allow};
  for (std::uint16_t s = 1; s <= param.groups; ++s) {
    for (std::uint16_t d = 1; d <= param.groups; ++d) {
      if (rng.chance(param.deny_probability)) {
        matrix.set_rule(GroupId{s}, GroupId{d}, Action::Deny);
      } else if (rng.chance(0.1)) {
        matrix.set_rule(GroupId{s}, GroupId{d}, Action::Allow);  // explicit allow
      }
    }
  }

  Sgacl sgacl{matrix.default_action()};
  for (std::uint16_t d = 1; d <= param.groups; ++d) {
    sgacl.install_destination_rules(VnId{1}, GroupId{d},
                                    matrix.rules_for_destination(GroupId{d}));
  }

  for (std::uint16_t s = 0; s <= param.groups; ++s) {
    for (std::uint16_t d = 0; d <= param.groups; ++d) {
      EXPECT_EQ(sgacl.evaluate(VnId{1}, GroupId{s}, GroupId{d}),
                matrix.lookup(GroupId{s}, GroupId{d}))
          << "pair (" << s << ", " << d << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomMatrices, SgaclMatrixEquivalence,
                         ::testing::Values(SgaclMatrixCase{1, 8, 0.2},
                                           SgaclMatrixCase{2, 16, 0.4},
                                           SgaclMatrixCase{3, 32, 0.1},
                                           SgaclMatrixCase{4, 32, 0.8}));

TEST(Sgacl, ClearRemovesAllRules) {
  Sgacl sgacl{Action::Allow};
  sgacl.install_rule(VnId{1}, rule(1, 9, Action::Deny));
  sgacl.clear();
  EXPECT_EQ(sgacl.rule_count(), 0u);
  EXPECT_EQ(sgacl.evaluate(VnId{1}, GroupId{1}, GroupId{9}), Action::Allow);
}

// Random rule downloads, removals, ingress-ablation installs and verdicts
// against a std::map model, in both fail modes: verdicts, provisioning,
// rule counts and counters must match after every operation.
void run_sgacl_model(std::uint64_t seed, PolicyFailMode mode) {
  sim::Rng rng{seed};
  const Action default_action = rng.chance(0.5) ? Action::Allow : Action::Deny;
  Sgacl sgacl{default_action};
  sgacl.set_fail_mode(mode);

  using RuleKey = std::tuple<std::uint32_t, std::uint16_t, std::uint16_t>;  // vn, src, dst
  std::map<RuleKey, Action> rules;
  std::set<std::pair<std::uint32_t, std::uint16_t>> provisioned;  // vn, dst
  Sgacl::Counters counters;

  const auto random_vn = [&] { return static_cast<std::uint32_t>(1 + rng.next_below(2)); };
  const auto random_group = [&] { return static_cast<std::uint16_t>(rng.next_below(6)); };
  const auto random_action = [&] { return rng.chance(0.5) ? Action::Allow : Action::Deny; };
  const auto drop_destination = [&](std::uint32_t vn, std::uint16_t dst) {
    std::erase_if(rules, [&](const auto& entry) {
      return std::get<0>(entry.first) == vn && std::get<2>(entry.first) == dst;
    });
    provisioned.erase({vn, dst});
  };

  for (int op = 0; op < 3000; ++op) {
    const std::uint32_t vn = random_vn();
    const std::uint16_t dst = random_group();
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 20) {
      // A download: mostly the destination's own rules, sometimes a rule
      // for another destination riding along (keyed by its own pair).
      std::vector<Rule> download;
      const std::uint64_t n = rng.next_below(5);
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint16_t rule_dst = rng.chance(0.9) ? dst : random_group();
        download.push_back(rule(random_group(), rule_dst, random_action()));
      }
      sgacl.install_destination_rules(VnId{vn}, GroupId{dst}, download);
      drop_destination(vn, dst);
      for (const Rule& r : download) {
        rules[{vn, r.pair.source.value(), r.pair.destination.value()}] = r.action;
      }
      provisioned.insert({vn, dst});
    } else if (roll < 30) {
      sgacl.remove_destination_rules(VnId{vn}, GroupId{dst});
      drop_destination(vn, dst);
    } else if (roll < 40) {
      const Rule r = rule(random_group(), dst, random_action());
      sgacl.install_rule(VnId{vn}, r);
      rules[{vn, r.pair.source.value(), dst}] = r.action;
    } else {
      const std::uint16_t src = random_group();
      Action expected = default_action;
      if (src == 0 || dst == 0) {
        expected = Action::Allow;
      } else if (const auto it = rules.find({vn, src, dst}); it != rules.end()) {
        expected = it->second;
      } else if (mode == PolicyFailMode::Closed && !provisioned.contains({vn, dst})) {
        expected = Action::Deny;
        ++counters.fail_closed_drops;
      }
      ++(expected == Action::Allow ? counters.permits : counters.drops);
      ASSERT_EQ(sgacl.evaluate(VnId{vn}, GroupId{src}, GroupId{dst}), expected) << "op " << op;
    }
    ASSERT_EQ(sgacl.rule_count(), rules.size()) << "op " << op;
    ASSERT_EQ(sgacl.counters().permits, counters.permits);
    ASSERT_EQ(sgacl.counters().drops, counters.drops);
    ASSERT_EQ(sgacl.counters().fail_closed_drops, counters.fail_closed_drops);
    if (op % 50 == 0) {
      for (std::uint32_t v = 1; v <= 2; ++v) {
        for (std::uint16_t d = 0; d < 6; ++d) {
          ASSERT_EQ(sgacl.provisioned(VnId{v}, GroupId{d}), provisioned.contains({v, d}))
              << "op " << op << " vn " << v << " dst " << d;
        }
      }
    }
  }
}

TEST(Sgacl, MatchesModelFailOpen) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_sgacl_model(seed, PolicyFailMode::Open);
    if (HasFatalFailure()) return;
  }
}

TEST(Sgacl, MatchesModelFailClosed) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_sgacl_model(seed, PolicyFailMode::Closed);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace sda::dataplane
