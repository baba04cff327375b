#include "dataplane/sgacl.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace sda::dataplane
