// Seeded determinism: two runs of the same scenario must produce
// bit-identical control-plane timelines. This is what makes every figure in
// the repo reproducible, and it pins the simulator's tie-break contract —
// the slot-recycling event loop must order same-timestamp events exactly
// like the original sequence-numbered heap did.
#include <gtest/gtest.h>

#include "determinism_scenario.hpp"

namespace sda::fabric {
namespace {

RunResult run_scenario(std::uint64_t seed) {
  RunResult result = run_determinism_scenario(determinism_config(seed));
  result.delivered = result.metrics.counters.at("edge[0].encapsulated");
  return result;
}

TEST(Determinism, IdenticalSeedsProduceIdenticalTimelines) {
  const RunResult first = run_scenario(0x5DA);
  const RunResult second = run_scenario(0x5DA);
  EXPECT_EQ(first.executed_events, second.executed_events);
  EXPECT_EQ(first.final_time, second.final_time);
  EXPECT_EQ(first.delivered, second.delivered);
  // The full flight-recorder stream — every event, timestamp, and detail
  // string — must match byte for byte.
  EXPECT_EQ(first.flight_log, second.flight_log);
}

TEST(Determinism, DifferentSeedsStillDeliverSameTraffic) {
  // Seeds change jitter, not semantics: the packet counts must agree even
  // when the interleavings differ.
  const RunResult first = run_scenario(1);
  const RunResult second = run_scenario(2);
  EXPECT_EQ(first.delivered, second.delivered);
}

}  // namespace
}  // namespace sda::fabric
