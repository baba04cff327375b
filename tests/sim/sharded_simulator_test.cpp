#include "sim/sharded.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <vector>

namespace sda::sim {
namespace {

using std::chrono::microseconds;

SimTime at_us(std::int64_t us) { return SimTime{} + microseconds{us}; }

TEST(ShardedSimulatorTest, SingleShardDelegatesToInnerSimulator) {
  ShardedSimulator core(ShardedConfig{.shards = 1, .workers = 4});
  EXPECT_EQ(core.shard_count(), 1u);
  EXPECT_EQ(core.worker_count(), 1u);  // clamped to shard count
  int runs = 0;
  core.post(0, 0, at_us(10), [&runs] { ++runs; });
  core.shard(0).schedule_at(at_us(5), [&runs] { ++runs; });
  EXPECT_EQ(core.run(), 2u);
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(core.now(), at_us(10));
  EXPECT_EQ(core.cross_posts(), 0u);
  EXPECT_EQ(core.windows(), 0u);  // no windowing on the fast path
}

TEST(ShardedSimulatorTest, CrossShardPostArrivesAtItsTimestamp) {
  ShardedSimulator core(
      ShardedConfig{.shards = 2, .workers = 1, .lookahead = microseconds{100}});
  std::vector<std::int64_t> seen;
  core.shard(0).schedule_at(at_us(10), [&core, &seen] {
    seen.push_back(core.shard(0).now().since_start().count());
    core.post(0, 1, core.shard(0).now() + microseconds{150}, [&core, &seen] {
      seen.push_back(core.shard(1).now().since_start().count());
    });
  });
  core.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 10'000);   // 10 us, in ns
  EXPECT_EQ(seen[1], 160'000);  // sent at 10 us + 150 us delay
  EXPECT_EQ(core.cross_posts(), 1u);
  EXPECT_EQ(core.late_posts(), 0u);
  EXPECT_GE(core.windows(), 1u);
}

TEST(ShardedSimulatorTest, RunUntilAdvancesAllShardClocks) {
  ShardedSimulator core(
      ShardedConfig{.shards = 2, .workers = 1, .lookahead = microseconds{100}});
  int runs = 0;
  core.shard(0).schedule_at(at_us(50), [&runs] { ++runs; });
  core.shard(1).schedule_at(at_us(500), [&runs] { ++runs; });
  EXPECT_EQ(core.run_until(at_us(200)), 1u);
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(core.now(), at_us(200));
  EXPECT_EQ(core.shard(0).now(), at_us(200));
  EXPECT_EQ(core.shard(1).now(), at_us(200));
  // The later event is still pending and runs on the next call.
  EXPECT_EQ(core.run_until(at_us(1000)), 1u);
  EXPECT_EQ(runs, 2);
}

TEST(ShardedSimulatorTest, PingPongAcrossShardsDrainsCompletely) {
  ShardedSimulator core(
      ShardedConfig{.shards = 2, .workers = 2, .lookahead = microseconds{10}});
  std::uint64_t bounces = 0;
  // A self-sustaining ping-pong: each arrival re-posts to the other shard
  // lookahead later, for a fixed number of bounces.
  struct Bouncer {
    ShardedSimulator* core;
    std::uint64_t* bounces;
    void operator()(std::size_t me, std::uint32_t remaining) const {
      ++*bounces;
      if (remaining == 0) return;
      const std::size_t other = 1 - me;
      auto self = *this;
      core->post(me, other, core->shard(me).now() + microseconds{10},
                 [self, other, remaining] { self(other, remaining - 1); });
    }
  };
  Bouncer bouncer{&core, &bounces};
  core.shard(0).schedule_at(at_us(1), [bouncer] { bouncer(0, 100); });
  core.run();
  EXPECT_EQ(bounces, 101u);
  EXPECT_EQ(core.cross_posts(), 100u);
  EXPECT_EQ(core.late_posts(), 0u);
}

TEST(ShardedSimulatorTest, RingOverflowSpillsLosslessly) {
  // Ring capacity 2 (the minimum); a burst of 100 cross posts in one event
  // must all arrive via the overflow spill, in timestamp/seq order.
  ShardedSimulator core(ShardedConfig{
      .shards = 2, .workers = 1, .lookahead = microseconds{10}, .ring_capacity = 2});
  std::vector<int> order;
  core.shard(0).schedule_at(at_us(1), [&core, &order] {
    for (int i = 0; i < 100; ++i) {
      core.post(0, 1, core.shard(0).now() + microseconds{10},
                [&order, i] { order.push_back(i); });
    }
  });
  core.run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  EXPECT_GT(core.overflow_posts(), 0u);
  EXPECT_EQ(core.late_posts(), 0u);
}

TEST(ShardedSimulatorTest, MergeOrderIsDeterministicAcrossWorkerCounts) {
  // Many shards posting into shard 0 with colliding timestamps: the
  // arrival order at shard 0 must be identical for any worker count.
  auto run_one = [](std::size_t workers) {
    ShardedSimulator core(ShardedConfig{
        .shards = 4, .workers = workers, .lookahead = microseconds{50}});
    std::vector<std::uint64_t> arrivals;
    for (std::size_t s = 1; s < 4; ++s) {
      core.shard(s).schedule_at(at_us(static_cast<std::int64_t>(s)),
                                [&core, &arrivals, s] {
                                  for (std::uint64_t k = 0; k < 8; ++k) {
                                    core.post(s, 0, at_us(200),
                                              [&arrivals, s, k] {
                                                arrivals.push_back(s * 100 + k);
                                              });
                                  }
                                });
    }
    core.run();
    return arrivals;
  };
  const auto w1 = run_one(1);
  const auto w2 = run_one(2);
  const auto w4 = run_one(4);
  ASSERT_EQ(w1.size(), 24u);
  EXPECT_EQ(w1, w2);
  EXPECT_EQ(w1, w4);
  // And the order itself is (when, from-shard, seq): shard 1's posts first.
  EXPECT_EQ(w1.front(), 100u);
  EXPECT_EQ(w1.back(), 307u);
}

TEST(ShardedSimulatorTest, LatePostIsClampedAndCounted) {
  ShardedSimulator core(
      ShardedConfig{.shards = 2, .workers = 1, .lookahead = microseconds{100}});
  // Violate the lookahead contract on purpose: post below target now().
  bool ran = false;
  core.shard(0).schedule_at(at_us(10), [&core, &ran] {
    core.post(0, 1, at_us(0), [&ran] { ran = true; });
  });
  core.shard(1).schedule_at(at_us(500), [] {});  // keeps shard 1's clock ahead
  core.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(core.late_posts(), 1u);
}

TEST(ShardedSimulatorTest, ExecutedEventsSumsAcrossShards) {
  ShardedSimulator core(
      ShardedConfig{.shards = 3, .workers = 3, .lookahead = microseconds{10}});
  for (std::size_t s = 0; s < 3; ++s) {
    for (int i = 0; i < 5; ++i) {
      core.shard(s).schedule_at(at_us(i + 1), [] {});
    }
  }
  EXPECT_EQ(core.run(), 15u);
  EXPECT_EQ(core.executed_events(), 15u);
}

}  // namespace
}  // namespace sda::sim
