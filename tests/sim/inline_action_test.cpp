#include "sim/inline_action.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <utility>

namespace sda::sim {
namespace {

TEST(InlineAction, EmptyIsFalsy) {
  InlineAction action;
  EXPECT_FALSE(action);
  EXPECT_FALSE(action.heap_allocated());
}

TEST(InlineAction, SmallCaptureStaysInline) {
  int hits = 0;
  InlineAction action{[&hits] { ++hits; }};
  ASSERT_TRUE(action);
  EXPECT_FALSE(action.heap_allocated());
  action();
  action();
  EXPECT_EQ(hits, 2);
}

TEST(InlineAction, CaptureAtTheBudgetStaysInline) {
  // Exactly kInlineSize bytes of capture must not spill.
  std::array<std::uint8_t, InlineAction::kInlineSize> payload{};
  payload[0] = 7;
  static_assert(InlineAction::fits_inline<decltype([payload] { (void)payload; })>);
  InlineAction action{[payload] { (void)payload; }};
  EXPECT_FALSE(action.heap_allocated());
  action();
}

TEST(InlineAction, OversizedCaptureSpillsToHeapAndStillRuns) {
  std::array<std::uint8_t, 128> payload{};
  payload[127] = 42;
  int seen = 0;
  auto big = [payload, &seen] { seen = payload[127]; };
  static_assert(!InlineAction::fits_inline<decltype(big)>);
  InlineAction action{std::move(big)};
  EXPECT_TRUE(action.heap_allocated());
  action();
  EXPECT_EQ(seen, 42);
}

TEST(InlineAction, MoveTransfersInlineCallable) {
  int hits = 0;
  InlineAction source{[&hits] { ++hits; }};
  InlineAction target{std::move(source)};
  EXPECT_FALSE(source);  // NOLINT(bugprone-use-after-move): post-move state is specified
  ASSERT_TRUE(target);
  target();
  EXPECT_EQ(hits, 1);
}

TEST(InlineAction, MoveStealsHeapCallable) {
  std::array<std::uint8_t, 128> payload{};
  int hits = 0;
  InlineAction source{[payload, &hits] { ++hits; (void)payload; }};
  InlineAction target{std::move(source)};
  EXPECT_FALSE(source);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(target.heap_allocated());
  target();
  EXPECT_EQ(hits, 1);
}

TEST(InlineAction, MoveAssignDestroysPreviousCallable) {
  const auto tracker = std::make_shared<int>(0);
  InlineAction holder{[tracker] { (void)tracker; }};
  EXPECT_EQ(tracker.use_count(), 2);
  holder = InlineAction{[] {}};
  EXPECT_EQ(tracker.use_count(), 1);  // old capture destroyed exactly once
  holder();
}

TEST(InlineAction, DestructorReleasesCapture) {
  const auto tracker = std::make_shared<int>(0);
  {
    InlineAction action{[tracker] { (void)tracker; }};
    EXPECT_EQ(tracker.use_count(), 2);
  }
  EXPECT_EQ(tracker.use_count(), 1);
}

TEST(InlineAction, ResetEmptiesWithoutInvoking) {
  const auto tracker = std::make_shared<int>(0);
  InlineAction action{[tracker] { ++*tracker; }};
  action.reset();
  EXPECT_FALSE(action);
  EXPECT_EQ(*tracker, 0);
  EXPECT_EQ(tracker.use_count(), 1);
}

TEST(InlineAction, MovedThroughChainInvokesOnce) {
  int hits = 0;
  InlineAction a{[&hits] { ++hits; }};
  InlineAction b{std::move(a)};
  InlineAction c;
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 1);
}

// A trivially copyable capture moves as a byte copy: every byte of a
// budget-sized capture must survive a chain of moves, and a trivial action
// moved over a non-trivial one must still destroy the one it replaces.
TEST(InlineAction, TriviallyCopyableCaptureSurvivesMoves) {
  const std::array<std::uint64_t, 5> words{1, 2, 3, 4, 5};
  std::uint64_t sum = 0;
  std::uint64_t* out = &sum;
  auto add = [words, out] {
    for (const std::uint64_t w : words) *out += w;
  };
  static_assert(sizeof(add) == InlineAction::kInlineSize);
  InlineAction a{add};
  InlineAction b{std::move(a)};
  const auto tracker = std::make_shared<int>(0);
  InlineAction c{[tracker] { (void)tracker; }};
  c = std::move(b);
  EXPECT_EQ(tracker.use_count(), 1);
  EXPECT_FALSE(c.heap_allocated());
  c();
  EXPECT_EQ(sum, 15u);
}

}  // namespace
}  // namespace sda::sim
