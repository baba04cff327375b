#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "sim/random.hpp"

namespace sda::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), SimTime::zero());
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime{Duration{300}}, [&] { order.push_back(3); });
  sim.schedule_at(SimTime{Duration{100}}, [&] { order.push_back(1); });
  sim.schedule_at(SimTime{Duration{200}}, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime{Duration{300}});
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(SimTime{Duration{50}}, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleAfterIsRelativeToNow) {
  Simulator sim;
  SimTime inner_seen;
  sim.schedule_at(SimTime{Duration{1000}}, [&] {
    sim.schedule_after(Duration{500}, [&] { inner_seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(inner_seen, SimTime{Duration{1500}});
}

TEST(Simulator, SchedulingIntoThePastClampsToNow) {
  Simulator sim;
  SimTime seen;
  sim.schedule_at(SimTime{Duration{1000}}, [&] {
    sim.schedule_at(SimTime{Duration{10}}, [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, SimTime{Duration{1000}});
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventHandle handle = sim.schedule_at(SimTime{Duration{100}}, [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(handle));
  EXPECT_FALSE(sim.cancel(handle));  // second cancel is a no-op
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelDefaultHandleIsNoop) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(EventHandle{}));
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime{Duration{100}}, [&] { order.push_back(1); });
  sim.schedule_at(SimTime{Duration{200}}, [&] { order.push_back(2); });
  sim.schedule_at(SimTime{Duration{201}}, [&] { order.push_back(3); });
  sim.run_until(SimTime{Duration{200}});
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), SimTime{Duration{200}});
  sim.run();
  EXPECT_EQ(order.size(), 3u);
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator sim;
  sim.run_until(SimTime{Duration{5000}});
  EXPECT_EQ(sim.now(), SimTime{Duration{5000}});
}

TEST(Simulator, StepExecutesExactlyOne) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(SimTime{Duration{1}}, [&] { ++count; });
  sim.schedule_at(SimTime{Duration{2}}, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(count, 2);
}

TEST(Simulator, EventsScheduledDuringRunAreExecuted) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) sim.schedule_after(Duration{10}, recurse);
  };
  sim.schedule_after(Duration{10}, recurse);
  const std::size_t executed = sim.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(executed, 10u);
}

TEST(Simulator, ExecutedCounterTracks) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_after(Duration{i}, [] {});
  sim.run();
  EXPECT_EQ(sim.executed_events(), 7u);
}

TEST(Simulator, CancelledEventsDontAdvanceClock) {
  Simulator sim;
  const auto h = sim.schedule_at(SimTime{Duration{10'000}}, [] {});
  sim.schedule_at(SimTime{Duration{5}}, [] {});
  sim.cancel(h);
  sim.run();
  EXPECT_EQ(sim.now(), SimTime{Duration{5}});
}

TEST(Simulator, CancelFromInsideAnEvent) {
  Simulator sim;
  bool second_ran = false;
  EventHandle second;
  sim.schedule_at(SimTime{Duration{10}}, [&] { EXPECT_TRUE(sim.cancel(second)); });
  second = sim.schedule_at(SimTime{Duration{20}}, [&] { second_ran = true; });
  sim.run();
  EXPECT_FALSE(second_ran);
}

TEST(Simulator, CancelSameTimeLaterEvent) {
  // Cancelling an event scheduled at the *same* timestamp as the currently
  // executing one must still work (insertion order breaks the tie).
  Simulator sim;
  int ran = 0;
  EventHandle peer;
  sim.schedule_at(SimTime{Duration{10}}, [&] {
    ++ran;
    sim.cancel(peer);
  });
  peer = sim.schedule_at(SimTime{Duration{10}}, [&] { ++ran; });
  sim.run();
  EXPECT_EQ(ran, 1);
}

TEST(Simulator, ManyCancellationsStayConsistent) {
  Simulator sim;
  int ran = 0;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 1000; ++i) {
    handles.push_back(sim.schedule_at(SimTime{Duration{i}}, [&] { ++ran; }));
  }
  for (int i = 0; i < 1000; i += 2) sim.cancel(handles[static_cast<std::size_t>(i)]);
  sim.run();
  EXPECT_EQ(ran, 500);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, CancelAfterExecutionIsRejected) {
  // A handle whose event already ran must not be cancellable: accepting it
  // used to corrupt the cancelled-event bookkeeping and underflow
  // pending_events() on later runs.
  Simulator sim;
  const EventHandle ran = sim.schedule_at(SimTime{Duration{10}}, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(ran));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, PendingEventsAccurateAcrossCancelRunCancel) {
  Simulator sim;
  const EventHandle first = sim.schedule_at(SimTime{Duration{10}}, [] {});
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_FALSE(sim.cancel(first));  // already executed
  EXPECT_EQ(sim.pending_events(), 0u);

  const EventHandle second = sim.schedule_at(SimTime{Duration{20}}, [] {});
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_TRUE(sim.cancel(second));
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_FALSE(sim.cancel(second));  // double cancel stays a no-op
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, CancelExecutedHandleDoesNotEatPendingEvents) {
  // Regression: cancel(executed-handle) + a live queue entry used to make
  // pending_events() report one less than reality.
  Simulator sim;
  const EventHandle done = sim.schedule_at(SimTime{Duration{1}}, [] {});
  sim.run();
  bool ran = false;
  sim.schedule_at(SimTime{Duration{2}}, [&] { ran = true; });
  EXPECT_FALSE(sim.cancel(done));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(Simulator, StaleHandleAfterSlotReuseIsRejected) {
  // The executed event's slot is recycled for the next schedule; the old
  // handle must not be able to cancel the slot's new occupant (generation
  // stamps tell them apart).
  Simulator sim;
  const EventHandle first = sim.schedule_at(SimTime{Duration{10}}, [] {});
  sim.run();
  bool ran = false;
  sim.schedule_at(SimTime{Duration{20}}, [&] { ran = true; });  // reuses the slot
  EXPECT_FALSE(sim.cancel(first));
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(Simulator, CancelledSlotReuseKeepsNewEventLive) {
  // Same as above but the slot is freed by cancel() rather than execution,
  // and the stale queue entry is still in the heap when the slot is reused.
  Simulator sim;
  bool first_ran = false;
  bool second_ran = false;
  const EventHandle first = sim.schedule_at(SimTime{Duration{10}}, [&] { first_ran = true; });
  EXPECT_TRUE(sim.cancel(first));
  const EventHandle second = sim.schedule_at(SimTime{Duration{10}}, [&] { second_ran = true; });
  EXPECT_FALSE(sim.cancel(first));  // stale generation on the recycled slot
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_FALSE(first_ran);
  EXPECT_TRUE(second_ran);
  EXPECT_FALSE(sim.cancel(second));  // executed
}

TEST(Simulator, ManyRecyclesKeepStaleHandlesInert) {
  Simulator sim;
  std::vector<EventHandle> stale;
  int ran = 0;
  for (int round = 0; round < 100; ++round) {
    stale.push_back(sim.schedule_at(SimTime{Duration{round}}, [&] { ++ran; }));
    sim.run();
  }
  EXPECT_EQ(ran, 100);
  bool live_ran = false;
  sim.schedule_at(SimTime{Duration{1000}}, [&] { live_ran = true; });
  for (const EventHandle& h : stale) EXPECT_FALSE(sim.cancel(h));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_TRUE(live_ran);
}

// Random schedule / cancel / step / run_until traffic against a reference
// model: the pending events as an ordered set of (when, sequence). Besides
// short events, the traffic arms far-off timers and mostly cancels them
// soon after, oldest first, as Map-Request replies cancel their retransmit
// timers. A self-rescheduling ticker keeps an earlier event pending at all
// times, as a workload's traffic does, so the cancelled timers' tombstones
// never reach the queue's head and pile up unless cancel() sweeps them.
class ModelRun {
 public:
  explicit ModelRun(std::uint64_t seed) : rng_(seed) { ticker_ = schedule(Duration{1}); }

  void run(int operations) {
    for (int op = 0; op < operations; ++op) {
      const double pick = rng_.uniform();
      if (pick < 0.30) {
        schedule(Duration{rng_.uniform_int(0, 50)});
      } else if (pick < 0.50) {
        armed_.push_back(schedule(Duration{1'000'000 + rng_.uniform_int(0, 1000)}));
      } else if (pick < 0.70) {
        cancel_one();
      } else if (pick < 0.85) {
        const std::uint64_t before = executed_;
        EXPECT_TRUE(sim_.step());  // the ticker is always pending
        EXPECT_EQ(executed_, before + 1);
      } else {
        const SimTime until = sim_.now() + Duration{rng_.uniform_int(0, 100)};
        sim_.run_until(until);
        EXPECT_EQ(sim_.now(), until);
        ASSERT_FALSE(model_.empty());
        EXPECT_GT(model_.begin()->first, until);
      }
      EXPECT_EQ(sim_.pending_events(), model_.size());
    }
    stopping_ = true;
    sim_.run();
    EXPECT_TRUE(model_.empty());
    EXPECT_FALSE(sim_.step());
    EXPECT_EQ(sim_.queued_entries(), 0u);
  }

  [[nodiscard]] std::uint64_t executed() const { return executed_; }
  [[nodiscard]] std::uint64_t live_cancels() const { return live_cancels_; }
  [[nodiscard]] std::uint64_t bound_violations() const { return bound_violations_; }

 private:
  std::uint64_t schedule(Duration delay) {
    const std::uint64_t id = handles_.size();
    const SimTime when = sim_.now() + delay;
    when_.push_back(when);
    model_.emplace(when, id);
    handles_.push_back(sim_.schedule_at(when, [this, id] { execute(id); }));
    return id;
  }

  // Mostly the oldest armed timer; otherwise any of the 64 most recent
  // events, pending, run or already cancelled.
  void cancel_one() {
    std::uint64_t id = 0;
    if (!armed_.empty() && rng_.chance(0.8)) {
      id = armed_.front();
      armed_.erase(armed_.begin());
    } else {
      const std::uint64_t window = std::min<std::uint64_t>(handles_.size(), 64);
      id = handles_.size() - 1 - rng_.next_below(window);
    }
    if (id == ticker_) return;
    const bool pending = model_.erase({when_[id], id}) == 1;
    EXPECT_EQ(sim_.cancel(handles_[id]), pending);
    if (!pending) return;
    ++live_cancels_;
    // Only a cancel leaves a tombstone, so that is where the bound holds;
    // executions in between shrink the live count without sweeping.
    if (sim_.queued_entries() > 2 * sim_.pending_events() + Simulator::kTombstoneSlack) {
      ++bound_violations_;
    }
  }

  void execute(std::uint64_t id) {
    ASSERT_FALSE(model_.empty());
    EXPECT_EQ(model_.begin()->second, id) << "executed out of (when, sequence) order";
    EXPECT_EQ(sim_.now(), when_[id]);
    model_.erase({when_[id], id});
    ++executed_;
    if (id == ticker_) {
      if (!stopping_) ticker_ = schedule(Duration{rng_.uniform_int(1, 20)});
      return;
    }
    // Events schedule and cancel too, so sweeps also happen mid-step.
    if (rng_.chance(0.3)) schedule(Duration{rng_.uniform_int(0, 50)});
    if (rng_.chance(0.3)) cancel_one();
  }

  Simulator sim_;
  Rng rng_;
  std::set<std::pair<SimTime, std::uint64_t>> model_;
  std::vector<EventHandle> handles_;  // by id (= schedule order)
  std::vector<SimTime> when_;         // by id
  std::vector<std::uint64_t> armed_;  // far-off timers, oldest first
  std::uint64_t ticker_ = 0;
  bool stopping_ = false;
  std::uint64_t executed_ = 0;
  std::uint64_t live_cancels_ = 0;
  std::uint64_t bound_violations_ = 0;
};

TEST(Simulator, MatchesReferenceModelAndBoundsTombstones) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ModelRun run(seed);
    run.run(4000);
    EXPECT_EQ(run.bound_violations(), 0u);
    // The traffic really cancels: without sweeps the cancelled timers'
    // tombstones would overflow the bound many times over.
    EXPECT_GT(run.live_cancels(), 8u * Simulator::kTombstoneSlack);
    EXPECT_GT(run.executed(), 1000u);
  }
}

TEST(SimTime, ArithmeticAndFormatting) {
  const SimTime t{std::chrono::seconds{3723} + std::chrono::milliseconds{45}};
  EXPECT_DOUBLE_EQ(t.seconds(), 3723.045);
  EXPECT_EQ(t.to_string(), "1:02:03.045");
  EXPECT_EQ((t + Duration{std::chrono::seconds{1}}) - t, Duration{std::chrono::seconds{1}});
}

TEST(SimTime, HoursHelper) {
  const SimTime t{std::chrono::hours{30}};
  EXPECT_DOUBLE_EQ(t.hours(), 30.0);
}

}  // namespace
}  // namespace sda::sim
