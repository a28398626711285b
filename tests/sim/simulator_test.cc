#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace dynamoth::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(seconds(3), [&] { order.push_back(3); });
  sim.schedule_at(seconds(1), [&] { order.push_back(1); });
  sim.schedule_at(seconds(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), seconds(3));
}

TEST(Simulator, SameTimeIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    sim.schedule_at(seconds(1), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  SimTime fired = -1;
  sim.schedule_at(seconds(5), [&] {
    sim.schedule_after(seconds(2), [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, seconds(7));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_at(seconds(1), [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // already cancelled
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelAfterFireReturnsFalse) {
  Simulator sim;
  const EventId id = sim.schedule_at(seconds(1), [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, RunUntilAdvancesClockExactly) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(seconds(1), [&] { ++fired; });
  sim.schedule_at(seconds(10), [&] { ++fired; });
  sim.run_until(seconds(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), seconds(5));
  sim.run_until(seconds(10));
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunForIsRelative) {
  Simulator sim;
  sim.run_for(seconds(2));
  sim.run_for(seconds(3));
  EXPECT_EQ(sim.now(), seconds(5));
}

TEST(Simulator, EventAtBoundaryOfRunUntilFires) {
  Simulator sim;
  bool ran = false;
  sim.schedule_at(seconds(5), [&] { ran = true; });
  sim.run_until(seconds(5));
  EXPECT_TRUE(ran);
}

TEST(Simulator, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(seconds(1), [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_at(seconds(2), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) sim.schedule_after(seconds(1), recurse);
  };
  sim.schedule_after(seconds(1), recurse);
  sim.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.now(), seconds(10));
}

TEST(Simulator, ExecutedEventsCounts) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.executed_events(), 7u);
}

TEST(Simulator, ManyEventsStressOrdering) {
  Simulator sim;
  SimTime last = -1;
  bool ordered = true;
  // Pseudo-random times, inserted out of order.
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 20'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    sim.schedule_at(static_cast<SimTime>(x % 1'000'000), [&, t = static_cast<SimTime>(x % 1'000'000)] {
      if (t < last) ordered = false;
      last = t;
    });
  }
  sim.run();
  EXPECT_TRUE(ordered);
}

TEST(Simulator, NextSimulatorOnThreadStartsCleanAfterOneIsDestroyed) {
  // A destroyed simulator hands its first slab block to the next one on the
  // thread: its pending callbacks must be released, and the reused block
  // must behave exactly like a fresh one (same slots, generations from 0).
  auto token = std::make_shared<int>(0);
  EventId fresh_id;
  {
    Simulator first;
    fresh_id = first.schedule_at(seconds(1), [] {});
    for (int i = 0; i < 100; ++i) first.schedule_at(seconds(2), [token] {});
    first.run_until(seconds(1));
    EXPECT_EQ(token.use_count(), 101);
  }
  EXPECT_EQ(token.use_count(), 1);

  Simulator second;
  std::vector<int> order;
  const EventId id = second.schedule_at(seconds(2), [&] { order.push_back(2); });
  second.schedule_at(seconds(1), [&] { order.push_back(1); });
  EXPECT_EQ(id.slot, fresh_id.slot);
  EXPECT_EQ(id.generation, fresh_id.generation);
  second.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(second.executed_events(), 2u);
}

TEST(PeriodicTask, TicksAtPeriod) {
  Simulator sim;
  int ticks = 0;
  PeriodicTask task(sim, seconds(1), [&] { ++ticks; });
  task.start();
  sim.run_until(seconds(5) + millis(1));
  EXPECT_EQ(ticks, 5);
}

TEST(PeriodicTask, StartAfterDelaysFirstTick) {
  Simulator sim;
  std::vector<SimTime> at;
  PeriodicTask task(sim, seconds(2), [&] { at.push_back(sim.now()); });
  task.start_after(seconds(5));
  sim.run_until(seconds(10));
  ASSERT_EQ(at.size(), 3u);
  EXPECT_EQ(at[0], seconds(5));
  EXPECT_EQ(at[1], seconds(7));
  EXPECT_EQ(at[2], seconds(9));
}

TEST(PeriodicTask, StopFromWithinTick) {
  Simulator sim;
  int ticks = 0;
  PeriodicTask task(sim, seconds(1), [&] {
    if (++ticks == 3) task.stop();
  });
  task.start();
  sim.run_until(seconds(10));
  EXPECT_EQ(ticks, 3);
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTask, RestartResetsPhase) {
  Simulator sim;
  std::vector<SimTime> at;
  PeriodicTask task(sim, seconds(4), [&] { at.push_back(sim.now()); });
  task.start();
  sim.run_until(seconds(2));
  task.start();  // restart at t=2 -> next tick t=6
  sim.run_until(seconds(7));
  ASSERT_EQ(at.size(), 1u);
  EXPECT_EQ(at[0], seconds(6));
}

TEST(PeriodicTask, DestructorCancels) {
  Simulator sim;
  int ticks = 0;
  {
    PeriodicTask task(sim, seconds(1), [&] { ++ticks; });
    task.start();
    sim.run_until(seconds(2));
  }
  sim.run_until(seconds(10));
  EXPECT_EQ(ticks, 2);
}

}  // namespace
}  // namespace dynamoth::sim
