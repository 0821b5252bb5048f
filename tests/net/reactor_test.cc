#include "src/net/reactor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/clock.h"

namespace skadi {
namespace {

constexpr int64_t kMs = 1'000'000;

// Drives `r` (no driver threads) until `pred` holds or `timeout` passes.
template <typename Pred>
bool DrainUntil(Reactor& r, Pred pred, int64_t timeout_nanos = 5'000 * kMs) {
  const int64_t deadline = NowNanos() + timeout_nanos;
  while (!pred()) {
    if (NowNanos() >= deadline) {
      return false;
    }
    r.PollOnce();
  }
  return true;
}

TEST(EventTest, OnSetAfterSetRunsInline) {
  Event ev;
  ev.Set();
  bool ran = false;
  ev.OnSet([&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(EventTest, SetIsIdempotentAndContinuationsRunOnce) {
  Event ev;
  int runs = 0;
  ev.OnSet([&] { ++runs; });
  ev.Set();
  ev.Set();
  EXPECT_EQ(runs, 1);
  EXPECT_TRUE(ev.is_set());
}

TEST(EventTest, DestructionWhilePendingDropsContinuations) {
  auto counter = std::make_shared<std::atomic<int>>(0);
  {
    Event ev;
    ev.OnSet([counter] { counter->fetch_add(1); });
    // ev destroyed without Set: the continuation must be dropped, not run.
  }
  EXPECT_EQ(counter->load(), 0);
  // The shared_ptr capture was released with it.
  EXPECT_EQ(counter.use_count(), 1);
}

TEST(EventTest, BlockingWaitCrossThreadWakeup) {
  Event ev;
  std::thread setter([&] { ev.Set(); });
  EXPECT_TRUE(ev.BlockingWait());
  setter.join();
}

TEST(EventTest, BlockingWaitDeadline) {
  Event ev;
  EXPECT_FALSE(ev.BlockingWait(NowNanos() + 20 * kMs));
}

TEST(ReactorTest, PostRunsInFifoOrder) {
  Reactor r("test");
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    r.Post([&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(r.ready_count(), 8u);
  EXPECT_EQ(r.PollOnce(), 8u);
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(ReactorTest, TimersFireInDeadlineOrder) {
  Reactor r("test");
  std::vector<int> order;
  // Schedule out of order; both land within one wheel rotation.
  r.ScheduleAfter(30 * kMs, [&] { order.push_back(3); });
  r.ScheduleAfter(10 * kMs, [&] { order.push_back(1); });
  r.ScheduleAfter(20 * kMs, [&] { order.push_back(2); });
  EXPECT_EQ(r.pending_timers(), 3u);
  ASSERT_TRUE(DrainUntil(r, [&] { return order.size() == 3; }));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(r.pending_timers(), 0u);
}

TEST(ReactorTest, FarTimerBeyondOneRotationStillFires) {
  // 4 slots x 1ms tick = 4ms rotation; a 40ms timer wraps ten times.
  Reactor::Options opt;
  opt.slots = 4;
  Reactor r("test", opt);
  std::atomic<bool> fired{false};
  const int64_t start = NowNanos();
  r.ScheduleAfter(40 * kMs, [&] { fired = true; });
  ASSERT_TRUE(DrainUntil(r, [&] { return fired.load(); }));
  EXPECT_GE(NowNanos() - start, 40 * kMs);
}

TEST(ReactorTest, CancelPreventsFiring) {
  Reactor r("test");
  std::atomic<bool> fired{false};
  TimerId id = r.ScheduleAfter(10 * kMs, [&] { fired = true; });
  ASSERT_NE(id, 0u);
  EXPECT_TRUE(r.Cancel(id));
  EXPECT_FALSE(r.Cancel(id));  // second cancel: already gone
  EXPECT_EQ(r.pending_timers(), 0u);
  // Drain well past the deadline; the continuation must never run.
  const int64_t until = NowNanos() + 30 * kMs;
  while (NowNanos() < until) {
    r.PollOnce();
  }
  EXPECT_FALSE(fired.load());
}

TEST(ReactorTest, RearmPushesDeadlineOut) {
  Reactor r("test");
  std::atomic<int> fires{0};
  TimerId id = r.ScheduleAfter(10 * kMs, [&] { fires.fetch_add(1); });
  const int64_t start = NowNanos();
  EXPECT_TRUE(r.Rearm(id, 60 * kMs));
  ASSERT_TRUE(DrainUntil(r, [&] { return fires.load() == 1; }));
  // The original 10ms deadline must not have fired; only the re-armed one.
  EXPECT_GE(NowNanos() - start, 60 * kMs);
  EXPECT_EQ(fires.load(), 1);
  EXPECT_FALSE(r.Rearm(id, 10 * kMs));  // fired: gone
}

TEST(ReactorTest, RearmedTimerOldWheelSlotIsStale) {
  // Rearm to a *sooner* deadline: the stale far-slot entry must not fire a
  // second time when its slot comes around.
  Reactor r("test");
  std::atomic<int> fires{0};
  TimerId id = r.ScheduleAfter(80 * kMs, [&] { fires.fetch_add(1); });
  EXPECT_TRUE(r.Rearm(id, 5 * kMs));
  ASSERT_TRUE(DrainUntil(r, [&] { return fires.load() == 1; }));
  const int64_t until = NowNanos() + 100 * kMs;
  while (NowNanos() < until) {
    r.PollOnce();
  }
  EXPECT_EQ(fires.load(), 1);
}

TEST(ReactorTest, DriverThreadRunsPostedWork) {
  Reactor r("test");
  r.Start(2);
  EXPECT_EQ(r.num_threads(), 2u);
  Event done;
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    r.Post([&] {
      if (ran.fetch_add(1) + 1 == 100) {
        done.Set();
      }
    });
  }
  EXPECT_TRUE(done.BlockingWait(NowNanos() + 5'000 * kMs));
  EXPECT_EQ(ran.load(), 100);
  r.Shutdown();
  EXPECT_EQ(r.num_threads(), 0u);
}

TEST(ReactorTest, BlockOnCrossThreadWakeup) {
  Reactor r("test");
  r.Start(1);
  auto ev = std::make_shared<Event>();
  // An external thread (not a driver) parks; a timer on the driver fires it.
  r.ScheduleAfter(5 * kMs, [ev] { ev->Set(); });
  EXPECT_TRUE(r.BlockOn(*ev));
  r.Shutdown();
}

TEST(ReactorTest, BlockOnFromDriverDrivesTheLoop) {
  // A continuation running ON the sole driver blocks on an event that only
  // later reactor work can set. Thread-per-wait would deadlock; the drain
  // shim must keep the loop moving.
  Reactor r("test");
  r.Start(1);
  Event outer;
  std::atomic<bool> nested_ok{false};
  r.Post([&] {
    auto inner = std::make_shared<Event>();
    r.ScheduleAfter(5 * kMs, [inner] { inner->Set(); });
    nested_ok = r.BlockOn(*inner);
    outer.Set();
  });
  EXPECT_TRUE(outer.BlockingWait(NowNanos() + 5'000 * kMs));
  EXPECT_TRUE(nested_ok.load());
  r.Shutdown();
}

TEST(ReactorTest, BlockOnWithNoDriversDrains) {
  Reactor r("test");
  auto ev = std::make_shared<Event>();
  r.ScheduleAfter(5 * kMs, [ev] { ev->Set(); });
  // No Start(): the caller itself must drive timers until the event fires.
  EXPECT_TRUE(r.BlockOn(*ev));
}

TEST(ReactorTest, BlockOnDeadline) {
  Reactor r("test");
  Event ev;
  EXPECT_FALSE(r.BlockOn(ev, NowNanos() + 20 * kMs));
}

TEST(ReactorTest, GrowAndShrinkAdjustLogicalSize) {
  Reactor r("test");
  r.Start(1);
  r.Start(3);
  EXPECT_EQ(r.num_threads(), 4u);
  r.Shrink(2);
  EXPECT_EQ(r.num_threads(), 2u);
  // Retired drivers are logically gone even while parked; surviving drivers
  // still run work.
  Event done;
  r.Post([&] { done.Set(); });
  EXPECT_TRUE(done.BlockingWait(NowNanos() + 5'000 * kMs));
  r.Shrink(10);  // floors at one running driver
  EXPECT_EQ(r.num_threads(), 1u);
  Event after_floor;
  r.Post([&] { after_floor.Set(); });
  EXPECT_TRUE(after_floor.BlockingWait(NowNanos() + 5'000 * kMs));
  r.Shutdown();
  EXPECT_EQ(r.num_threads(), 0u);
}

TEST(ReactorTest, ShutdownDrainsReadyQueueButDropsTimers) {
  Reactor r("test");
  std::atomic<int> ran{0};
  std::atomic<bool> timer_ran{false};
  r.Post([&] { ran.fetch_add(1); });
  r.Post([&] { ran.fetch_add(1); });
  r.ScheduleAfter(3'600'000 * kMs, [&] { timer_ran = true; });  // 1h out
  r.Shutdown();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_FALSE(timer_ran.load());
  EXPECT_EQ(r.pending_timers(), 0u);
  // Post-shutdown submissions are rejected.
  EXPECT_FALSE(r.Post([] {}));
  EXPECT_EQ(r.ScheduleAfter(kMs, [] {}), 0u);
  r.Shutdown();  // idempotent
}

TEST(ReactorTest, RunOneReturnsFalseAfterShutdown) {
  Reactor r("test");
  std::atomic<bool> got_false{false};
  std::thread driver([&] {
    while (r.RunOne()) {
    }
    got_false = true;
  });
  Event seen;
  r.Post([&] { seen.Set(); });
  EXPECT_TRUE(seen.BlockingWait(NowNanos() + 5'000 * kMs));
  r.Shutdown();
  driver.join();
  EXPECT_TRUE(got_false.load());
}

TEST(ReactorTest, ShutdownRejectsPostsFromDrainedWork) {
  // Shutdown stops intake before it drains, so a queued continuation that
  // posts more work cannot keep the drain going.
  Reactor r("test");
  std::atomic<int> ran{0};
  std::atomic<bool> repost_accepted{true};
  r.Post([&] {
    ran.fetch_add(1);
    repost_accepted = r.Post([&] { ran.fetch_add(1); });
  });
  r.Shutdown();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_FALSE(repost_accepted.load());
  EXPECT_EQ(r.ready_count(), 0u);
}

TEST(ReactorTest, PollOnceOnIdleReactorRunsNothing) {
  Reactor r("test");
  EXPECT_EQ(r.PollOnce(), 0u);
  // A timer that is not yet due is not work: PollOnce returns without
  // waiting for it and leaves it armed.
  std::atomic<bool> fired{false};
  ASSERT_NE(r.ScheduleAfter(3'600'000 * kMs, [&] { fired = true; }), 0u);
  const int64_t start = NowNanos();
  EXPECT_EQ(r.PollOnce(), 0u);
  EXPECT_LT(NowNanos() - start, 1'000 * kMs);
  EXPECT_FALSE(fired.load());
  EXPECT_EQ(r.pending_timers(), 1u);
}

TEST(ReactorTest, ContinuationPostedByContinuationRunsAfterQueuedWork) {
  Reactor r("test");
  std::vector<char> order;
  r.Post([&] {
    order.push_back('a');
    r.Post([&] { order.push_back('c'); });
  });
  r.Post([&] { order.push_back('b'); });
  // One PollOnce runs what the first continuation queued too, behind 'b'.
  EXPECT_EQ(r.PollOnce(), 3u);
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c'}));
}

TEST(ReactorTest, CancelAndRearmFailOnceTimerFired) {
  Reactor r("test");
  std::atomic<int> fires{0};
  const TimerId id = r.ScheduleAfter(0, [&] { fires.fetch_add(1); });
  ASSERT_NE(id, 0u);
  ASSERT_TRUE(DrainUntil(r, [&] { return fires.load() == 1; }));
  EXPECT_FALSE(r.Cancel(id));
  EXPECT_FALSE(r.Rearm(id, kMs));
  EXPECT_FALSE(r.Cancel(0));
  EXPECT_FALSE(r.Cancel(id + 1000));
  EXPECT_EQ(r.pending_timers(), 0u);
  EXPECT_EQ(fires.load(), 1);
}

TEST(ReactorTest, ShrunkReactorRunsEveryPostedTask) {
  Reactor r("test");
  r.Start(4);
  r.Shrink(2);
  EXPECT_EQ(r.num_threads(), 2u);
  constexpr int kTasks = 50;
  std::atomic<int> ran{0};
  Event done;
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_TRUE(r.Post([&] {
      if (ran.fetch_add(1) + 1 == kTasks) {
        done.Set();
      }
    }));
  }
  EXPECT_TRUE(done.BlockingWait(NowNanos() + 5'000 * kMs));
  EXPECT_EQ(ran.load(), kTasks);
  r.Shutdown();
}

TEST(ReactorTest, DriversRunPostedWorkInParallel) {
  // Each continuation holds its driver until a second one has been running
  // at the same time. The hold is bounded, so a reactor that runs one
  // continuation at a time fails the peak check instead of hanging.
  Reactor r("test");
  r.Start(4);
  constexpr int kTasks = 8;
  std::atomic<int> inside{0};
  std::atomic<int> peak{0};
  std::atomic<int> ran{0};
  Event done;
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_TRUE(r.Post([&] {
      const int now = inside.fetch_add(1) + 1;
      int seen = peak.load();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      const int64_t give_up = NowNanos() + 5'000 * kMs;
      while (peak.load() < 2 && NowNanos() < give_up) {
        std::this_thread::yield();
      }
      inside.fetch_sub(1);
      if (ran.fetch_add(1) + 1 == kTasks) {
        done.Set();
      }
    }));
  }
  EXPECT_TRUE(done.BlockingWait(NowNanos() + 60'000 * kMs));
  EXPECT_GE(peak.load(), 2);
  r.Shutdown();
}

TEST(ReactorTest, StressManyOutstandingFutures) {
  // 100k outstanding Events resolved by wheel timers on a bounded driver
  // pool — the tentpole claim in miniature (the full version with latency
  // percentiles lives in bench/bench_reactor.cc).
  constexpr int kFutures = 100'000;
  Reactor r("stress");
  r.Start(2);
  auto remaining = std::make_shared<std::atomic<int>>(kFutures);
  Event all_done;
  std::vector<std::shared_ptr<Event>> events;
  events.reserve(kFutures);
  for (int i = 0; i < kFutures; ++i) {
    auto ev = std::make_shared<Event>();
    ev->OnSet([remaining, &all_done] {
      if (remaining->fetch_sub(1) == 1) {
        all_done.Set();
      }
    });
    events.push_back(ev);
    // Spread deadlines across ~64ms so every wheel slot gets traffic.
    r.ScheduleAfter((i % 64) * kMs, [ev] { ev->Set(); });
  }
  EXPECT_TRUE(all_done.BlockingWait(NowNanos() + 60'000 * kMs));
  EXPECT_EQ(remaining->load(), 0);
  for (const auto& ev : events) {
    EXPECT_TRUE(ev->is_set());
  }
  r.Shutdown();
}

TEST(ReactorTest, CrossThreadPostHammer) {
  // Many producers posting against a small driver pool; every continuation
  // must run exactly once.
  Reactor r("hammer");
  r.Start(3);
  static constexpr int kProducers = 8;
  static constexpr int kPerProducer = 2'000;
  auto count = std::make_shared<std::atomic<int>>(0);
  Event done;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        r.Post([count, &done] {
          if (count->fetch_add(1) + 1 == kProducers * kPerProducer) {
            done.Set();
          }
        });
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  EXPECT_TRUE(done.BlockingWait(NowNanos() + 60'000 * kMs));
  EXPECT_EQ(count->load(), kProducers * kPerProducer);
  r.Shutdown();
}

TEST(ReactorTest, TimerOnIdleReactorFiresWithinTwoTicks) {
  // ScheduleAfter wakes a driver only when none is waiting for the next
  // tick. With no timers pending the lone driver sits in an untimed wait,
  // so arming a timer must still wake it.
  Event fired;
  std::atomic<int64_t> fired_at{0};
  Reactor::Options opt;
  opt.tick_nanos = 50 * kMs;
  Reactor r("idle-timer", opt);
  r.Start(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let it park
  ASSERT_EQ(r.pending_timers(), 0u);
  const int64_t armed_at = NowNanos();
  ASSERT_NE(r.ScheduleAfter(0, [&] {
              fired_at.store(NowNanos());
              fired.Set();
            }),
            0u);
  ASSERT_TRUE(fired.BlockingWait(NowNanos() + 5'000 * kMs));
  EXPECT_LE(fired_at.load() - armed_at, 2 * opt.tick_nanos);
  r.Shutdown();
}

TEST(ReactorTest, TimerFiresThroughSecondDriverWhileFirstIsBusy) {
  // A pending far-off timer puts idle drivers into tick waits, the state in
  // which ScheduleAfter skips its wake-up. One driver then runs a 50 ms
  // continuation; a 2 ms timer armed meanwhile must fire through the other
  // driver instead of waiting for the busy one.
  Event busy_started;
  Event fired;
  std::atomic<bool> busy_done{false};
  std::atomic<bool> fired_while_busy{false};
  Reactor r("busy-timer");
  r.Start(2);
  const TimerId far = r.ScheduleAfter(60'000 * kMs, [] {});
  ASSERT_NE(far, 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  r.Post([&] {
    busy_started.Set();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    busy_done.store(true);
  });
  ASSERT_TRUE(busy_started.BlockingWait(NowNanos() + 5'000 * kMs));
  ASSERT_NE(r.ScheduleAfter(2 * kMs, [&] {
              fired_while_busy.store(!busy_done.load());
              fired.Set();
            }),
            0u);
  ASSERT_TRUE(fired.BlockingWait(NowNanos() + 5'000 * kMs));
  EXPECT_TRUE(fired_while_busy.load());
  EXPECT_TRUE(r.Cancel(far));
  r.Shutdown();
}

TEST(ReactorTest, TickWaiterThatGetsBusyHandsTicksToIdleDriver) {
  // The driver in the tick wait runs a due 50 ms timer itself, while the
  // other driver sits in an untimed wait. A timer armed earlier woke nobody
  // (a tick waiter existed then), so the busy driver must wake the idle one
  // to keep the wheel turning.
  Event fired;
  std::atomic<bool> busy_done{false};
  std::atomic<bool> fired_while_busy{false};
  Reactor r("hand-off");
  r.Start(2);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));  // both park
  ASSERT_NE(r.ScheduleAfter(5 * kMs, [&] {
              std::this_thread::sleep_for(std::chrono::milliseconds(50));
              busy_done.store(true);
            }),
            0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));  // one tick-waits
  ASSERT_NE(r.ScheduleAfter(20 * kMs, [&] {
              fired_while_busy.store(!busy_done.load());
              fired.Set();
            }),
            0u);
  ASSERT_TRUE(fired.BlockingWait(NowNanos() + 5'000 * kMs));
  EXPECT_TRUE(fired_while_busy.load());
  r.Shutdown();
}

}  // namespace
}  // namespace skadi
