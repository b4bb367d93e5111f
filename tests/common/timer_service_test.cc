#include "src/common/timer_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <thread>
#include <vector>

namespace antipode {
namespace {

TEST(TimerServiceTest, FiresAfterDelay) {
  TimerService timers;
  std::atomic<bool> fired{false};
  const TimePoint scheduled = SystemClock::Instance().Now();
  std::atomic<int64_t> fired_after_us{0};
  timers.ScheduleAfter(Millis(20), [&] {
    fired_after_us = ToMicros(std::chrono::duration_cast<Duration>(
        SystemClock::Instance().Now() - scheduled));
    fired = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_TRUE(fired.load());
  EXPECT_GE(fired_after_us.load(), 19000);
  timers.Shutdown();
}

TEST(TimerServiceTest, ZeroDelayFiresPromptly) {
  TimerService timers;
  std::atomic<bool> fired{false};
  timers.ScheduleAfter(Micros(0), [&] { fired = true; });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(fired.load());
  timers.Shutdown();
}

TEST(TimerServiceTest, FiresInDeadlineOrder) {
  TimerService timers;
  std::mutex mu;
  std::vector<int> order;
  timers.ScheduleAfter(Millis(60), [&] {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(3);
  });
  timers.ScheduleAfter(Millis(20), [&] {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(1);
  });
  timers.ScheduleAfter(Millis(40), [&] {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(2);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  }
  timers.Shutdown();
}

// Equal-deadline FIFO is a per-affinity-token guarantee: entries sharing a
// token fire in schedule order; default (round-robin) tokens promise nothing
// across calls.
TEST(TimerServiceTest, EqualDeadlinesFireFifoPerAffinity) {
  TimerService timers;
  const TimePoint when = SystemClock::Instance().Now() + Millis(20);
  constexpr TimerService::AffinityToken kToken = 42;
  std::mutex mu;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    timers.ScheduleAt(when, kToken, [&, i] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  }
  timers.Shutdown();
}

// Two interleaved affinity streams with one shared deadline: each stream's
// callbacks run in its own schedule order even though the streams themselves
// may interleave arbitrarily (different workers).
TEST(TimerServiceTest, InterleavedAffinityStreamsKeepPerTokenOrder) {
  TimerService timers(TimerServiceOptions{.num_workers = 4});
  // Already due: Shutdown below must still fire every one of them.
  const TimePoint when = SystemClock::Instance().Now();
  constexpr int kPerStream = 100;
  std::mutex mu;
  std::vector<int> stream_a;
  std::vector<int> stream_b;
  for (int i = 0; i < kPerStream; ++i) {
    timers.ScheduleAt(when, /*affinity=*/1, [&, i] {
      std::lock_guard<std::mutex> lock(mu);
      stream_a.push_back(i);
    });
    timers.ScheduleAt(when, /*affinity=*/2, [&, i] {
      std::lock_guard<std::mutex> lock(mu);
      stream_b.push_back(i);
    });
  }
  timers.Shutdown();  // due timers still fire before Shutdown returns
  ASSERT_EQ(stream_a.size(), static_cast<size_t>(kPerStream));
  ASSERT_EQ(stream_b.size(), static_cast<size_t>(kPerStream));
  for (int i = 0; i < kPerStream; ++i) {
    EXPECT_EQ(stream_a[static_cast<size_t>(i)], i);
    EXPECT_EQ(stream_b[static_cast<size_t>(i)], i);
  }
}

// Workers run their heaps in parallel: two due callbacks on different workers
// must be able to run at the same time. Each callback blocks until the other
// has started; a serial engine would deadlock-then-timeout on the first.
TEST(TimerServiceTest, PerWorkerParallelism) {
  TimerService timers(TimerServiceOptions{.num_workers = 4});
  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  std::atomic<int> overlapped{0};
  for (int i = 0; i < 2; ++i) {
    // Distinct affinity tokens route to distinct workers.
    timers.ScheduleAfter(Micros(0), static_cast<TimerService::AffinityToken>(i), [&] {
      std::unique_lock<std::mutex> lock(mu);
      ++started;
      cv.notify_all();
      if (cv.wait_for(lock, std::chrono::seconds(5), [&] { return started == 2; })) {
        overlapped.fetch_add(1);
      }
    });
  }
  timers.Shutdown();
  EXPECT_EQ(overlapped.load(), 2) << "due callbacks on different workers did not overlap";
}

// Shutdown lets already-due callbacks run to completion (and drops only the
// not-yet-due), even when they were dispatched microseconds earlier.
TEST(TimerServiceTest, ShutdownWithDueTimersStillFires) {
  TimerService timers(TimerServiceOptions{.num_workers = 2});
  std::atomic<int> fired{0};
  constexpr int kDue = 200;
  for (int i = 0; i < kDue; ++i) {
    timers.ScheduleAfter(Micros(0), [&] { fired.fetch_add(1); });
  }
  timers.ScheduleAfter(std::chrono::duration_cast<Duration>(std::chrono::seconds(60)),
                       [&] { fired.fetch_add(1000); });
  timers.Shutdown();
  EXPECT_EQ(fired.load(), kDue);
}

// TSan target: schedulers racing Shutdown must not corrupt the engine, and
// every accepted callback (ScheduleAfter returned true) must still run if it
// was due. Named *Stress* so the tsan ctest preset picks it up.
TEST(TimerServiceStressTest, ConcurrentScheduleAndShutdown) {
  for (int round = 0; round < 5; ++round) {
    TimerService timers(TimerServiceOptions{.num_workers = 4});
    std::atomic<int> accepted{0};
    std::atomic<int> fired{0};
    std::vector<std::thread> schedulers;
    for (int t = 0; t < 4; ++t) {
      schedulers.emplace_back([&] {
        for (int i = 0; i < 200; ++i) {
          if (timers.ScheduleAfter(Micros(0), [&] { fired.fetch_add(1); })) {
            accepted.fetch_add(1);
          }
        }
      });
    }
    std::thread stopper([&] { timers.Shutdown(); });
    for (auto& thread : schedulers) {
      thread.join();
    }
    stopper.join();
    timers.Shutdown();  // idempotent
    EXPECT_EQ(fired.load(), accepted.load());
  }
}

TEST(TimerServiceTest, ManyConcurrentTimers) {
  TimerService timers;
  std::atomic<int> fired{0};
  for (int i = 0; i < 1000; ++i) {
    timers.ScheduleAfter(Millis(1 + i % 20), [&] { fired.fetch_add(1); });
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fired.load() < 1000 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(fired.load(), 1000);
  timers.Shutdown();
}

TEST(TimerServiceTest, ShutdownDropsFutureTimers) {
  TimerService timers;
  std::atomic<bool> fired{false};
  timers.ScheduleAfter(std::chrono::duration_cast<Duration>(std::chrono::seconds(60)),
                       [&] { fired = true; });
  timers.Shutdown();
  EXPECT_FALSE(fired.load());
}

TEST(TimerServiceTest, ScheduleAfterShutdownIsNoOp) {
  TimerService timers;
  timers.Shutdown();
  std::atomic<bool> fired{false};
  timers.ScheduleAfter(Micros(1), [&] { fired = true; });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(fired.load());
}

TEST(TimerServiceTest, PendingCountTracksQueue) {
  TimerService timers;
  EXPECT_EQ(timers.PendingCount(), 0u);
  timers.ScheduleAfter(std::chrono::duration_cast<Duration>(std::chrono::seconds(60)), [] {});
  EXPECT_EQ(timers.PendingCount(), 1u);
  timers.Shutdown();
}

TEST(TimerServiceTest, SharedInstanceIsSingleton) {
  EXPECT_EQ(&TimerService::Shared(), &TimerService::Shared());
}

// Threads listed in /proc/self/task. A just-joined thread can stay listed
// for a moment, so read until two samples 1 ms apart agree.
size_t SettledThreadCount() {
  auto count = [] {
    size_t n = 0;
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
      ++n;
    }
    return n;
  };
  size_t last = count();
  for (int i = 0; i < 1000; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const size_t now = count();
    if (now == last) {
      break;
    }
    last = now;
  }
  return last;
}

// The engine is one tier: M workers, each owning its heap, and no other
// threads (no dispatchers in front of the workers).
TEST(TimerServiceTest, StartsExactlyOneThreadPerWorker) {
  // Sanitizer runtimes start a helper thread along with the process's first
  // thread; start (and join) one first so the count below sees only ours.
  std::thread([] {}).join();
  const size_t before = SettledThreadCount();
  TimerService timers(TimerServiceOptions{.num_workers = 3});
  EXPECT_EQ(timers.num_shards(), 3u);
  EXPECT_EQ(SettledThreadCount(), before + 3);
  timers.Shutdown();
  EXPECT_EQ(SettledThreadCount(), before);
}

// A parked worker sleeping until a far deadline must be woken by a push that
// becomes its new heap top; pushes behind the top need no wake-up and must
// still fire in deadline order once due.
TEST(TimerServiceTest, EarlierPushWakesParkedWorker) {
  TimerService timers(TimerServiceOptions{.num_workers = 1});
  std::atomic<int> fired{0};
  const Duration far = std::chrono::duration_cast<Duration>(std::chrono::seconds(60));
  timers.ScheduleAfter(far, [&] { fired.fetch_add(1000); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));  // let the worker park
  std::mutex mu;
  std::vector<int> order;
  for (int i = 3; i >= 1; --i) {
    timers.ScheduleAfter(Millis(5 * i), [&, i] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
      fired.fetch_add(1);
    });
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fired.load() < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(fired.load(), 3);
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  }
  timers.Shutdown();
  EXPECT_EQ(fired.load(), 3);  // the 60 s timer was dropped
}

}  // namespace
}  // namespace antipode
