#include "src/common/timer_service.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "src/common/sim.h"
#include "src/obs/metrics.h"

namespace antipode {

namespace {

size_t ResolveWorkers(size_t requested) {
  if (requested != TimerServiceOptions::kDefaultWorkers) {
    return requested;
  }
  const size_t cores = std::thread::hardware_concurrency();
  return std::clamp<size_t>(cores, 2, 8);
}

}  // namespace

TimerService::TimerService(const Options& options) {
  MetricsRegistry& registry = MetricsRegistry::Default();
  callbacks_run_ = registry.GetCounter("timer.callbacks_run");
  if (options.deterministic) {
    sim_ = SimScheduler::Active();
    if (sim_ == nullptr) {
      std::fprintf(stderr,
                   "TimerService: deterministic mode requires an active SimScheduler "
                   "(construct inside a ScopedSimMode)\n");
      std::abort();
    }
    sim_state_ = std::make_shared<SimState>();
    sim_state_->callbacks_run = callbacks_run_;
    return;
  }
  const size_t num_workers = std::max<size_t>(1, ResolveWorkers(options.num_workers));
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    auto worker = std::make_unique<Worker>();
    const std::string label = std::to_string(i);
    worker->queue_depth = registry.GetGauge("timer.queue_depth", {{"shard", label}});
    worker->dispatch_lag = registry.GetHistogram("timer.dispatch_lag_ms", {{"shard", label}});
    workers_.push_back(std::move(worker));
  }
  for (auto& worker : workers_) {
    worker->thread = std::thread([this, w = worker.get()] { WorkerLoop(*w); });
  }
}

TimerService::~TimerService() { Shutdown(); }

TimerService& TimerService::Shared() {
  static auto* service = new TimerService();  // intentionally leaked; lives for the process
  return *service;
}

bool TimerService::ScheduleAfter(Duration delay, TimerTask fn) {
  return ScheduleAt(GlobalClock().Now() + delay, std::move(fn));
}

bool TimerService::ScheduleAfter(Duration delay, AffinityToken affinity, TimerTask fn) {
  return ScheduleAt(GlobalClock().Now() + delay, affinity, std::move(fn));
}

bool TimerService::ScheduleAt(TimePoint when, TimerTask fn) {
  return ScheduleAt(when, round_robin_.fetch_add(1, std::memory_order_relaxed), std::move(fn));
}

bool TimerService::ScheduleAt(TimePoint when, AffinityToken affinity, TimerTask fn) {
  if (sim_ != nullptr) {
    if (shutdown_.load(std::memory_order_acquire)) {
      return false;
    }
    // The wrapper (not the scheduler) enforces the shutdown contract: events
    // posted before Shutdown but due after it find open == false and drop
    // their callback without running it.
    auto state = sim_state_;
    state->pending.fetch_add(1, std::memory_order_relaxed);
    sim_->Post(when, affinity, [state, task = std::move(fn)]() mutable {
      state->pending.fetch_sub(1, std::memory_order_relaxed);
      if (!state->open.load(std::memory_order_acquire)) {
        return;
      }
      task();
      state->callbacks_run->Increment();
    });
    return true;
  }
  Worker& worker = *workers_[affinity % workers_.size()];
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(worker.mu);
    if (shutdown_.load(std::memory_order_relaxed)) {
      return false;
    }
    worker.entries.push(Entry{when, worker.next_sequence++, std::move(fn)});
    worker.queue_depth->Add(1);
    // Notify only on the transition the parked worker cannot see by itself:
    // this entry is due before the deadline it sleeps until. Clearing
    // parked_until makes every further push before the worker runs free.
    if (when < worker.parked_until) {
      worker.parked_until = TimePoint::min();
      wake = true;
    }
  }
  if (wake) {
    worker.cv.notify_one();
  }
  return true;
}

void TimerService::Shutdown() {
  if (sim_ != nullptr) {
    const bool was_shut = shutdown_.exchange(true, std::memory_order_acq_rel);
    if (was_shut) {
      return;
    }
    // Mirror the threaded contract: timers already due still fire before
    // Shutdown returns; future ones are dropped by the wrapper's open flag.
    sim_->AdvanceTo(sim_->Now());
    sim_state_->open.store(false, std::memory_order_release);
    return;
  }
  shutdown_.store(true, std::memory_order_relaxed);
  for (auto& worker : workers_) {
    // Take-and-release the worker lock so a worker is either not yet parked
    // (and will see the flag) or inside the wait (and gets woken).
    { std::lock_guard<std::mutex> lock(worker->mu); }
    worker->cv.notify_all();
  }
  std::lock_guard<std::mutex> join_lock(shutdown_mu_);
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) {
      worker->thread.join();
    }
  }
}

size_t TimerService::PendingCount() const {
  if (sim_ != nullptr) {
    return sim_state_->pending.load(std::memory_order_relaxed);
  }
  size_t total = 0;
  for (const auto& worker : workers_) {
    std::lock_guard<std::mutex> lock(worker->mu);
    total += worker->entries.size();
  }
  return total;
}

void TimerService::WorkerLoop(Worker& worker) {
  // Due entries are drained in batches: one lock hold pops everything whose
  // deadline has passed (up to kMaxBatch), then the callbacks run unlocked,
  // so producers get the whole run window to refill the heap. Heap pop order
  // is the per-token contract: deadline order, FIFO within equal deadlines.
  constexpr size_t kMaxBatch = 128;
  std::vector<Entry> batch;
  batch.reserve(kMaxBatch);
  std::unique_lock<std::mutex> lock(worker.mu);
  while (true) {
    const bool stopping = shutdown_.load(std::memory_order_relaxed);
    const TimePoint now = SystemClock::Instance().Now();
    if (worker.entries.empty() || worker.entries.top().when > now) {
      if (stopping) {
        // Drop timers that are not yet due.
        worker.queue_depth->Add(-static_cast<int64_t>(worker.entries.size()));
        return;
      }
      if (worker.entries.empty()) {
        worker.parked_until = TimePoint::max();
        worker.cv.wait(lock);
      } else {
        const TimePoint next = worker.entries.top().when;
        worker.parked_until = next;
        worker.cv.wait_until(lock, next);
      }
      worker.parked_until = TimePoint::min();
      continue;
    }
    while (!worker.entries.empty() && batch.size() < kMaxBatch &&
           worker.entries.top().when <= now) {
      batch.push_back(std::move(const_cast<Entry&>(worker.entries.top())));
      worker.entries.pop();
    }
    worker.queue_depth->Add(-static_cast<int64_t>(batch.size()));
    lock.unlock();
    for (Entry& entry : batch) {
      worker.dispatch_lag->Record(ToMillis(
          std::chrono::duration_cast<Duration>(SystemClock::Instance().Now() - entry.when)));
      entry.fn();
      callbacks_run_->Increment();
    }
    batch.clear();
    lock.lock();
  }
}

}  // namespace antipode
