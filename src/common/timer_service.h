// A multi-worker timer engine: schedules closures to run at a future time
// point. The simulated network and every store's replication engine use this
// instead of spawning a thread per in-flight message, which keeps thousands
// of concurrent replication events cheap.
//
// Architecture: M workers, each one thread that owns a mutex, a condition
// variable and a min-heap ordered by ⟨deadline, per-worker sequence⟩. The
// worker pops everything due in one batch, runs the batch with its lock
// released, and otherwise sleeps until its earliest deadline. A producer
// wakes the worker only on a transition: the pushed entry became the new heap
// top while the worker was parked past its deadline. Several pushes before
// the worker runs again therefore cost one wake-up. One slow callback stalls
// only its own worker; due events on different workers fire in parallel.
//
// Affinity tokens: every schedule call carries a token (defaulting to a fresh
// round-robin value per call). A token maps to one fixed worker
// (`token % M`), so all callbacks scheduled with the same token execute
// serially, in deadline order, FIFO for equal deadlines. The replication
// engine keys its shipments by (store, key, destination) to keep per-key
// apply order intact; callers that need no ordering just omit the token and
// get maximum spread. There is NO cross-token ordering guarantee, even
// within one worker.

#ifndef SRC_COMMON_TIMER_SERVICE_H_
#define SRC_COMMON_TIMER_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/small_function.h"

namespace antipode {

class Counter;
class Gauge;
class HistogramMetric;
class SimScheduler;

struct TimerServiceOptions {
  // Worker threads, one timer heap each. 0 is treated as 1.
  size_t num_workers = kDefaultWorkers;

  // Deterministic simulation mode: no workers, no threads — every schedule
  // becomes an event on the process's active SimScheduler (sim.h), which
  // must be installed (via ScopedSimMode) before construction. Virtual time
  // replaces the wall clock; the per-affinity ordering contract is preserved
  // by the scheduler's seeded tie-break (same token ⇒ FIFO).
  bool deterministic = false;

  // SIZE_MAX sentinel resolved at construction to min(8, max(2, cores)).
  static constexpr size_t kDefaultWorkers = SIZE_MAX;
};

class TimerService {
 public:
  using Options = TimerServiceOptions;
  // Routes same-token callbacks to the same worker (serial, FIFO for equal
  // deadlines). Calls without a token get a fresh round-robin one.
  using AffinityToken = uint64_t;

  TimerService() : TimerService(Options{}) {}
  explicit TimerService(const Options& options);
  ~TimerService();

  TimerService(const TimerService&) = delete;
  TimerService& operator=(const TimerService&) = delete;

  // A process-wide instance shared by the simulation substrate.
  static TimerService& Shared();

  // Runs `fn` once `delay` has elapsed (immediately when delay <= 0).
  // Returns false — and drops `fn` without running it — after Shutdown;
  // callers doing completion accounting must roll back on false.
  //
  // TimerTask (a move-only 64-byte-inline callable) replaces std::function
  // here so steady-state schedules — including the store's replication
  // shipments — carry their captures without a heap allocation, and so
  // callbacks can own move-only resources (pooled entry handles).
  bool ScheduleAfter(Duration delay, TimerTask fn);
  bool ScheduleAfter(Duration delay, AffinityToken affinity, TimerTask fn);
  bool ScheduleAt(TimePoint when, TimerTask fn);
  bool ScheduleAt(TimePoint when, AffinityToken affinity, TimerTask fn);

  // Stops the engine; pending timers that are already due still fire (their
  // callbacks run to completion before Shutdown returns), future ones are
  // dropped. Idempotent and safe to race with ScheduleAfter.
  void Shutdown();

  // Timers not yet taken off a worker heap.
  size_t PendingCount() const;

  // Timer heaps, one per worker thread (the `shard` label of the
  // `timer.queue_depth` and `timer.dispatch_lag_ms` instruments).
  size_t num_shards() const { return workers_.size(); }
  bool deterministic() const { return sim_ != nullptr; }

 private:
  struct Entry {
    TimePoint when;
    uint64_t sequence;  // FIFO tie-break for equal deadlines (per worker)
    TimerTask fn;
  };
  struct EntryLater {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.sequence > b.sequence;
    }
  };
  struct Worker {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::priority_queue<Entry, std::vector<Entry>, EntryLater> entries;
    uint64_t next_sequence = 0;
    // The deadline the parked worker sleeps until: TimePoint::max() when it
    // waits on an empty heap, TimePoint::min() while it is awake (or already
    // notified). A push earlier than this is the only one that notifies.
    TimePoint parked_until = TimePoint::min();
    // Per-worker instruments (shared across TimerService instances with the
    // same worker index; registry pointers are stable, increments additive).
    Gauge* queue_depth = nullptr;
    HistogramMetric* dispatch_lag = nullptr;
    std::thread thread;
  };

  // Deterministic-mode state shared with every event posted to the sim
  // scheduler: events may still sit in the scheduler heap after this service
  // shuts down (or is destroyed), so the open/pending flags outlive it.
  struct SimState {
    std::atomic<bool> open{true};
    std::atomic<size_t> pending{0};
    Counter* callbacks_run = nullptr;
  };

  void WorkerLoop(Worker& worker);

  std::vector<std::unique_ptr<Worker>> workers_;
  Counter* callbacks_run_ = nullptr;
  SimScheduler* sim_ = nullptr;
  std::shared_ptr<SimState> sim_state_;

  std::atomic<AffinityToken> round_robin_{0};
  std::atomic<bool> shutdown_{false};
  std::mutex shutdown_mu_;  // serializes the join phase of concurrent Shutdowns
};

}  // namespace antipode

#endif  // SRC_COMMON_TIMER_SERVICE_H_
