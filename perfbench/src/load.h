// Open-loop load harness: a generator thread releases requests on a fixed
// schedule into a writer pool, whatever the system's progress, and every
// request is timed from its scheduled arrival to the completion of its last
// read. One Window is one such run at one rate; the knee search strings
// windows together to find the highest sustainable rate.

#ifndef PERFBENCH_SRC_LOAD_H_
#define PERFBENCH_SRC_LOAD_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/obs/metrics.h"

namespace perfbench {

enum class Outcome : uint8_t {
  kOk,
  kViolation,     // an enforced read did not find what the barrier promised (XCY)
  kBarrierError,  // the barrier returned an error (deadline exceeded)
  kReadError,     // a shim read failed, or returned other data than was written
  kWriteError,    // the write side failed (shim write/publish, RPC)
};

// What the read side saw of the lineage a request carried at its hand-off.
struct Carried {
  uint32_t wire_bytes = 0;
  uint32_t deps = 0;
  // Traced run only: time to serialize / deserialize that lineage once.
  uint32_t encode_ns = 0;
  uint32_t decode_ns = 0;
};

// Bookkeeping for the requests of one window. Each slot field is written by
// one thread (generator, writer job or completing thread); Complete publishes
// the slot to the harness through the completion counter.
class Window {
 public:
  struct Slot {
    uint64_t scheduled_ns = 0;
    uint64_t released_ns = 0;
    uint64_t started_ns = 0;
    std::atomic<uint64_t> published_ns{0};
    uint64_t delivered_ns = 0;
    uint64_t barrier_start_ns = 0;
    uint64_t barrier_end_ns = 0;
    uint64_t completed_ns = 0;
    Carried carried;
    Outcome outcome = Outcome::kOk;
  };

  Window(uint64_t planned, uint64_t first_id);

  uint64_t planned() const { return slots_.size(); }
  // Process-unique request id of window request `index`.
  uint64_t id(uint64_t index) const { return first_id_ + index; }
  Slot& slot(uint64_t index) { return slots_[index]; }

  // Write side: the request's publish call returned.
  void MarkPublished(uint64_t index);
  // Read side: the consumer callback started (delivery wait = now - publish).
  void MarkDelivered(uint64_t index);
  // Read side: an asynchronous barrier was launched / its continuation ran.
  void MarkBarrierStart(uint64_t index);
  void MarkBarrierEnd(uint64_t index);
  // The request is done; call exactly once per request.
  void Complete(uint64_t index, Outcome outcome, Carried carried = {});

  // Waits until every planned request completed or `deadline_ns` passed.
  bool WaitAll(uint64_t deadline_ns);

 private:
  uint64_t first_id_;
  std::vector<Slot> slots_;
  std::atomic<uint64_t> completed_{0};
  std::mutex mu_;
  std::condition_variable all_done_;
};

// One workload's system under test for one window: stores, shims, pools.
// Send runs the write side on a writer-pool thread; the read side completes
// the request through the window, on whichever thread it runs.
class Bed {
 public:
  virtual ~Bed() = default;
  virtual void Send(uint64_t index) = 0;
};

struct BedEnv {
  Window* window = nullptr;
  antipode::ThreadPool* readers = nullptr;
  uint64_t ordinal = 0;  // distinct per bed in a process: store names, derived seeds
  bool traced = false;
};

struct WorkloadSpec {
  std::string name;
  double nominal_req_s = 0;
  // p99 limit (ms) a rate must meet to count as sustainable in the knee search.
  double latency_limit_ms = 0;
  size_t writers = 1;
  size_t readers = 2;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const WorkloadSpec& spec() const = 0;
  // Builds inputs shared by every bed of the run (the mesh topology). Timed
  // as part of set-up.
  virtual void Prepare() {}
  virtual std::unique_ptr<Bed> MakeBed(const BedEnv& env) = 0;
};

struct WindowResult {
  double rate = 0;
  double duration_s = 0;
  uint64_t attempted = 0;
  uint64_t completed = 0;  // finished, whatever the outcome
  uint64_t failed = 0;     // not finished within the drain cap, or a bad outcome
  uint64_t violations = 0;
  uint64_t barrier_errors = 0;
  uint64_t read_errors = 0;
  uint64_t write_errors = 0;
  uint64_t unfinished = 0;
  std::vector<double> latency_ms;  // finished requests, from scheduled arrival
  double p50_ms = 0;
  double p99_ms = 0;
  bool drained = false;
  double drain_tail_s = 0;
  bool sustained = false;  // drain-tail rule (DESIGN.md §11)
  double cpu_s = 0;        // process user+sys over generation + drain
  std::vector<double> cpu_slices_us;  // CPU per request of each one-second slice
  double sys_s = 0;        // the sys part of cpu_s
  uint64_t context_switches = 0;
  uint64_t allocs = 0;
  double wire_bytes_mean = 0;
  double deps_mean = 0;
  std::vector<double> encode_ns;
  std::vector<double> decode_ns;
  std::vector<double> gen_late_ms;
  std::vector<double> queue_ms;     // scheduled arrival -> writer job start
  std::vector<double> delivery_ms;  // publish returned -> consumer callback
  std::vector<double> barrier_async_ms;  // BarrierAsync launch -> continuation
  int64_t timer_queue_depth_max = 0;
  antipode::MetricsSnapshot registry;  // every instrument, drained at window end
};

// Runs one window: builds pools and a bed, generates `rate` req/s for
// `duration_s`, waits for completion (up to the drain cap), tears down.
WindowResult RunWindow(Workload& workload, double rate, double duration_s, bool traced);

// Pools windows run back to back at one rate into one result: samples are
// concatenated, counts summed, means weighted. p50 is the median of the
// windows' own; p99 is taken over the pooled latencies of the windows whose
// own p99 is at or below the median window's; the result is sustained when
// most windows were. So a stall of the shared machine that spans a minority
// of the windows decides none of them. The registry is left empty.
WindowResult Merge(const std::vector<WindowResult>& parts);

// Whether a window at its rate is sustainable: every request succeeded, the
// drain-tail rule holds and p99 is within `latency_limit_ms`.
bool Sustainable(const WindowResult& window, double latency_limit_ms);
// Whether the generator fell behind its schedule by more than it may.
bool GeneratorBound(const WindowResult& window);

// Highest sustainable rate: where a monotone fit of p99 against rate, over the
// nominal windows and a ladder of faster (or, if the nominal rate is over,
// slower) windows, crosses the workload's limit. Starts at most `max_windows`
// windows, and none once `budget_s` has passed; each is appended to
// `windows`.
struct KneeResult {
  double max_req_s = 0;
  // The generator fell behind in the highest sustainable window, so that rate
  // was not really offered: max_req_s is a lower bound, not a knee.
  bool generator_bound = false;
};
KneeResult FindKnee(Workload& workload, const WindowResult& nominal, double step_s,
                    int max_windows, double budget_s, std::vector<WindowResult>* windows);

// Restarts the process's resident-set high-water mark (VmHWM) from the
// current RSS (Linux: "5" written to /proc/self/clear_refs). False where that
// is not possible.
bool ResetPeakRss();
// VmHWM in MB; the lifetime peak from getrusage where /proc has no answer.
double PeakRssMb();

// Linear-interpolated quantile of unsorted samples; 0 when empty.
double Quantile(std::vector<double> values, double q);

// Generator lateness above which a window is generator-bound.
inline constexpr double kGeneratorLateLimitMs = 10.0;

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LOAD_H_
