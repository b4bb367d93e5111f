#include "perfbench/src/load.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench/alloc_hook.h"
#include "perfbench/src/spans.h"
#include "src/common/timer_service.h"

namespace perfbench {
namespace {

// A window must finish within this long after its last arrival; requests
// still open then count as failed.
constexpr double kDrainCapS = 15.0;
// Extra time granted before teardown when the cap was missed: tearing a bed
// down under in-flight handlers is unsafe, so past this the process exits.
constexpr double kTeardownGraceS = 30.0;
// Drain-tail rule floor (DESIGN.md §11).
constexpr double kMinDrainTailSlackS = 0.2;
constexpr uint64_t kCpuSliceNs = 1000000000;
// Knee search ladders, as multiples of the nominal rate (about half the
// knee), spaced 7-10% apart around the expected knee.
const std::vector<double> kLadderUp = {1.5, 1.7, 1.85, 2.0, 2.15, 2.3, 2.5, 2.75, 3.0};
const std::vector<double> kLadderDown = {0.75, 0.55, 0.4, 0.3, 0.2};

std::atomic<uint64_t> g_next_request_id{1};
std::atomic<uint64_t> g_next_bed{0};

struct ProcessUsage {
  double cpu_s = 0;
  double sys_s = 0;
  uint64_t context_switches = 0;  // voluntary + involuntary
};

ProcessUsage ReadUsage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return ProcessUsage{seconds(usage.ru_utime) + seconds(usage.ru_stime), seconds(usage.ru_stime),
                      static_cast<uint64_t>(usage.ru_nvcsw + usage.ru_nivcsw)};
}

void SleepUntilNs(uint64_t deadline_ns) {
  std::this_thread::sleep_until(
      std::chrono::steady_clock::time_point(std::chrono::nanoseconds(deadline_ns)));
}

// Sum over the shared timer engine's shards of timer.queue_depth.
class TimerDepthProbe {
 public:
  TimerDepthProbe() {
    const size_t shards = antipode::TimerService::Shared().num_shards();
    for (size_t i = 0; i < shards; ++i) {
      gauges_.push_back(antipode::MetricsRegistry::Default().GetGauge(
          "timer.queue_depth", {{"shard", std::to_string(i)}}));
    }
  }
  int64_t Read() const {
    int64_t depth = 0;
    for (const antipode::Gauge* gauge : gauges_) {
      depth += gauge->value();
    }
    return depth;
  }

 private:
  std::vector<antipode::Gauge*> gauges_;
};

double Ms(uint64_t later_ns, uint64_t earlier_ns) {
  return later_ns >= earlier_ns ? static_cast<double>(later_ns - earlier_ns) / 1e6 : 0.0;
}

}  // namespace

bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) {
    return false;
  }
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) {
        break;
      }
    }
    std::fclose(f);
    if (kb >= 0) {
      return static_cast<double>(kb) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

Window::Window(uint64_t planned, uint64_t first_id) : first_id_(first_id), slots_(planned) {}

void Window::MarkPublished(uint64_t index) {
  slots_[index].published_ns.store(SteadyNowNs(), std::memory_order_release);
}

void Window::MarkDelivered(uint64_t index) { slots_[index].delivered_ns = SteadyNowNs(); }

void Window::MarkBarrierStart(uint64_t index) { slots_[index].barrier_start_ns = SteadyNowNs(); }

void Window::MarkBarrierEnd(uint64_t index) { slots_[index].barrier_end_ns = SteadyNowNs(); }

void Window::Complete(uint64_t index, Outcome outcome, Carried carried) {
  Slot& slot = slots_[index];
  slot.outcome = outcome;
  slot.carried = carried;
  slot.completed_ns = SteadyNowNs();
  if (completed_.fetch_add(1, std::memory_order_acq_rel) + 1 == slots_.size()) {
    std::lock_guard<std::mutex> lock(mu_);
    all_done_.notify_all();
  }
}

bool Window::WaitAll(uint64_t deadline_ns) {
  std::unique_lock<std::mutex> lock(mu_);
  return all_done_.wait_until(
      lock, std::chrono::steady_clock::time_point(std::chrono::nanoseconds(deadline_ns)),
      [&] { return completed_.load(std::memory_order_acquire) >= slots_.size(); });
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

WindowResult RunWindow(Workload& workload, double rate, double duration_s, bool traced) {
  const WorkloadSpec& spec = workload.spec();
  const uint64_t planned = std::max<uint64_t>(1, std::llround(rate * duration_s));
  Window window(planned, g_next_request_id.fetch_add(planned));
  antipode::MetricsRegistry& registry = antipode::MetricsRegistry::Default();

  antipode::ThreadPool readers(spec.readers, "perfbench-readers");
  antipode::ThreadPool writers(spec.writers, "perfbench-writers");
  std::unique_ptr<Bed> bed =
      workload.MakeBed(BedEnv{&window, &readers, g_next_bed.fetch_add(1), traced});
  TimerDepthProbe depth_probe;

  WindowResult result;
  result.rate = rate;
  result.duration_s = duration_s;
  result.attempted = planned;
  registry.SnapshotAndReset();
  const ProcessUsage usage_start = ReadUsage();
  const uint64_t allocs_start = antipode::benchhook::AllocationCount();

  // Open loop: arrival i is due at start + i / rate whatever has completed.
  // Every arrival that is due when the generator wakes is released at once,
  // so a late wake-up never sheds load.
  const double interval_ns = 1e9 / rate;
  const uint64_t start_ns = SteadyNowNs() + 1000000;
  auto due = [&](uint64_t i) {
    return start_ns + static_cast<uint64_t>(static_cast<double>(i) * interval_ns);
  };
  uint64_t next_probe_ns = 0;
  // CPU per request is also sampled in one-second slices of the schedule:
  // CPU used in the slice over requests released in it.
  uint64_t next_slice_ns = start_ns + kCpuSliceNs;
  double slice_cpu_s = usage_start.cpu_s;
  uint64_t slice_first = 0;
  for (uint64_t i = 0; i < planned;) {
    SleepUntilNs(due(i));
    const uint64_t now = SteadyNowNs();
    for (; i < planned && due(i) <= now; ++i) {
      Window::Slot& slot = window.slot(i);
      slot.scheduled_ns = due(i);
      slot.released_ns = now;
      Bed* target = bed.get();
      writers.Submit([&window, target, i] {
        window.slot(i).started_ns = SteadyNowNs();
        ScopedSpan span(SpanKind::kWriter, window.id(i));
        target->Send(i);
      });
    }
    if (now >= next_probe_ns) {
      result.timer_queue_depth_max = std::max(result.timer_queue_depth_max, depth_probe.Read());
      next_probe_ns = now + 1000000;
    }
    if (now >= next_slice_ns && i > slice_first) {
      const double cpu_s = ReadUsage().cpu_s;
      result.cpu_slices_us.push_back((cpu_s - slice_cpu_s) * 1e6 /
                                     static_cast<double>(i - slice_first));
      slice_cpu_s = cpu_s;
      slice_first = i;
      next_slice_ns += kCpuSliceNs;
    }
  }
  const uint64_t gen_end_ns = due(planned);

  result.drained =
      window.WaitAll(gen_end_ns + static_cast<uint64_t>(kDrainCapS * 1e9));
  const uint64_t drain_end_ns = SteadyNowNs();
  const ProcessUsage usage_end = ReadUsage();
  result.cpu_s = usage_end.cpu_s - usage_start.cpu_s;
  result.sys_s = usage_end.sys_s - usage_start.sys_s;
  result.context_switches = usage_end.context_switches - usage_start.context_switches;
  result.allocs = antipode::benchhook::AllocationCount() - allocs_start;
  result.registry = registry.SnapshotAndReset();
  result.drain_tail_s = Ms(drain_end_ns, gen_end_ns) / 1e3;
  result.sustained =
      result.drained && result.drain_tail_s <= std::max(0.5 * duration_s, kMinDrainTailSlackS);

  writers.Shutdown();
  if (!result.drained &&
      !window.WaitAll(SteadyNowNs() + static_cast<uint64_t>(kTeardownGraceS * 1e9))) {
    std::fprintf(stderr, "perfbench: %s window at %.1f req/s never drained; aborting\n",
                 spec.name.c_str(), rate);
    std::fflush(stdout);
    std::_Exit(3);
  }
  readers.Shutdown();
  bed.reset();
  // Hand the freed part of the bed's memory back to the system, so a later
  // window's RSS is not an accident of what the allocator kept cached.
  malloc_trim(0);

  const uint64_t finish_cap_ns = gen_end_ns + static_cast<uint64_t>(kDrainCapS * 1e9);
  double wire_bytes = 0;
  double deps = 0;
  for (uint64_t i = 0; i < planned; ++i) {
    const Window::Slot& slot = window.slot(i);
    result.gen_late_ms.push_back(Ms(slot.released_ns, slot.scheduled_ns));
    result.queue_ms.push_back(Ms(slot.started_ns, slot.scheduled_ns));
    if (slot.completed_ns > finish_cap_ns) {
      ++result.unfinished;
      continue;
    }
    ++result.completed;
    result.latency_ms.push_back(Ms(slot.completed_ns, slot.scheduled_ns));
    const uint64_t published = slot.published_ns.load(std::memory_order_acquire);
    if (published != 0 && slot.delivered_ns >= published) {
      result.delivery_ms.push_back(Ms(slot.delivered_ns, published));
    }
    if (slot.barrier_end_ns != 0) {
      result.barrier_async_ms.push_back(Ms(slot.barrier_end_ns, slot.barrier_start_ns));
    }
    switch (slot.outcome) {
      case Outcome::kOk:
        break;
      case Outcome::kViolation:
        ++result.violations;
        break;
      case Outcome::kBarrierError:
        ++result.barrier_errors;
        break;
      case Outcome::kReadError:
        ++result.read_errors;
        break;
      case Outcome::kWriteError:
        ++result.write_errors;
        break;
    }
    wire_bytes += slot.carried.wire_bytes;
    deps += slot.carried.deps;
    if (traced) {
      result.encode_ns.push_back(slot.carried.encode_ns);
      result.decode_ns.push_back(slot.carried.decode_ns);
    }
  }
  result.failed = result.unfinished + result.violations + result.barrier_errors +
                  result.read_errors + result.write_errors;
  if (result.completed > 0) {
    wire_bytes /= static_cast<double>(result.completed);
    deps /= static_cast<double>(result.completed);
  }
  result.wire_bytes_mean = wire_bytes;
  result.deps_mean = deps;
  result.p50_ms = Quantile(result.latency_ms, 0.50);
  result.p99_ms = Quantile(result.latency_ms, 0.99);
  return result;
}

WindowResult Merge(const std::vector<WindowResult>& parts) {
  WindowResult merged;
  merged.drained = true;
  int sustained = 0;
  std::vector<double> p50s;
  auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  double wire_bytes = 0;
  double deps = 0;
  for (const WindowResult& part : parts) {
    merged.rate = part.rate;
    merged.duration_s += part.duration_s;
    merged.attempted += part.attempted;
    merged.completed += part.completed;
    merged.failed += part.failed;
    merged.violations += part.violations;
    merged.barrier_errors += part.barrier_errors;
    merged.read_errors += part.read_errors;
    merged.write_errors += part.write_errors;
    merged.unfinished += part.unfinished;
    merged.drained = merged.drained && part.drained;
    sustained += part.sustained ? 1 : 0;
    p50s.push_back(part.p50_ms);
    merged.drain_tail_s = std::max(merged.drain_tail_s, part.drain_tail_s);
    merged.cpu_s += part.cpu_s;
    merged.sys_s += part.sys_s;
    merged.context_switches += part.context_switches;
    merged.allocs += part.allocs;
    merged.timer_queue_depth_max = std::max(merged.timer_queue_depth_max,
                                            part.timer_queue_depth_max);
    wire_bytes += part.wire_bytes_mean * static_cast<double>(part.completed);
    deps += part.deps_mean * static_cast<double>(part.completed);
    append(merged.latency_ms, part.latency_ms);
    append(merged.cpu_slices_us, part.cpu_slices_us);
    append(merged.encode_ns, part.encode_ns);
    append(merged.decode_ns, part.decode_ns);
    append(merged.gen_late_ms, part.gen_late_ms);
    append(merged.queue_ms, part.queue_ms);
    append(merged.delivery_ms, part.delivery_ms);
    append(merged.barrier_async_ms, part.barrier_async_ms);
  }
  if (merged.completed > 0) {
    merged.wire_bytes_mean = wire_bytes / static_cast<double>(merged.completed);
    merged.deps_mean = deps / static_cast<double>(merged.completed);
  }
  merged.sustained = 2 * sustained > static_cast<int>(parts.size());
  merged.p50_ms = Quantile(p50s, 0.50);
  // p99 pools the latencies of the windows whose own p99 is at or below the
  // median window's: a window's p99 swings with the few slowest replications
  // it drew, and pooling evens that out; leaving out the upper half keeps a
  // stall of the shared machine that spans one or two windows out.
  std::vector<size_t> by_p99(parts.size());
  for (size_t i = 0; i < parts.size(); ++i) {
    by_p99[i] = i;
  }
  std::sort(by_p99.begin(), by_p99.end(),
            [&](size_t a, size_t b) { return parts[a].p99_ms < parts[b].p99_ms; });
  std::vector<double> tail_pool;
  for (size_t k = 0; k < (parts.size() + 1) / 2; ++k) {
    append(tail_pool, parts[by_p99[k]].latency_ms);
  }
  merged.p99_ms = Quantile(std::move(tail_pool), 0.99);
  return merged;
}

bool Sustainable(const WindowResult& window, double latency_limit_ms) {
  return window.failed == 0 && window.sustained && window.p99_ms <= latency_limit_ms;
}

bool GeneratorBound(const WindowResult& window) {
  return Quantile(window.gen_late_ms, 0.99) > kGeneratorLateLimitMs;
}

namespace {

// The rate at which p99 crosses `limit`, estimated from every window of the
// search: a non-decreasing fit of log p99 against rate (pool adjacent
// violators) smooths out a window the shared machine disturbed, and the
// crossing is interpolated in log rate between the fitted points around it.
// A window that fails for another reason (errors, growing backlog) counts as
// far over the limit.
double LimitCrossing(const WindowResult& nominal,
                     const std::vector<std::unique_ptr<WindowResult>>& runs, double limit) {
  std::vector<std::pair<double, double>> points;  // (rate, log p99)
  auto add = [&](const WindowResult& window) {
    const bool other_failure = window.failed != 0 || !window.sustained;
    const double p99 = other_failure ? std::max(window.p99_ms, 4 * limit) : window.p99_ms;
    points.emplace_back(window.rate, std::log(std::max(p99, 1e-3)));
  };
  add(nominal);
  for (const auto& window : runs) {
    add(*window);
  }
  std::sort(points.begin(), points.end());
  struct Block {
    double sum = 0;
    int count = 0;
    double mean() const { return sum / count; }
  };
  std::vector<Block> blocks;
  std::vector<int> block_of;  // fitted block of each point
  for (const auto& point : points) {
    blocks.push_back(Block{point.second, 1});
    while (blocks.size() >= 2 && blocks[blocks.size() - 2].mean() > blocks.back().mean()) {
      blocks[blocks.size() - 2].sum += blocks.back().sum;
      blocks[blocks.size() - 2].count += blocks.back().count;
      blocks.pop_back();
    }
  }
  std::vector<double> fitted;
  for (const Block& block : blocks) {
    fitted.insert(fitted.end(), block.count, block.mean());
  }
  const double log_limit = std::log(limit);
  for (size_t i = 0; i < points.size(); ++i) {
    if (fitted[i] <= log_limit) {
      continue;
    }
    if (i == 0) {
      return 0;  // over the limit even at the lowest rate tried
    }
    const double f = (log_limit - fitted[i - 1]) / (fitted[i] - fitted[i - 1]);
    return points[i - 1].first * std::pow(points[i].first / points[i - 1].first, f);
  }
  return points.back().first;  // never crossed: a lower bound
}

}  // namespace

KneeResult FindKnee(Workload& workload, const WindowResult& nominal, double step_s,
                    int max_windows, double budget_s, std::vector<WindowResult>* windows) {
  const double limit = workload.spec().latency_limit_ms;
  const uint64_t deadline_ns = SteadyNowNs() + static_cast<uint64_t>(budget_s * 1e9);
  // A fixed ladder of rates (multiples of the nominal rate; fractions of it
  // when the nominal rate itself is over), climbed until two windows in a
  // row are over. The same rates on every run keep the estimate free of the
  // search path.
  const bool nominal_ok = Sustainable(nominal, limit);
  std::vector<std::unique_ptr<WindowResult>> runs;
  int overs_in_a_row = 0;
  KneeResult knee;
  const WindowResult* highest_sustained = nominal_ok ? &nominal : nullptr;
  for (double factor : nominal_ok ? kLadderUp : kLadderDown) {
    if (static_cast<int>(runs.size()) >= max_windows || SteadyNowNs() >= deadline_ns) {
      break;
    }
    const double rate = nominal.rate * factor;
    runs.push_back(std::make_unique<WindowResult>(RunWindow(workload, rate, step_s, false)));
    const WindowResult& window = *runs.back();
    const bool ok = Sustainable(window, limit);
    std::printf("# knee step %8.1f req/s: p99 %8.2f ms, drain tail %5.2f s, gen late p99 %.3f ms, "
                "failed %llu -> %s\n",
                rate, window.p99_ms, window.drain_tail_s, Quantile(window.gen_late_ms, 0.99),
                static_cast<unsigned long long>(window.failed), ok ? "sustained" : "over");
    if (ok && (highest_sustained == nullptr || rate > highest_sustained->rate)) {
      highest_sustained = &window;
    }
    overs_in_a_row = ok ? 0 : overs_in_a_row + 1;
    if ((nominal_ok && overs_in_a_row == 2) || (!nominal_ok && ok)) {
      break;
    }
  }
  knee.generator_bound = highest_sustained != nullptr && GeneratorBound(*highest_sustained);
  knee.max_req_s = LimitCrossing(nominal, runs, limit);
  for (const auto& window : runs) {
    windows->push_back(*window);
  }
  return knee;
}

}  // namespace perfbench
