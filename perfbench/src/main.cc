// The repository benchmark: one open-loop workload per process.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 (end-to-end): set-up is timed five times (median reported), then
// nominal-rate windows totalling --seconds give latency, CPU, allocation and
// metadata figures, and a knee search finds the highest sustainable rate.
// --trace 1 (per-layer): one untraced and one traced window at the nominal
// rate, half of --seconds each; the traced one records spans around every
// call into a layer, and the registry counters of the program itself.
//
// Every window's every request is checked (see Outcome); the process exits
// non-zero when any request failed or a fault/retry/deadline counter moved.

#include <sys/prctl.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/src/cli.h"
#include "perfbench/src/load.h"
#include "perfbench/src/report.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/workloads.h"
#include "src/common/clock.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 5;
constexpr int kNominalParts = 5;
constexpr double kWarmupS = 0.25;
// Knee search: each probe window lasts kKneeStepS; at most kKneeWindows windows.
constexpr double kKneeStepS = 2.0;
constexpr int kKneeWindows = 9;
// Keeps a run well inside its time limit on a slow machine.
constexpr double kKneeBudgetS = 60.0;
// Requests whose spans go into the Chrome trace file.
constexpr uint64_t kTraceExportRequests = 400;

// Failures and counters that must stay zero, summed over every window.
struct Gate {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t rpc_retries = 0;
  uint64_t faults_injected = 0;

  void Add(const WindowResult& window) {
    attempted += window.attempted;
    failed += window.failed;
    deadline_exceeded += window.registry.CounterTotal("barrier.deadline_exceeded");
    rpc_retries += window.registry.CounterTotal("rpc.retries");
    faults_injected += window.registry.CounterTotal("fault.injected");
  }

  bool Passed() const {
    return failed == 0 && deadline_exceeded == 0 && rpc_retries == 0 && faults_injected == 0;
  }

  void Print() const {
    std::printf("# gate: attempted %llu, failed %llu, barrier.deadline_exceeded %llu, "
                "rpc.retries %llu, fault.injected %llu -> %s\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(deadline_exceeded),
                static_cast<unsigned long long>(rpc_retries),
                static_cast<unsigned long long>(faults_injected), Passed() ? "pass" : "FAIL");
  }
};

void PrintWindow(const char* label, const WindowResult& window) {
  std::printf("# %-8s %8.1f req/s x %5.2f s: %llu/%llu done, p50 %8.3f ms, p99 %8.3f ms, "
              "drain tail %5.2f s, cpu %7.2f us/req (sys %4.1f%%, %.2f csw/req), gen late p99 "
              "%.3f ms, failed %llu "
              "(viol %llu, barrier %llu, read %llu, write %llu, unfinished %llu)\n",
              label, window.rate, window.duration_s,
              static_cast<unsigned long long>(window.completed),
              static_cast<unsigned long long>(window.attempted), window.p50_ms, window.p99_ms,
              window.drain_tail_s,
              window.completed == 0 ? 0.0 : window.cpu_s * 1e6 / window.completed,
              window.cpu_s == 0 ? 0.0 : 100.0 * window.sys_s / window.cpu_s,
              window.completed == 0 ? 0.0
                                    : static_cast<double>(window.context_switches) / window.completed,
              Quantile(window.gen_late_ms, 0.99), static_cast<unsigned long long>(window.failed),
              static_cast<unsigned long long>(window.violations),
              static_cast<unsigned long long>(window.barrier_errors),
              static_cast<unsigned long long>(window.read_errors),
              static_cast<unsigned long long>(window.write_errors),
              static_cast<unsigned long long>(window.unfinished));
}

// Prepare + a warm-up window, timed as a whole.
double TimedSetup(Workload& workload, Gate* gate) {
  const uint64_t start = SteadyNowNs();
  workload.Prepare();
  const WindowResult warmup =
      RunWindow(workload, workload.spec().nominal_req_s, kWarmupS, /*traced=*/false);
  const double seconds = static_cast<double>(SteadyNowNs() - start) / 1e9;
  PrintWindow("warm-up", warmup);
  gate->Add(warmup);
  return seconds;
}

int RunEndToEnd(Workload& workload, const Flags& flags) {
  const WorkloadSpec& spec = workload.spec();
  Gate gate;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    setups.push_back(TimedSetup(workload, &gate));
  }
  const double setup_s = Quantile(setups, 0.5);
  std::printf("# set-up:");
  for (double s : setups) {
    std::printf(" %.4f", s);
  }
  std::printf(" s -> median %.4f s\n", setup_s);

  // The nominal-rate measurement is split over several fresh beds, so no
  // single bed's luck decides the figures. The RSS peak is the first
  // window's: each later one adds what the program keeps after its stores
  // are gone (README.md, workload notes).
  const double part_s = static_cast<double>(flags.seconds) / kNominalParts;
  std::vector<WindowResult> parts;
  double peak_rss_mb = 0;
  ResetPeakRss();
  for (int i = 0; i < kNominalParts; ++i) {
    parts.push_back(RunWindow(workload, spec.nominal_req_s, part_s, /*traced=*/false));
    if (i == 0) {
      peak_rss_mb = PeakRssMb();
    }
    PrintWindow("part", parts.back());
    gate.Add(parts.back());
  }
  const WindowResult nominal = Merge(parts);
  PrintWindow("nominal", nominal);

  std::vector<WindowResult> steps;
  const KneeResult knee = FindKnee(workload, nominal, kKneeStepS, kKneeWindows, kKneeBudgetS,
                                   &steps);
  for (const WindowResult& step : steps) {
    gate.Add(step);
  }
  // max_req_s is reported here, not among the result's metrics: its spread
  // across seeds on mesh-deep exceeds any bound a result metric may carry
  // (see README.md).
  std::printf("# knee: max_req_s %.1f req/s under p99 <= %.0f ms%s\n", knee.max_req_s,
              spec.latency_limit_ms,
              knee.generator_bound ? " (generator-bound: a lower bound, not a knee)" : "");
  std::printf("# latency samples at nominal rate: %zu over %d windows\n",
              nominal.latency_ms.size(), kNominalParts);

  gate.Print();
  const bool correct = gate.Passed();
  const bool printed = PrintResult(
      correct, gate.attempted, gate.failed,
      EndToEndMetrics({&nominal, setup_s, peak_rss_mb}));
  return correct && printed ? 0 : 1;
}

int RunTraced(Workload& workload, const Flags& flags) {
  const WorkloadSpec& spec = workload.spec();
  Gate gate;
  TimedSetup(workload, &gate);
  const double window_s = std::max(1.0, flags.seconds / 2.0);

  const WindowResult untraced = RunWindow(workload, spec.nominal_req_s, window_s, false);
  PrintWindow("untraced", untraced);
  gate.Add(untraced);

  SetSpansEnabled(true);
  const WindowResult traced = RunWindow(workload, spec.nominal_req_s, window_s, true);
  SetSpansEnabled(false);
  PrintWindow("traced", traced);
  gate.Add(traced);
  const std::vector<SpanRecord> spans = CollectSpans();
  const SpanSummary summary = Summarize(spans);

  // Every request must have left exactly one writer span.
  const uint64_t writer_spans = summary.layers[static_cast<size_t>(SpanKind::kWriter)].count;
  bool spans_ok = writer_spans == traced.attempted;
  if (!spans_ok) {
    std::fprintf(stderr, "perfbench: %llu writer spans for %llu requests\n",
                 static_cast<unsigned long long>(writer_spans),
                 static_cast<unsigned long long>(traced.attempted));
  }
  std::printf("\n%-14s %10s %14s %14s %12s\n", "span", "count", "self cpu us", "self wall us",
              "p50 us");
  for (size_t k = 0; k < static_cast<size_t>(SpanKind::kCount); ++k) {
    const LayerStats& layer = summary.layers[k];
    if (layer.count == 0) {
      continue;
    }
    std::printf("%-14.*s %10llu %14.3f %14.3f %12.3f\n",
                static_cast<int>(SpanName(static_cast<SpanKind>(k)).size()),
                SpanName(static_cast<SpanKind>(k)).data(),
                static_cast<unsigned long long>(layer.count),
                static_cast<double>(layer.self_cpu_ns) / 1e3 / layer.count,
                static_cast<double>(layer.self_wall_ns) / 1e3 / layer.count,
                Quantile(layer.wall_us, 0.5));
  }
  const std::string trace_path =
      flags.trace_dir + "/trace-" + spec.name + "-" + std::to_string(flags.seed) + ".json";
  if (WriteChromeTrace(trace_path, spans, kTraceExportRequests)) {
    std::printf("# wrote %zu spans' trace (first %llu requests) to %s\n", spans.size(),
                static_cast<unsigned long long>(kTraceExportRequests), trace_path.c_str());
  } else {
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
    spans_ok = false;
  }

  gate.Print();
  const bool correct = gate.Passed() && spans_ok;
  const bool printed = PrintResult(correct, gate.attempted, gate.failed,
                                   PerLayerMetrics(traced, untraced, summary));
  return correct && printed ? 0 : 1;
}

int Main(int argc, char** argv) {
  Flags flags;
  const std::string error = ParseFlags(argc, argv, &flags);
  if (flags.help && error.empty()) {
    std::printf("%s", Usage().c_str());
    return 0;
  }
  if (!error.empty()) {
    std::fprintf(stderr, "perfbench: %s\n%s", error.c_str(), Usage().c_str());
    return 2;
  }
  // Tight timer slack keeps the generator (this thread) on schedule. Every
  // thread started later inherits it, so the program's simulated delays of a
  // few microseconds are slept as such, not rounded up to the kernel's
  // default 50 us.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  antipode::TimeScale::Set(kTimeScale);
  std::unique_ptr<Workload> workload = MakeWorkload(flags.workload, flags.seed);
  const WorkloadSpec& spec = workload->spec();
  std::printf("# perfbench %s: seed %llu, %d s, trace %d, time scale %.3f, nominal %.0f req/s, "
              "p99 limit %.0f ms, threads 1 generator + %zu writers + %zu readers\n",
              spec.name.c_str(), static_cast<unsigned long long>(flags.seed), flags.seconds,
              flags.trace ? 1 : 0, kTimeScale, spec.nominal_req_s, spec.latency_limit_ms,
              spec.writers, spec.readers);
  return flags.trace ? RunTraced(*workload, flags) : RunEndToEnd(*workload, flags);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
