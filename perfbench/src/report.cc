#include "perfbench/src/report.h"

#include <cmath>
#include <cstdio>
#include <initializer_list>

#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

double PerRequest(double total, uint64_t requests) {
  return requests == 0 ? 0.0 : total / static_cast<double>(requests);
}

double Ratio(double part, double whole) { return whole == 0 ? 0.0 : part / whole; }

const LayerStats& Layer(const SpanSummary& spans, SpanKind kind) {
  return spans.layers[static_cast<size_t>(kind)];
}

// Mean self CPU per span of the given kinds, in microseconds.
double SelfCpuUs(const SpanSummary& spans, std::initializer_list<SpanKind> kinds) {
  double cpu_us = 0;
  uint64_t count = 0;
  for (SpanKind kind : kinds) {
    cpu_us += static_cast<double>(Layer(spans, kind).self_cpu_ns) / 1e3;
    count += Layer(spans, kind).count;
  }
  return PerRequest(cpu_us, count);
}

// Median over the window's one-second slices when it has them: robust to a
// slice the shared machine slowed down.
double CpuUsPerRequest(const WindowResult& window) {
  return window.cpu_slices_us.empty() ? PerRequest(window.cpu_s * 1e6, window.completed)
                                      : Quantile(window.cpu_slices_us, 0.5);
}

double WallQuantileUs(const SpanSummary& spans, SpanKind kind, double q) {
  return Quantile(Layer(spans, kind).wall_us, q);
}

}  // namespace

std::vector<Metric> EndToEndMetrics(const EndToEndInputs& inputs) {
  const WindowResult& nominal = *inputs.nominal;
  return {
      {"p50_ms", nominal.p50_ms, "ms"},
      {"p99_ms", nominal.p99_ms, "ms"},
      {"cpu_us_per_req", CpuUsPerRequest(nominal), "us"},
      {"allocs_per_req", PerRequest(static_cast<double>(nominal.allocs), nominal.completed),
       "count"},
      {"metadata_bytes_per_req", nominal.wire_bytes_mean, "B"},
      {"setup_s", inputs.setup_s, "s"},
      {"peak_rss_mb", inputs.peak_rss_mb, "MB"},
  };
}

std::vector<Metric> PerLayerMetrics(const WindowResult& traced, const WindowResult& untraced,
                                    const SpanSummary& spans) {
  const antipode::MetricsSnapshot& registry = traced.registry;
  const uint64_t n = traced.completed;
  auto counter = [&](const char* name) {
    return static_cast<double>(registry.CounterTotal(name));
  };
  auto histogram_quantile = [&](const char* name, double q) {
    const antipode::Histogram histogram = registry.HistogramTotal(name);
    return histogram.count() == 0 ? 0.0 : histogram.Percentile(q);
  };

  // Barrier wall time, call to outcome: BarrierAsync launch to continuation,
  // plus every synchronous Barrier span. On the mesh the barrier runs inside
  // RunReaderSide, so the registry's per-barrier stall (model ms) is scaled
  // back to wall ms instead.
  std::vector<double> barrier_waits_ms = traced.barrier_async_ms;
  for (double us : Layer(spans, SpanKind::kBarrier).wall_us) {
    barrier_waits_ms.push_back(us / 1e3);
  }
  auto barrier_wait_ms = [&](double q) {
    return !barrier_waits_ms.empty()
               ? Quantile(barrier_waits_ms, q)
               : histogram_quantile("barrier.stall_model_ms", q) * kTimeScale;
  };
  const double hits = counter("barrier.cache_hit");
  const double misses = counter("barrier.cache_miss");
  const double reads = counter("store.reads");
  const double traced_cpu = CpuUsPerRequest(traced);
  const double untraced_cpu = CpuUsPerRequest(untraced);

  return {
      // bench generator
      {"gen.late_ms.p99", Quantile(traced.gen_late_ms, 0.99), "ms"},
      {"writer.queue_ms.p50", Quantile(traced.queue_ms, 0.50), "ms"},
      {"writer.queue_ms.p99", Quantile(traced.queue_ms, 0.99), "ms"},
      // context + lineage codec
      {"lineage.deps_per_req", traced.deps_mean, "count"},
      {"lineage.wire_bytes", traced.wire_bytes_mean, "B"},
      {"lineage.encode_ns.p50", Quantile(traced.encode_ns, 0.50), "ns"},
      {"lineage.decode_ns.p50", Quantile(traced.decode_ns, 0.50), "ns"},
      {"ctx.root.cpu_us", SelfCpuUs(spans, {SpanKind::kCtxRoot}), "us"},
      // shims
      {"shim.write.cpu_us", SelfCpuUs(spans, {SpanKind::kShimWrite}), "us"},
      {"shim.write.p99_us", WallQuantileUs(spans, SpanKind::kShimWrite, 0.99), "us"},
      {"shim.publish.cpu_us", SelfCpuUs(spans, {SpanKind::kShimPublish}), "us"},
      {"shim.publish.p99_us", WallQuantileUs(spans, SpanKind::kShimPublish, 0.99), "us"},
      {"shim.read.cpu_us", SelfCpuUs(spans, {SpanKind::kShimRead}), "us"},
      {"shim.read.p99_us", WallQuantileUs(spans, SpanKind::kShimRead, 0.99), "us"},
      // enforcement
      {"barrier.calls_per_req", PerRequest(counter("barrier.calls"), n), "count"},
      {"barrier.wait_ms.p50", barrier_wait_ms(0.50), "ms"},
      {"barrier.wait_ms.p99", barrier_wait_ms(0.99), "ms"},
      {"barrier.cpu_us", SelfCpuUs(spans, {SpanKind::kBarrier, SpanKind::kBarrierLaunch}), "us"},
      {"barrier.cache_hit_ratio", Ratio(hits, hits + misses), "ratio"},
      {"barrier.zero_wait_ratio", Ratio(counter("barrier.zero_wait"), counter("barrier.calls")),
       "ratio"},
      {"barrier.deadline_exceeded", counter("barrier.deadline_exceeded"), "count"},
      {"frontier.lag_ms.p99", histogram_quantile("frontier.lag_ms", 0.99), "ms"},
      // store + event engine
      {"delivery.wait_ms.p50", Quantile(traced.delivery_ms, 0.50), "ms"},
      {"delivery.wait_ms.p99", Quantile(traced.delivery_ms, 0.99), "ms"},
      {"store.writes_per_req", PerRequest(counter("store.writes"), n), "count"},
      {"store.reads_per_req", PerRequest(reads, n), "count"},
      {"store.read_miss_ratio", Ratio(counter("store.read_misses"), reads), "ratio"},
      {"store.bytes_written_per_req", PerRequest(counter("store.bytes_written"), n), "B"},
      {"store.replication_lag_model_ms.p50",
       histogram_quantile("store.replication_lag_model_ms", 0.50), "ms"},
      {"timer.callbacks_per_req", PerRequest(counter("timer.callbacks_run"), n), "count"},
      {"timer.dispatch_lag_ms.p99", histogram_quantile("timer.dispatch_lag_ms", 0.99), "ms"},
      {"timer.queue_depth.max", static_cast<double>(traced.timer_queue_depth_max), "count"},
      {"background.cpu_us_per_req",
       PerRequest(traced.cpu_s * 1e6 - static_cast<double>(spans.root_cpu_ns) / 1e3, n), "us"},
      // rpc + net + mesh
      {"rpc.calls_per_req", PerRequest(counter("rpc.calls"), n), "count"},
      {"rpc.retries", counter("rpc.retries"), "count"},
      {"rpc.latency_model_ms.p50", histogram_quantile("rpc.latency_model_ms", 0.50), "ms"},
      {"net.messages_per_req", PerRequest(counter("net.messages"), n), "count"},
      {"net.bytes_per_req", PerRequest(counter("net.bytes"), n), "B"},
      {"mesh.writer.cpu_us", SelfCpuUs(spans, {SpanKind::kMeshWriter}), "us"},
      {"mesh.writer.p50_ms", WallQuantileUs(spans, SpanKind::kMeshWriter, 0.50) / 1e3, "ms"},
      {"mesh.reader.cpu_us", SelfCpuUs(spans, {SpanKind::kMeshReader}), "us"},
      {"mesh.reader.p50_ms", WallQuantileUs(spans, SpanKind::kMeshReader, 0.50) / 1e3, "ms"},
      // tracing itself
      {"trace.overhead_pct", untraced_cpu == 0 ? 0.0 : (traced_cpu / untraced_cpu - 1.0) * 100.0,
       "pct"},
  };
}

bool PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  bool well_formed = true;
  std::printf("\n%-36s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& metric : metrics) {
    std::printf("%-36s %16.6f  %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
    if (!ValidMetricName(metric.name) || !std::isfinite(metric.value)) {
      std::fprintf(stderr, "perfbench: malformed metric %s = %f\n", metric.name.c_str(),
                   metric.value);
      well_formed = false;
    }
  }
  std::printf("%-36s %16.6f  %s\n", "error_rate",
              attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted),
              "ratio");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct && well_formed ? "true" : "false",
              static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& metric = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metric.name.c_str(), std::isfinite(metric.value) ? metric.value : 0.0,
                metric.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return well_formed;
}

}  // namespace perfbench
