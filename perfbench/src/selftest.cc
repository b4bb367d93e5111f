// Self-test of the benchmark's own arithmetic and rules: per-layer self time
// (span time minus the part its children cover), span summaries, the metric
// name charset, and the strict flag parser. Exits non-zero on any failure.

#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/src/cli.h"
#include "perfbench/src/spans.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Check(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++g_failures;
  }
}

SpanRecord Span(SpanKind kind, uint64_t start, uint64_t end, uint64_t cpu, uint32_t parent = 0) {
  SpanRecord span;
  span.kind = kind;
  span.start_ns = start;
  span.end_ns = end;
  span.cpu_ns = cpu;
  span.parent = parent;
  return span;
}

void TestSelfTime() {
  const SpanRecord parent = Span(SpanKind::kDeliver, 100, 200, 60);
  Check(SelfWallNs(parent, {}) == 100, "childless span: self wall = duration");
  Check(SelfCpuNs(parent, {}) == 60, "childless span: self cpu = cpu");

  const SpanRecord a = Span(SpanKind::kBarrier, 110, 150, 10);
  const SpanRecord b = Span(SpanKind::kShimRead, 160, 180, 15);
  Check(SelfWallNs(parent, {&a, &b}) == 40, "disjoint children: 100 - 40 - 20");
  Check(SelfCpuNs(parent, {&a, &b}) == 35, "children cpu subtracts: 60 - 10 - 15");

  const SpanRecord overlap = Span(SpanKind::kShimRead, 140, 170, 5);
  Check(SelfWallNs(parent, {&a, &overlap}) == 40, "overlapping children count once: [110,170)");

  const SpanRecord spill = Span(SpanKind::kShimRead, 190, 260, 5);
  const SpanRecord before = Span(SpanKind::kShimRead, 50, 105, 5);
  Check(SelfWallNs(parent, {&spill, &before}) == 85, "children clipped to the parent");

  const SpanRecord greedy = Span(SpanKind::kBarrier, 100, 200, 90);
  Check(SelfCpuNs(parent, {&greedy}) == 0, "self cpu clamps at zero");
  Check(SelfWallNs(parent, {&greedy}) == 0, "fully covered parent has no self wall time");

  const SpanRecord open = Span(SpanKind::kDeliver, 100, 0, 0);
  Check(SelfWallNs(open, {}) == 0, "unfinished span has no wall time");
}

void TestSummarize() {
  // writer(0..100, cpu 50) -> shim.write(10..40, cpu 20) -> nothing
  //                        -> shim.publish(50..70, cpu 10)
  // deliver(200..300, cpu 30) -> barrier(210..290, cpu 5)
  std::vector<SpanRecord> spans = {
      Span(SpanKind::kWriter, 0, 100, 50),
      Span(SpanKind::kShimWrite, 10, 40, 20, 1),
      Span(SpanKind::kShimPublish, 50, 70, 10, 1),
      Span(SpanKind::kDeliver, 200, 300, 30),
      Span(SpanKind::kBarrier, 210, 290, 5, 4),
  };
  const SpanSummary summary = Summarize(spans);
  auto layer = [&](SpanKind kind) { return summary.layers[static_cast<size_t>(kind)]; };
  Check(layer(SpanKind::kWriter).self_wall_ns == 50, "writer self wall = 100 - 30 - 20");
  Check(layer(SpanKind::kWriter).self_cpu_ns == 20, "writer self cpu = 50 - 20 - 10");
  Check(layer(SpanKind::kShimWrite).self_wall_ns == 30, "leaf self wall = duration");
  Check(layer(SpanKind::kDeliver).self_wall_ns == 20, "deliver self wall = 100 - 80");
  Check(layer(SpanKind::kDeliver).self_cpu_ns == 25, "deliver self cpu = 30 - 5");
  Check(layer(SpanKind::kBarrier).count == 1, "one barrier span");
  Check(summary.root_cpu_ns == 80, "root cpu sums parentless spans only");
  Check(layer(SpanKind::kShimRead).count == 0, "absent kinds stay empty");

  uint64_t self_total = 0;
  for (const LayerStats& stats : summary.layers) {
    self_total += stats.self_cpu_ns;
  }
  Check(self_total == summary.root_cpu_ns, "self cpu over all layers adds up to root cpu");
}

void TestRecorder() {
  SetSpansEnabled(true);
  {
    ScopedSpan outer(SpanKind::kDeliver, 7);
    ScopedSpan inner(SpanKind::kBarrier, 7);
  }
  SetSpansEnabled(false);
  { ScopedSpan ignored(SpanKind::kWriter, 8); }
  const std::vector<SpanRecord> spans = CollectSpans();
  Check(spans.size() == 2, "recorder keeps enabled spans only");
  if (spans.size() == 2) {
    Check(spans[0].kind == SpanKind::kDeliver && spans[0].parent == 0, "outer span is a root");
    Check(spans[1].kind == SpanKind::kBarrier && spans[1].parent == 1, "inner span's parent");
    Check(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns,
          "child nests inside parent");
    Check(spans[0].request == 7, "request id carried");
  }
  Check(CollectSpans().empty(), "collect drains the buffers");
}

void TestMetricNames() {
  Check(ValidMetricName("p99_ms"), "plain name");
  Check(ValidMetricName("store.replication_lag_model_ms.p50"), "dotted name");
  Check(ValidMetricName("9-lives"), "leading digit and dash");
  Check(!ValidMetricName(""), "empty name");
  Check(!ValidMetricName(".p50"), "leading dot");
  Check(!ValidMetricName("_x"), "leading underscore");
  Check(!ValidMetricName("cpu us"), "space");
  Check(!ValidMetricName("lag/ms"), "slash");
  Check(!ValidMetricName("café"), "non-ascii");
  Check(ValidMetricName(std::string(64, 'a')), "64 characters");
  Check(!ValidMetricName(std::string(65, 'a')), "65 characters");
  for (size_t k = 0; k < static_cast<size_t>(SpanKind::kCount); ++k) {
    Check(ValidMetricName(SpanName(static_cast<SpanKind>(k))), "span names are metric-safe");
  }
}

std::string Parse(std::vector<const char*> args, Flags* flags) {
  args.insert(args.begin(), "perfbench");
  return ParseFlags(static_cast<int>(args.size()), args.data(), flags);
}

void TestFlags() {
  Flags flags;
  Check(Parse({"--workload", "mesh-deep", "--seed", "42", "--seconds", "10", "--trace", "1"},
              &flags)
            .empty(),
        "space-separated flags parse");
  Check(flags.workload == "mesh-deep" && flags.seed == 42 && flags.seconds == 10 && flags.trace,
        "values land");
  Flags eq;
  Check(Parse({"--workload=post-notify", "--seed=0", "--seconds=1", "--trace=0"}, &eq).empty(),
        "= form parses");
  Flags bad;
  Check(!Parse({"--workload", "post-notify", "--seed", "1", "--seconds", "5", "--trace", "0",
                "--sede", "2"},
               &bad)
             .empty(),
        "unknown flag rejected");
  Check(!Parse({"--workload", "nope", "--seed", "1", "--seconds", "5", "--trace", "0"}, &bad)
             .empty(),
        "unknown workload rejected");
  Check(!Parse({"--workload", "post-notify", "--seconds", "5", "--trace", "0"}, &bad).empty(),
        "missing seed rejected");
  Check(!Parse({"--workload", "post-notify", "--seed", "-1", "--seconds", "5", "--trace", "0"},
               &bad)
             .empty(),
        "negative seed rejected");
  Check(!Parse({"--workload", "post-notify", "--seed", "1", "--seconds", "0", "--trace", "0"},
               &bad)
             .empty(),
        "zero seconds rejected");
  Check(!Parse({"--workload", "post-notify", "--seed", "1", "--seconds", "5", "--trace", "2"},
               &bad)
             .empty(),
        "trace must be 0 or 1");
  Check(!Parse({"--workload", "post-notify", "--seed", "1", "--seed", "2", "--seconds", "5",
                "--trace", "0"},
               &bad)
             .empty(),
        "duplicate flag rejected");
  Check(!Parse({"--workload"}, &bad).empty(), "missing value rejected");
  Check(!Parse({"stray"}, &bad).empty(), "positional argument rejected");
  Flags help;
  Check(Parse({"--help"}, &help).empty() && help.help, "--help needs no other flag");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestSelfTime();
  perfbench::TestSummarize();
  perfbench::TestRecorder();
  perfbench::TestMetricNames();
  perfbench::TestFlags();
  if (perfbench::g_failures != 0) {
    std::fprintf(stderr, "perfbench selftest: %d failure(s)\n", perfbench::g_failures);
    return 1;
  }
  std::printf("perfbench selftest: ok\n");
  return 0;
}
