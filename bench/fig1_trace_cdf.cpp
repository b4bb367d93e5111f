// Reproduces Fig. 1: CDFs over the Alibaba-style trace — (left) number of
// calls to stateful services per request, (right) number of unique stateful
// services called per request. The synthetic generator is calibrated to the
// published statistics (§2.1): >20% of requests make ≥20 stateful calls;
// >50% touch ≥5 unique stateful services; 10% touch >20; avg depth >4.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/trace/call_graph.h"

using namespace antipode;

namespace {

double FractionAtLeast(const Histogram& h, double threshold) {
  // 1 - CDF(threshold-epsilon).
  double below = 0.0;
  for (const auto& [value, cumulative] : h.Cdf()) {
    if (value < threshold) {
      below = cumulative;
    } else {
      break;
    }
  }
  return 1.0 - below;
}

void PrintCdf(const char* title, const Histogram& h, double cutoff_quantile) {
  std::printf("\n# %s (CDF, cut at p%.0f like the paper)\n", title, cutoff_quantile * 100);
  std::printf("%-12s %8s\n", "value", "cdf");
  double last_printed = -1.0;
  for (const auto& [value, cumulative] : h.Cdf()) {
    if (cumulative > cutoff_quantile) {
      break;
    }
    if (value - last_printed < 0.5) {
      continue;  // thin out sub-integer buckets
    }
    std::printf("%-12.1f %8.3f\n", value, cumulative);
    last_printed = value;
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args(argc, argv, {"requests"});
  const auto requests = static_cast<uint32_t>(args.GetInt("requests", 100000));

  CallGraphGenerator generator(TraceGenOptions{});
  TraceAnalysis analysis = AnalyzeTrace(generator, requests);

  std::printf("# Fig 1: Alibaba-style trace, %u synthetic requests\n", requests);
  std::printf("# calibration targets vs measured:\n");
  std::printf("#   >=20 stateful calls:    target >20%%   measured %5.1f%%\n",
              100.0 * FractionAtLeast(analysis.stateful_calls_per_request, 20));
  std::printf("#   >=5 unique stateful:    target >50%%   measured %5.1f%%\n",
              100.0 * FractionAtLeast(analysis.unique_stateful_per_request, 5));
  std::printf("#   >20 unique stateful:    target ~10%%   measured %5.1f%%\n",
              100.0 * FractionAtLeast(analysis.unique_stateful_per_request, 21));
  std::printf("#   avg call depth:         target >4     measured %5.1f\n",
              analysis.depth_per_request.Mean());

  PrintCdf("Fig 1 (left): calls to stateful services per request",
           analysis.stateful_calls_per_request, 0.95);
  PrintCdf("Fig 1 (right): unique stateful services per request",
           analysis.unique_stateful_per_request, 0.99);
  return 0;
}
