// Reproduces Fig. 9: TrainTicket ticket cancellation under open-loop load,
// original vs Antipode. Here the barrier sits on the request's critical path
// (the handler waits for the asynchronous refund before answering), so —
// unlike DeathStarBench — the enforcement cost shows up directly in the
// throughput–latency curve (paper: ~15% throughput, ~17% latency overhead)
// while the consistency window collapses to ~0.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/train_ticket/train_ticket.h"

using namespace antipode;

int main(int argc, char** argv) {
  BenchArgs args(argc, argv, {"duration", "scale"});
  args.SetupTimeScale(0.25);
  const double duration = args.GetDouble("duration", 2.0);

  const std::vector<double> loads = {120, 180, 240, 300, 360, 420};

  std::printf("# Fig 9: TrainTicket throughput vs latency, %g model s/point\n", duration);
  std::printf("%-8s %14s %14s %14s | %14s %14s %14s\n", "load", "orig_tput", "orig_lat_avg",
              "orig_lat_p99", "anti_tput", "anti_lat_avg", "anti_lat_p99");
  TrainTicketResult peak[2];
  for (double load : loads) {
    TrainTicketResult results[2];
    for (int antipode = 0; antipode <= 1; ++antipode) {
      TrainTicketConfig config;
      config.antipode = antipode == 1;
      config.load_rps = load;
      config.duration_model_seconds = duration;
      results[antipode] = RunTrainTicket(config);
      if (load == 360) {
        peak[antipode] = results[antipode];
      }
    }
    std::printf("%-8.0f %14.1f %14.1f %14.1f | %14.1f %14.1f %14.1f\n", load,
                results[0].throughput, results[0].cancel_latency_model_ms.Mean(),
                results[0].cancel_latency_model_ms.Percentile(0.99), results[1].throughput,
                results[1].cancel_latency_model_ms.Mean(),
                results[1].cancel_latency_model_ms.Percentile(0.99));
    std::fflush(stdout);
  }

  std::printf("\n# Fig 9 (right): consistency window at peak (360 req/s), model ms\n");
  std::printf("%-10s %12s %12s %12s %14s\n", "variant", "p50", "mean", "p99", "violations");
  std::printf("%-10s %12.2f %12.2f %12.2f %13.2f%%\n", "original",
              peak[0].consistency_window_model_ms.Percentile(0.5),
              peak[0].consistency_window_model_ms.Mean(),
              peak[0].consistency_window_model_ms.Percentile(0.99),
              100.0 * peak[0].ViolationRate());
  std::printf("%-10s %12.2f %12.2f %12.2f %13.2f%%\n", "antipode",
              peak[1].consistency_window_model_ms.Percentile(0.5),
              peak[1].consistency_window_model_ms.Mean(),
              peak[1].consistency_window_model_ms.Percentile(0.99),
              100.0 * peak[1].ViolationRate());
  return 0;
}
