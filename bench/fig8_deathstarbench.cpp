// Reproduces Fig. 8: DeathStarBench-style social network under open-loop
// load, original vs Antipode, for the US→EU and US→SG replication pairs.
//   (left)  average throughput vs compose latency across a load sweep;
//   (right) consistency window at peak load.
// Also reports the §7.3 violation rates (≈0.1% US→EU vs ≈34% US→SG) and the
// §7.4 maximum lineage metadata size (<200 B).

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/social_network/social_network.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

using namespace antipode;

int main(int argc, char** argv) {
  BenchArgs args(argc, argv, {"duration", "trace-out", "trace-sample", "metrics", "scale"});
  args.SetupTimeScale(0.1);
  const double duration = args.GetDouble("duration", 2.5);

  // --trace-out=<path>: collect spans for the whole sweep and export them as
  // a Chrome trace (chrome://tracing, ui.perfetto.dev), or JSONL when the
  // path ends in ".jsonl". --trace-sample=N traces one request in N.
  const std::string trace_out = args.GetString("trace-out");
  if (!trace_out.empty()) {
    Tracer::Default().Enable(static_cast<uint64_t>(args.GetInt("trace-sample", 8)));
  }
  const bool dump_metrics = args.GetInt("metrics", 0) != 0;
  MetricsRegistry::Default().SnapshotAndReset();  // drop warm-up residue

  const std::vector<double> loads = {50, 75, 100, 125, 150, 175};
  const std::vector<std::pair<Region, const char*>> pairs = {{Region::kEu, "US->EU"},
                                                             {Region::kSg, "US->SG"}};

  for (const auto& [remote, pair_name] : pairs) {
    std::printf("# Fig 8 (left): %s, throughput (req/s) vs latency (model ms), %g model s/point\n",
                pair_name, duration);
    std::printf("%-8s %14s %14s %14s | %14s %14s %14s\n", "load", "orig_tput", "orig_lat_avg",
                "orig_lat_p99", "anti_tput", "anti_lat_avg", "anti_lat_p99");
    SocialNetworkResult peak_results[2];
    for (double load : loads) {
      SocialNetworkResult results[2];
      for (int antipode = 0; antipode <= 1; ++antipode) {
        SocialNetworkConfig config;
        config.remote_region = remote;
        config.antipode = antipode == 1;
        config.load_rps = load;
        config.duration_model_seconds = duration;
        results[antipode] = RunSocialNetwork(config);
        if (load == 125) {
          peak_results[antipode] = results[antipode];
        }
      }
      std::printf("%-8.0f %14.1f %14.1f %14.1f | %14.1f %14.1f %14.1f\n", load,
                  results[0].throughput, results[0].compose_latency_model_ms.Mean(),
                  results[0].compose_latency_model_ms.Percentile(0.99), results[1].throughput,
                  results[1].compose_latency_model_ms.Mean(),
                  results[1].compose_latency_model_ms.Percentile(0.99));
      std::fflush(stdout);
    }

    std::printf("\n# Fig 8 (right): %s consistency window at peak (125 req/s), model ms\n",
                pair_name);
    std::printf("%-10s %12s %12s %12s\n", "variant", "p50", "mean", "p99");
    std::printf("%-10s %12.1f %12.1f %12.1f\n", "original",
                peak_results[0].consistency_window_model_ms.Percentile(0.5),
                peak_results[0].consistency_window_model_ms.Mean(),
                peak_results[0].consistency_window_model_ms.Percentile(0.99));
    std::printf("%-10s %12.1f %12.1f %12.1f\n", "antipode",
                peak_results[1].consistency_window_model_ms.Percentile(0.5),
                peak_results[1].consistency_window_model_ms.Mean(),
                peak_results[1].consistency_window_model_ms.Percentile(0.99));

    std::printf("\n# §7.3 %s: violation rate original=%.2f%% antipode=%.2f%%\n", pair_name,
                100.0 * peak_results[0].ViolationRate(), 100.0 * peak_results[1].ViolationRate());
    std::printf("# §7.4 %s: max lineage metadata = %.0f bytes\n", pair_name,
                peak_results[1].max_lineage_bytes);

    // One metrics window per replication pair, drained so the next pair
    // starts from zero.
    const MetricsSnapshot window = MetricsRegistry::Default().SnapshotAndReset();
    const Histogram stall = window.HistogramTotal("barrier.stall_model_ms");
    std::printf("# metrics %s: rpc.calls=%llu barrier.calls=%llu barrier.errors=%llu "
                "barrier_stall_model_ms{p50=%.1f p99=%.1f}\n\n",
                pair_name, static_cast<unsigned long long>(window.CounterTotal("rpc.calls")),
                static_cast<unsigned long long>(window.CounterTotal("barrier.calls")),
                static_cast<unsigned long long>(window.CounterTotal("barrier.errors")),
                stall.Percentile(0.5), stall.Percentile(0.99));
    if (dump_metrics) {
      std::printf("%s\n", window.ToString().c_str());
    }
  }

  if (!trace_out.empty()) {
    const bool jsonl = trace_out.size() > 6 &&
                       trace_out.compare(trace_out.size() - 6, 6, ".jsonl") == 0;
    const Status status = jsonl ? Tracer::Default().ExportJsonl(trace_out)
                                : Tracer::Default().ExportChromeTrace(trace_out);
    if (status.ok()) {
      std::printf("# trace: wrote %zu spans to %s (%s)\n", Tracer::Default().NumEvents(),
                  trace_out.c_str(), jsonl ? "jsonl" : "chrome trace-event json");
    } else {
      std::printf("# trace: export failed: %s\n", status.ToString().c_str());
    }
  }
  return 0;
}
