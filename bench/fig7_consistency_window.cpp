// Reproduces Fig. 7: the consistency window of Post-Notification (post
// written at the Writer -> Reader reads it) for each post-storage, in the
// original application and with Antipode (notifier = SNS).
//
// Original: reads proceed immediately when the notification arrives (many of
// them inconsistent), so the window is just the notification delay.
// Antipode: barrier blocks until the post is visible, so the window tracks
// each datastore's replication delay — ~1 s for MySQL, tens of seconds for
// S3 (the paper measured ≈18 s average for S3).

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/post_notification/post_notification.h"
#include "src/obs/metrics.h"

using namespace antipode;

int main(int argc, char** argv) {
  BenchArgs args(argc, argv, {"requests", "metrics", "scale"});
  args.SetupTimeScale();
  const int requests = args.GetInt("requests", 200);
  const bool dump_metrics = args.GetInt("metrics", 0) != 0;
  MetricsRegistry::Default().SnapshotAndReset();  // drop warm-up residue

  const std::vector<PostStorageKind> storages = {
      PostStorageKind::kMysql, PostStorageKind::kDynamo, PostStorageKind::kRedis,
      PostStorageKind::kS3};

  std::printf("# Fig 7: consistency window (model ms), notifier=SNS, %d requests/cell\n",
              requests);
  std::printf("%-10s %12s %12s %12s | %12s %12s %12s\n", "storage", "orig_p50", "orig_mean",
              "orig_p99", "anti_p50", "anti_mean", "anti_p99");

  for (auto storage : storages) {
    Histogram windows[2];
    for (int antipode = 0; antipode <= 1; ++antipode) {
      PostNotificationConfig config;
      config.post_storage = storage;
      config.notifier = NotifierKind::kSns;
      config.antipode = antipode == 1;
      config.num_requests = requests;
      config.writer_concurrency = 64;
      PostNotificationResult result = RunPostNotification(config);
      windows[antipode] = result.consistency_window_model_ms;
    }
    std::printf("%-10s %12.0f %12.0f %12.0f | %12.0f %12.0f %12.0f\n",
                std::string(PostStorageName(storage)).c_str(), windows[0].Percentile(0.5),
                windows[0].Mean(), windows[0].Percentile(0.99), windows[1].Percentile(0.5),
                windows[1].Mean(), windows[1].Percentile(0.99));
    // Per-storage metrics window (barrier stall = what Antipode paid to close
    // the inconsistency), drained so the next storage starts from zero.
    const MetricsSnapshot window = MetricsRegistry::Default().SnapshotAndReset();
    const Histogram stall = window.HistogramTotal("barrier.stall_model_ms");
    std::printf("# metrics %s: barrier.calls=%llu barrier_stall_model_ms{p50=%.0f p99=%.0f} "
                "store.writes=%llu\n",
                std::string(PostStorageName(storage)).c_str(),
                static_cast<unsigned long long>(window.CounterTotal("barrier.calls")),
                stall.Percentile(0.5), stall.Percentile(0.99),
                static_cast<unsigned long long>(window.CounterTotal("store.writes")));
    if (dump_metrics) {
      std::printf("%s\n", window.ToString().c_str());
    }
    std::fflush(stdout);
  }
  return 0;
}
