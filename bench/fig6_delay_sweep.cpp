// Reproduces Fig. 6: percentage of inconsistencies in Post-Notification as a
// function of an artificial delay inserted before publishing the
// notification (notifier = SNS). More delay gives the post more time to
// replicate, so every curve decreases; S3's heavy replication tail keeps its
// curve high (~20% even at 50 s in the paper).

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/post_notification/post_notification.h"

using namespace antipode;

int main(int argc, char** argv) {
  BenchArgs args(argc, argv, {"requests", "scale"});
  args.SetupTimeScale();
  const int requests = args.GetInt("requests", 200);

  const std::vector<double> delays_ms = {0, 250, 500, 1000, 2000, 5000, 10000, 30000, 50000};
  const std::vector<PostStorageKind> storages = {
      PostStorageKind::kMysql, PostStorageKind::kDynamo, PostStorageKind::kRedis,
      PostStorageKind::kS3};

  std::printf("# Fig 6: %% inconsistencies vs artificial pre-notification delay "
              "(notifier=SNS, no Antipode), %d requests/point\n",
              requests);
  std::printf("%-12s", "delay_ms");
  for (auto storage : storages) {
    std::printf(" %10s", std::string(PostStorageName(storage)).c_str());
  }
  std::printf("\n");

  for (double delay : delays_ms) {
    std::printf("%-12.0f", delay);
    for (auto storage : storages) {
      PostNotificationConfig config;
      config.post_storage = storage;
      config.notifier = NotifierKind::kSns;
      config.antipode = false;
      config.artificial_delay_model_millis = delay;
      config.num_requests = requests;
      config.writer_concurrency = 64;
      PostNotificationResult result = RunPostNotification(config);
      std::printf(" %9.1f%%", 100.0 * result.ViolationRate());
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  return 0;
}
