// Reproduces Table 1: percentage of observed XCY inconsistencies in the
// Post-Notification application for every ⟨post-storage, notifier⟩ pair of
// off-the-shelf datastores, geo-replicated EU (writer) → US (reader), with
// no Antipode.
//
// Paper's shape: SNS row high everywhere (88–100%); AMQ row single/low-double
// digits except S3 (100%); DynamoDB-notifier row ~0% except S3 (13%).

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/post_notification/post_notification.h"

using namespace antipode;

int main(int argc, char** argv) {
  BenchArgs args(argc, argv, {"requests", "scale"});
  args.SetupTimeScale();
  const int requests = args.GetInt("requests", 400);

  const std::vector<PostStorageKind> storages = {
      PostStorageKind::kMysql, PostStorageKind::kDynamo, PostStorageKind::kRedis,
      PostStorageKind::kS3};
  const std::vector<NotifierKind> notifiers = {NotifierKind::kSns, NotifierKind::kAmq,
                                               NotifierKind::kDynamo};

  std::printf("# Table 1: %% of observed inconsistencies (no Antipode), %d requests/cell\n",
              requests);
  std::printf("%-10s", "notifier");
  for (auto storage : storages) {
    std::printf(" %10s", std::string(PostStorageName(storage)).c_str());
  }
  std::printf("\n");

  for (auto notifier : notifiers) {
    std::printf("%-10s", std::string(NotifierName(notifier)).c_str());
    for (auto storage : storages) {
      PostNotificationConfig config;
      config.post_storage = storage;
      config.notifier = notifier;
      config.antipode = false;
      config.num_requests = requests;
      PostNotificationResult result = RunPostNotification(config);
      std::printf(" %9.0f%%", 100.0 * result.ViolationRate());
      std::fflush(stdout);
    }
    std::printf("\n");
  }

  // Sanity: with Antipode every cell must be 0%.
  std::printf("\n# With Antipode enabled (violations must be 0):\n");
  std::printf("%-10s", "notifier");
  for (auto storage : storages) {
    std::printf(" %10s", std::string(PostStorageName(storage)).c_str());
  }
  std::printf("\n");
  for (auto notifier : notifiers) {
    std::printf("%-10s", std::string(NotifierName(notifier)).c_str());
    for (auto storage : storages) {
      PostNotificationConfig config;
      config.post_storage = storage;
      config.notifier = notifier;
      config.antipode = true;
      config.num_requests = requests / 4;  // barrier waits make cells slower
      PostNotificationResult result = RunPostNotification(config);
      std::printf(" %9.0f%%", 100.0 * result.ViolationRate());
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  return 0;
}
