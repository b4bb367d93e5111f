// Ablation A (paper §6.3 / §7.4): where should barrier be placed?
//
// Compares three strategies on the Post-Notification flow (MySQL post
// storage, SNS notifier):
//   1. none              — baseline, violations allowed;
//   2. off-critical-path — barrier right after the notification arrives,
//                          before any user-visible read (the DSB placement);
//   3. every-read        — the "fully automated" naïve strategy: a barrier
//                          immediately preceding every read, including reads
//                          whose lineage is already visible (modelled by an
//                          extra read of the author profile that the request
//                          performs before the post read).
//
// The off-path placement fixes all violations at the cost of delaying only
// the notification delivery; barrier-before-every-read additionally stalls
// unrelated reads, inflating user-visible read latency.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/antipode/antipode.h"
#include "src/common/thread_pool.h"
#include "src/context/request_context.h"
#include "src/store/kv_store.h"
#include "src/store/pubsub_store.h"
#include "src/store/sql_store.h"

using namespace antipode;

namespace {

enum class Placement { kNone, kOffPath, kEveryRead };

struct Outcome {
  int violations = 0;
  Histogram read_latency_ms;   // user-visible read path
  Histogram notif_delay_ms;    // notification publish -> delivered to user
};

Outcome RunPlacement(Placement placement, int requests) {
  static int run = 0;
  const std::string suffix = std::to_string(run++);
  const std::vector<Region> regions = {Region::kEu, Region::kUs};

  SqlStore posts(SqlStore::DefaultOptions("abl-mysql-" + suffix, regions));
  posts.CreateTable("posts", {"id", "content"}, "id");
  SqlShim post_shim(&posts);
  post_shim.InstrumentTable("posts");

  // Author profiles: written long ago, fully replicated — reads of them
  // never *need* a barrier.
  KvStore profiles(KvStore::DefaultOptions("abl-profiles-" + suffix, regions));
  KvShim profile_shim(&profiles);
  profile_shim.WriteCtx(Region::kUs, "profile:alice", "alice's profile");

  PubSubStore notif(PubSubStore::DefaultOptions("abl-sns-" + suffix, regions));
  PubSubShim notif_shim(&notif);

  ShimRegistry registry;
  registry.Register(&post_shim);
  registry.Register(&profile_shim);
  registry.Register(&notif_shim);

  ThreadPool writers(16, "writers");
  ThreadPool readers(16, "readers");
  Outcome outcome;
  ConcurrentHistogram read_latency;
  ConcurrentHistogram notif_delay;
  std::atomic<int> violations{0};
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;

  notif_shim.Subscribe(Region::kUs, "posts", &readers, [&](const ConsumedMessage& message) {
    Deserializer d(message.payload);
    const std::string post_id = *d.ReadString();
    const auto publish_time = TimePoint(TimePoint::duration(
        static_cast<int64_t>(*d.ReadUint64())));

    if (placement == Placement::kOffPath) {
      // Enforce everything once, before the user-visible phase begins.
      Barrier(message.lineage, Region::kUs, BarrierOptions{.registry = &registry});
    }
    notif_delay.Record(TimeScale::ToModelMillis(std::chrono::duration_cast<Duration>(
        SystemClock::Instance().Now() - publish_time)));

    // --- user-visible phase: read profile, then the post ---
    const TimePoint read_begin = SystemClock::Instance().Now();
    RequestContext context;
    ScopedContext scoped(std::move(context));
    LineageApi::Install(message.lineage);
    if (placement == Placement::kEveryRead) {
      BarrierCtx(Region::kUs, BarrierOptions{.registry = &registry});
    }
    profile_shim.ReadCtx(Region::kUs, "profile:alice");
    if (placement == Placement::kEveryRead) {
      BarrierCtx(Region::kUs, BarrierOptions{.registry = &registry});
    }
    const bool found =
        post_shim.SelectByPkCtx(Region::kUs, "posts", Value(post_id)).ok();
    read_latency.Record(TimeScale::ToModelMillis(std::chrono::duration_cast<Duration>(
        SystemClock::Instance().Now() - read_begin)));
    if (!found) {
      violations.fetch_add(1, std::memory_order_relaxed);
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      ++done;
    }
    cv.notify_all();
  });

  for (int i = 0; i < requests; ++i) {
    writers.Submit([&, i] {
      RequestContext context;
      ScopedContext scoped(std::move(context));
      LineageApi::Root();
      Row row{{"id", Value("p" + std::to_string(i))}, {"content", Value(std::string(512, 'x'))}};
      post_shim.InsertCtx(Region::kEu, "posts", std::move(row));
      Serializer s;
      s.WriteString("p" + std::to_string(i));
      s.WriteUint64(
          static_cast<uint64_t>(SystemClock::Instance().Now().time_since_epoch().count()));
      notif_shim.PublishCtx(Region::kEu, "posts", s.Release());
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done >= requests; });
  }
  writers.Shutdown();
  readers.Shutdown();

  outcome.violations = violations.load();
  outcome.read_latency_ms = read_latency.Snapshot();
  outcome.notif_delay_ms = notif_delay.Snapshot();
  return outcome;
}

const char* PlacementName(Placement placement) {
  switch (placement) {
    case Placement::kNone:
      return "none";
    case Placement::kOffPath:
      return "off-critical-path";
    case Placement::kEveryRead:
      return "before-every-read";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args(argc, argv, {"requests", "scale"});
  args.SetupTimeScale();
  const int requests = args.GetInt("requests", 150);

  std::printf("# Ablation A: barrier placement (MySQL posts, SNS notifier, EU->US), "
              "%d requests\n",
              requests);
  std::printf("%-20s %12s %16s %16s %16s\n", "placement", "violations", "user_read_p50",
              "user_read_p99", "notif_delay_p50");
  for (Placement placement :
       {Placement::kNone, Placement::kOffPath, Placement::kEveryRead}) {
    Outcome outcome = RunPlacement(placement, requests);
    std::printf("%-20s %12d %16.1f %16.1f %16.1f\n", PlacementName(placement),
                outcome.violations, outcome.read_latency_ms.Percentile(0.5),
                outcome.read_latency_ms.Percentile(0.99),
                outcome.notif_delay_ms.Percentile(0.5));
    std::fflush(stdout);
  }
  std::printf("# expected: off-path fixes violations while user reads stay ~instant;\n");
  std::printf("#           before-every-read also fixes them but stalls the user-visible "
              "read path\n");
  return 0;
}
