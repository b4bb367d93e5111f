// Ablation C (paper §8): Antipode vs a FlightTracker-style centralized
// ticket service for the same end-to-end guarantee on the post-notification
// flow. Both prevent the violation; the difference is *where the metadata
// lives*:
//   * Antipode piggybacks lineages on messages — zero extra round trips;
//   * FlightTracker's writers and readers each pay a round trip to the
//     ticket metadata service (centralized in one region), so user-facing
//     operations from remote regions inflate with WAN latency.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/antipode/antipode.h"
#include "src/baseline/flight_tracker.h"
#include "src/common/thread_pool.h"
#include "src/context/request_context.h"
#include "src/store/kv_store.h"
#include "src/store/pubsub_store.h"

using namespace antipode;

namespace {

struct Outcome {
  int violations = 0;
  Histogram writer_latency_ms;
  Histogram reader_wait_ms;
  uint64_t metadata_rpcs = 0;
};

enum class Mode { kAntipode, kFlightTracker };

Outcome Run(Mode mode, int requests) {
  static int run = 0;
  const std::string suffix = std::to_string(run++);
  const std::vector<Region> regions = {Region::kUs, Region::kEu};

  auto post_options = KvStore::DefaultOptions("ft-posts-" + suffix, regions);
  post_options.replication.median_millis = 400.0;
  KvStore posts(std::move(post_options));
  PubSubStore notif(PubSubStore::DefaultOptions("ft-notif-" + suffix, regions));
  KvShim post_shim(&posts);
  PubSubShim notif_shim(&notif);
  ShimRegistry registry;
  registry.Register(&post_shim);
  registry.Register(&notif_shim);

  // FlightTracker's metadata service lives in US; the *writer* is in EU, so
  // its ticket updates cross the WAN.
  TicketService tickets(Region::kUs);
  FlightTrackerClient ft(&tickets, &registry);

  ThreadPool writers(8, "writers");
  ThreadPool readers(8, "readers");
  ConcurrentHistogram writer_latency;
  ConcurrentHistogram reader_wait;
  std::atomic<int> violations{0};
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;

  notif_shim.Subscribe(Region::kUs, "posts", &readers, [&](const ConsumedMessage& message) {
    const TimePoint begin = SystemClock::Instance().Now();
    if (mode == Mode::kAntipode) {
      Barrier(message.lineage, Region::kUs, BarrierOptions{.registry = &registry});
    } else {
      // The reader consults the centralized ticket service (the payload
      // names the writer session), then waits for the ticketed writes.
      ft.BeforeRead(Region::kUs, "user-" + message.payload);
    }
    reader_wait.Record(TimeScale::ToModelMillis(std::chrono::duration_cast<Duration>(
        SystemClock::Instance().Now() - begin)));
    const bool found = post_shim.Read(Region::kUs, "post-" + message.payload).ok();
    if (!found) {
      violations.fetch_add(1);
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      ++done;
    }
    cv.notify_all();
  });

  for (int i = 0; i < requests; ++i) {
    writers.Submit([&, i] {
      const TimePoint begin = SystemClock::Instance().Now();
      RequestContext context;
      ScopedContext scoped(std::move(context));
      LineageApi::Root();
      const std::string id = std::to_string(i);
      post_shim.WriteCtx(Region::kEu, "post-" + id, "content");
      if (mode == Mode::kFlightTracker) {
        ft.OnWrite(Region::kEu, "user-" + id, WriteId{posts.name(), "post-" + id, 1});
      }
      notif_shim.PublishCtx(Region::kEu, "posts", id);
      writer_latency.Record(TimeScale::ToModelMillis(std::chrono::duration_cast<Duration>(
          SystemClock::Instance().Now() - begin)));
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done >= requests; });
  }
  writers.Shutdown();
  readers.Shutdown();
  posts.DrainReplication();
  notif.DrainReplication();

  Outcome outcome;
  outcome.violations = violations.load();
  outcome.writer_latency_ms = writer_latency.Snapshot();
  outcome.reader_wait_ms = reader_wait.Snapshot();
  outcome.metadata_rpcs = tickets.rpc_count();
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args(argc, argv, {"requests", "scale"});
  args.SetupTimeScale();
  const int requests = args.GetInt("requests", 150);

  std::printf("# Ablation C: Antipode vs FlightTracker-style centralized tickets "
              "(EU writer, US reader, %d requests)\n",
              requests);
  std::printf("%-15s %12s %16s %16s %15s\n", "mode", "violations", "writer_lat_p50",
              "reader_wait_p50", "metadata_rpcs");
  for (Mode mode : {Mode::kAntipode, Mode::kFlightTracker}) {
    Outcome outcome = Run(mode, requests);
    std::printf("%-15s %12d %16.1f %16.1f %15llu\n",
                mode == Mode::kAntipode ? "antipode" : "flight-tracker", outcome.violations,
                outcome.writer_latency_ms.Percentile(0.5), outcome.reader_wait_ms.Percentile(0.5),
                static_cast<unsigned long long>(outcome.metadata_rpcs));
  }
  std::printf("# expected: both prevent violations; FlightTracker adds a WAN round trip to\n");
  std::printf("#           every write and metadata RPCs proportional to operations\n");
  return 0;
}
