// Chaos suite: the post-notification and media-service apps (Antipode on)
// driven under seeded fault schedules, checking the recovery contract end to
// end:
//   * 0 XCY violations — barriers absorb every injected stall/outage/drop;
//   * no hangs — every schedule's windows are finite, so the suite
//     terminating at all is the liveness assertion (ctest enforces a
//     timeout on the smoke run);
//   * recovery-time and retry-amplification histograms — region-outage
//     durations from store.region_outage_ms, per-call RPC attempt counts
//     from a synthetic `chaos-probe` service that calls through the same
//     retry machinery the fault rules shape.
//
// Three schedules (ISSUE 5): `partition` severs replication out of the
// written stores, `outage` takes whole regions of them down and heals,
// `drop-spike` combines broker delivery drops, transient apply errors, and a
// WAN latency spike. Each is seeded: same --seed, same fault decisions — and
// each runs under BOTH enforcement backends (lineage and stable-frontier), so
// the zero-violations contract is asserted per strategy on identical faults.
//
// A fourth scenario (`sg-isolation`, ISSUE 8) asserts the remote-failure
// isolation guarantee of locality scoping: a seeded SG region outage must add
// no latency to US↔EU traffic whose stores never replicate to SG (the scoped
// deployment skips every SG ⟨store, region⟩ pair — barrier.scoped_skip > 0),
// while the locality-oblivious baseline — fully replicated stores behind the
// same deployment-wide barrier — stalls on SG until heal. Asserted per
// backend: 0 violations in every leg, scoped p99 within noise of the
// no-fault control, unscoped p99 strictly worse.
//
// Flags: --scale, --requests, --seed, --quick (tiny run for CI smoke),
//        --json-out=<path> (machine-readable per-schedule report).

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/media_service/media_service.h"
#include "src/apps/post_notification/post_notification.h"
#include "src/common/histogram.h"
#include "src/fault/fault_injector.h"
#include "src/obs/metrics.h"
#include "src/rpc/rpc.h"

using namespace antipode;

namespace {

// Window lengths in model ms, measured from FaultInjector::Arm. The app runs
// span tens of thousands of model ms at the default scale, so the faults
// bite during the early requests and heal mid-run; the tail runs clean.
constexpr double kFaultWindowModelMs = 5000.0;
constexpr double kQuickWindowModelMs = 1500.0;

struct Schedule {
  std::string name;
  FaultPlan plan;
};

FaultRule StoreRule(FaultKind kind, const std::string& prefix, double end_ms,
                    double probability = 1.0) {
  FaultRule rule;
  rule.kind = kind;
  rule.store = prefix;
  rule.end_model_ms = end_ms;
  rule.probability = probability;
  return rule;
}

FaultRule ProbeRule(FaultKind kind, double end_ms, double probability) {
  FaultRule rule;
  rule.kind = kind;
  rule.service = "chaos-probe";
  rule.end_model_ms = end_ms;
  rule.probability = probability;
  return rule;
}

// The three seeded schedules, scoped by store-name prefix to the stores the
// two apps create ("Redis-post-*" / "SNS-notif-*" for post-notification;
// "media-s3-*" / "reviews-mongo-*" / "events-rabbit-*" for media-service).
std::vector<Schedule> BuildSchedules(uint64_t seed, double window_ms) {
  std::vector<Schedule> schedules;

  {
    // Replication out of the written stores is partitioned from t=0; the
    // notifier keeps flowing, so without barriers this is the classic XCY
    // race amplified.
    FaultPlan plan{"partition", seed, {}};
    plan.rules.push_back(StoreRule(FaultKind::kLinkPartition, "Redis-post-", window_ms));
    plan.rules.push_back(StoreRule(FaultKind::kLinkPartition, "media-s3-", window_ms));
    plan.rules.push_back(StoreRule(FaultKind::kLinkPartition, "reviews-mongo-", window_ms));
    plan.rules.push_back(ProbeRule(FaultKind::kRpcFailure, window_ms * 0.5, 0.7));
    schedules.push_back({"partition", std::move(plan)});
  }
  {
    // Whole-region outage of the written stores, healed mid-run: buffered
    // backlogs replay and store.region_outage_ms records the recovery time.
    FaultPlan plan{"outage-heal", seed + 1, {}};
    plan.rules.push_back(StoreRule(FaultKind::kRegionOutage, "Redis-post-", window_ms));
    plan.rules.push_back(StoreRule(FaultKind::kRegionOutage, "media-s3-", window_ms));
    plan.rules.push_back(StoreRule(FaultKind::kRegionOutage, "reviews-mongo-", window_ms));
    FaultRule delay = ProbeRule(FaultKind::kRpcDelay, window_ms * 0.5, 1.0);
    delay.delay_add_model_ms = 120.0;  // pushes the probe past its attempt timeout
    plan.rules.push_back(delay);
    schedules.push_back({"outage-heal", std::move(plan)});
  }
  {
    // Broker deliveries dropped (redelivered after the ack timeout), applies
    // transiently erroring (retried internally), and a WAN latency spike.
    FaultPlan plan{"drop-spike", seed + 2, {}};
    plan.rules.push_back(
        StoreRule(FaultKind::kQueueDropDelivery, "SNS-notif-", window_ms, 0.5));
    plan.rules.push_back(
        StoreRule(FaultKind::kQueueDropDelivery, "events-rabbit-", window_ms, 0.5));
    plan.rules.push_back(StoreRule(FaultKind::kStoreApplyError, "Redis-post-", window_ms, 0.3));
    plan.rules.push_back(
        StoreRule(FaultKind::kStoreApplyError, "reviews-mongo-", window_ms, 0.3));
    FaultRule spike;
    spike.kind = FaultKind::kLinkDelay;
    spike.end_model_ms = window_ms;
    spike.delay_factor = 3.0;
    spike.delay_add_model_ms = 10.0;
    plan.rules.push_back(spike);
    plan.rules.push_back(ProbeRule(FaultKind::kRpcFailure, window_ms * 0.5, 0.5));
    schedules.push_back({"drop-spike", std::move(plan)});
  }
  return schedules;
}

// One leg of the sg-isolation scenario: the post-notification flow (writer
// EU, reader US) behind the conservative deployment-wide barrier over
// {US, EU, SG}. The scoped legs deploy the stores on {EU, US} only — every
// dependency's locality scope excludes SG, so the barrier skips the SG pairs;
// the unscoped leg replicates to all three regions and arms the SG waits.
struct IsolationLeg {
  const char* name;
  bool sg_outage;         // arm the seeded SG region outage
  bool full_replication;  // stores replicate to SG too (the oblivious bed)
  bool use_scope;
};

struct IsolationLegResult {
  double p99_ms = 0.0;
  int violations = 0;
  uint64_t scoped_skips = 0;
};

IsolationLegResult RunIsolationLeg(const IsolationLeg& leg, EnforcementBackendKind backend,
                                   int requests, uint64_t seed, double window_ms) {
  MetricsRegistry::Default().SnapshotAndReset();  // clean counters per leg
  if (leg.sg_outage) {
    FaultPlan plan{"sg-outage", seed, {}};
    FaultRule rule;
    rule.kind = FaultKind::kRegionOutage;
    rule.to = Region::kSg;  // any store's SG replica buffers until heal
    rule.end_model_ms = window_ms;
    plan.rules.push_back(rule);
    FaultInjector::Default().Arm(std::move(plan));
  }

  PostNotificationConfig post;
  post.post_storage = PostStorageKind::kRedis;
  post.notifier = NotifierKind::kSns;
  post.antipode = true;
  post.backend = backend;
  post.num_requests = requests;
  post.seed = seed;
  post.store_regions = leg.full_replication
                           ? std::vector<Region>{Region::kEu, Region::kUs, Region::kSg}
                           : std::vector<Region>{Region::kEu, Region::kUs};
  post.barrier_regions = {Region::kUs, Region::kEu, Region::kSg};
  post.use_scope = leg.use_scope;
  PostNotificationResult result = RunPostNotification(post);

  if (leg.sg_outage) {
    FaultInjector::Default().Disarm();
  }
  IsolationLegResult out;
  out.p99_ms = result.consistency_window_model_ms.Percentile(0.99);
  out.violations = result.violations;
  out.scoped_skips = MetricsRegistry::Default().GetCounter("barrier.scoped_skip")->value();
  return out;
}

// Sequential retrying calls against a throwaway service while the schedule's
// rpc rules are live; returns the per-call attempt counts (1 = no retry).
Histogram RunRpcProbe(int calls) {
  ServiceRegistry registry;
  RpcService* svc = registry.RegisterService("chaos-probe", Region::kUs, 2);
  svc->RegisterMethod("ping",
                      [](const std::string& payload) { return Result<std::string>(payload); });
  RpcClient client(&registry, Region::kUs);  // default injector, like the apps
  RpcCallOptions options;
  options.timeout = TimeScale::FromModelMillis(80.0);
  options.retry.max_attempts = 4;
  options.retry.initial_backoff_model_ms = 40.0;

  Histogram attempts;
  MetricsRegistry& metrics = MetricsRegistry::Default();
  for (int i = 0; i < calls; ++i) {
    const uint64_t before = metrics.GetCounter("rpc.retries", {{"service", "chaos-probe"}})->value();
    client.Call("chaos-probe", "ping", "p" + std::to_string(i), options);
    const uint64_t after = metrics.GetCounter("rpc.retries", {{"service", "chaos-probe"}})->value();
    attempts.Record(1.0 + static_cast<double>(after - before));
  }
  registry.ShutdownAll();
  return attempts;
}

void PrintHistogram(const char* name, const Histogram& hist) {
  std::printf("    %-24s n=%-5llu mean=%-8.1f p50=%-8.1f p99=%-8.1f max=%-8.1f\n", name,
              static_cast<unsigned long long>(hist.count()), hist.Mean(), hist.Percentile(0.5),
              hist.Percentile(0.99), hist.max());
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args(argc, argv, {"quick", "requests", "seed", "json-out", "scale"});
  const bool quick_flag = args.Has("quick");
  args.SetupTimeScale();
  const int requests = args.GetInt("requests", quick_flag ? 10 : 60);
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 11));
  const double window_ms = quick_flag ? kQuickWindowModelMs : kFaultWindowModelMs;
  const int probe_calls = quick_flag ? 8 : 30;

  std::printf("# chaos suite: %d requests/app, %d probe calls, window %.0f model ms, seed %llu\n",
              requests, probe_calls, window_ms, static_cast<unsigned long long>(seed));

  const std::string json_out = args.GetString("json-out", "");
  JsonReport json;
  json.BeginObject()
      .Field("bench", "chaos_suite")
      .Field("quick", quick_flag)
      .Field("seed", static_cast<uint64_t>(seed))
      .Field("requests", requests)
      .Field("window_model_ms", window_ms)
      .BeginArray("schedules");

  // Every schedule runs once per enforcement backend with the SAME seed: the
  // fault decisions are identical, so a violation count that differs between
  // strategies would be a strategy bug, not schedule noise.
  const EnforcementBackendKind backends[] = {EnforcementBackendKind::kLineage,
                                             EnforcementBackendKind::kStableFrontier};
  int total_violations = 0;
  for (const EnforcementBackendKind backend : backends)
  for (const Schedule& schedule : BuildSchedules(seed, window_ms)) {
    std::printf("\n== schedule %s [backend=%s] ==\n", schedule.name.c_str(),
                std::string(EnforcementBackendKindName(backend)).c_str());
    MetricsRegistry::Default().SnapshotAndReset();  // clean slate per schedule
    FaultInjector::Default().Arm(schedule.plan);

    // Probe first: the fault windows open at Arm, so the probe sees them
    // live; the apps follow while store-level windows are still open.
    Histogram probe_attempts = RunRpcProbe(probe_calls);

    PostNotificationConfig post;
    post.post_storage = PostStorageKind::kRedis;
    post.notifier = NotifierKind::kSns;
    post.antipode = true;
    post.backend = backend;
    post.num_requests = requests;
    post.seed = seed;
    PostNotificationResult post_result = RunPostNotification(post);

    MediaServiceConfig media;
    media.antipode = true;
    media.backend = backend;
    media.num_reviews = requests;
    MediaServiceResult media_result = RunMediaService(media);

    FaultInjector::Default().Disarm();
    const MetricsSnapshot snapshot = MetricsRegistry::Default().SnapshotAndReset();

    std::printf("  post-notification: requests=%d violations=%d\n", post_result.requests,
                post_result.violations);
    std::printf("  media-service:     reviews=%d violations=%d\n", media_result.reviews,
                media_result.TotalViolations());
    total_violations += post_result.violations + media_result.TotalViolations();

    std::printf("  faults injected: %llu (redeliveries=%llu, rpc.retries=%llu, "
                "rpc.deadline_exceeded=%llu)\n",
                static_cast<unsigned long long>(snapshot.CounterTotal("fault.injected")),
                static_cast<unsigned long long>(snapshot.CounterTotal("queue.redeliveries")),
                static_cast<unsigned long long>(snapshot.CounterTotal("rpc.retries")),
                static_cast<unsigned long long>(snapshot.CounterTotal("rpc.deadline_exceeded")));
    Histogram consistency_windows = post_result.consistency_window_model_ms;
    consistency_windows.Merge(media_result.consistency_window_model_ms);
    const Histogram recovery = snapshot.HistogramTotal("store.region_outage_ms");
    PrintHistogram("recovery_ms (outage)", recovery);
    PrintHistogram("consistency_window_ms", consistency_windows);
    PrintHistogram("probe_attempts/call", probe_attempts);

    json.BeginObject()
        .Field("name", schedule.name)
        .Field("backend", std::string(EnforcementBackendKindName(backend)))
        .Field("violations", post_result.violations + media_result.TotalViolations())
        .Field("faults_injected", snapshot.CounterTotal("fault.injected"))
        .Field("queue_redeliveries", snapshot.CounterTotal("queue.redeliveries"))
        .Field("rpc_retries", snapshot.CounterTotal("rpc.retries"))
        .Field("rpc_deadline_exceeded", snapshot.CounterTotal("rpc.deadline_exceeded"))
        .HistogramField("recovery_ms", recovery)
        .HistogramField("consistency_window_ms", consistency_windows)
        .HistogramField("probe_attempts", probe_attempts)
        .EndObject();
  }

  json.EndArray();

  // sg-isolation: per backend, a no-fault scoped control, the same scoped
  // deployment under a seeded SG outage, and the fully-replicated unscoped
  // baseline under the identical outage. Latency is the post-notification
  // consistency window (write → allowed read), which contains the barrier.
  constexpr IsolationLeg kLegs[] = {
      {"scoped_control", false, false, true},
      {"scoped_sg_outage", true, false, true},
      {"unscoped_sg_outage", true, true, false},
  };
  bool isolation_ok = true;
  // The outage must dwarf the apps' natural replication tails (straggler
  // modes reach ~1.5-2k model ms) so stalled-vs-isolated is unambiguous: a
  // barrier that touches SG stalls ≈ the whole window, one that skips SG
  // stays inside the natural tail.
  const double iso_window_ms = window_ms * 3.0;
  json.BeginArray("isolation");
  for (const EnforcementBackendKind backend : backends) {
    std::printf("\n== scenario sg-isolation [backend=%s] ==\n",
                std::string(EnforcementBackendKindName(backend)).c_str());
    IsolationLegResult legs[3];
    for (int i = 0; i < 3; ++i) {
      legs[i] = RunIsolationLeg(kLegs[i], backend, requests, seed + 3, iso_window_ms);
      std::printf("  %-20s p99=%-10.1f violations=%-3d scoped_skips=%llu\n", kLegs[i].name,
                  legs[i].p99_ms, legs[i].violations,
                  static_cast<unsigned long long>(legs[i].scoped_skips));
      total_violations += legs[i].violations;
    }
    const IsolationLegResult& control = legs[0];
    const IsolationLegResult& scoped = legs[1];
    const IsolationLegResult& unscoped = legs[2];
    // The guarantee, with window-proportional noise head-room: the outage
    // must add nothing systematic to the scoped deployment (its barriers
    // never touch SG — proved by the skip counter), and must visibly stall
    // the unscoped baseline, whose barriers wait for SG applies buffered
    // until heal — a stall on the order of the whole outage window.
    const bool skips_fired = control.scoped_skips > 0 && scoped.scoped_skips > 0;
    const bool isolated = scoped.p99_ms <= control.p99_ms + 0.5 * iso_window_ms;
    const bool baseline_stalled = unscoped.p99_ms > scoped.p99_ms + iso_window_ms / 3.0;
    if (!skips_fired || !isolated || !baseline_stalled) {
      isolation_ok = false;
      std::printf("  FAIL: skips_fired=%d isolated=%d baseline_stalled=%d\n", skips_fired,
                  isolated, baseline_stalled);
    } else {
      std::printf("  isolation holds: SG outage adds %.1f ms to scoped p99, %.1f ms to "
                  "unscoped p99\n",
                  scoped.p99_ms - control.p99_ms, unscoped.p99_ms - control.p99_ms);
    }
    json.BeginObject()
        .Field("backend", std::string(EnforcementBackendKindName(backend)))
        .Field("control_p99_ms", control.p99_ms)
        .Field("scoped_outage_p99_ms", scoped.p99_ms)
        .Field("unscoped_outage_p99_ms", unscoped.p99_ms)
        .Field("scoped_skips", scoped.scoped_skips)
        .Field("violations", control.violations + scoped.violations + unscoped.violations)
        .Field("isolated", isolated)
        .Field("baseline_stalled", baseline_stalled)
        .EndObject();
  }
  json.EndArray().Field("total_violations", total_violations).EndObject();
  if (!json_out.empty() && !json.WriteFile(json_out)) {
    return 1;
  }

  std::printf("\n# total violations across schedules: %d (expect 0)\n", total_violations);
  if (total_violations != 0) {
    std::printf("FAIL: XCY violations under fault injection\n");
    return 1;
  }
  if (!isolation_ok) {
    std::printf("FAIL: locality isolation guarantee violated\n");
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
