#include "src/antipode/enforcement.h"

#include <algorithm>
#include <array>
#include <atomic>

#include "src/antipode/enforcement_internal.h"
#include "src/common/hlc.h"
#include "src/common/serialization.h"
#include "src/obs/metrics.h"

namespace antipode {

EnforcementBackend& ResolveBackend(const BarrierOptions& options) {
  EnforcementBackendKind kind = options.backend;
  if (kind == EnforcementBackendKind::kInherit) {
    kind = options.registry->options().default_backend;
  }
  return kind == EnforcementBackendKind::kStableFrontier ? FrontierBackend() : LineageBackend();
}

size_t EnforcementMetadataBytes(EnforcementBackendKind kind, const Lineage& lineage) {
  if (kind == EnforcementBackendKind::kStableFrontier) {
    // One varint HLC cut per request, independent of the dependency count.
    // Sized against the current reading of the clocks the dependencies'
    // stores stamp from (each store's home region-group clock, the group of
    // its replica footprint) — what a cut computed now would cost on the wire.
    uint64_t stamp = 0;
    for (const auto& dep : lineage.deps()) {
      stamp = std::max(stamp, HlcClock::ForGroup(RegionGroupOf(dep.scope)).Last());
    }
    return VarintWireSize(stamp);
  }
  return lineage.WireSize();
}

namespace enforcement_internal {

namespace {

// Racing initializers store identical registry pointers, atomically for TSan.
struct BarrierInstruments {
  std::atomic<Counter*> calls{nullptr};
  std::atomic<Counter*> errors{nullptr};
  std::atomic<Counter*> deadline{nullptr};
  std::atomic<HistogramMetric*> stall{nullptr};
};

}  // namespace

void CountBarrier(Region region, const Status& status, double stall_model_ms) {
  static BarrierInstruments per_region[kNumRegions];
  BarrierInstruments& slot = per_region[RegionIndex(region)];
  Counter* calls = slot.calls.load(std::memory_order_acquire);
  Counter* errors = slot.errors.load(std::memory_order_acquire);
  Counter* deadline = slot.deadline.load(std::memory_order_acquire);
  HistogramMetric* stall = slot.stall.load(std::memory_order_acquire);
  if (calls == nullptr) {
    MetricsRegistry& registry = MetricsRegistry::Default();
    const std::string region_name(RegionName(region));
    calls = registry.GetCounter("barrier.calls", {{"region", region_name}});
    errors = registry.GetCounter("barrier.errors", {{"region", region_name}});
    deadline = registry.GetCounter("barrier.deadline_exceeded", {{"region", region_name}});
    stall = registry.GetHistogram("barrier.stall_model_ms", {{"region", region_name}});
    slot.calls.store(calls, std::memory_order_release);
    slot.errors.store(errors, std::memory_order_release);
    slot.deadline.store(deadline, std::memory_order_release);
    slot.stall.store(stall, std::memory_order_release);
  }
  calls->Increment();
  if (!status.ok()) {
    errors->Increment();
    if (status.code() == StatusCode::kDeadlineExceeded) {
      deadline->Increment();
    }
  }
  stall->Record(stall_model_ms);
}

void CountBackendDispatch(EnforcementBackendKind kind) {
  static std::array<std::atomic<Counter*>, 3> per_kind{};
  const size_t slot = kind == EnforcementBackendKind::kStableFrontier ? 1 : 0;
  Counter* counter = per_kind[slot].load(std::memory_order_acquire);
  if (counter == nullptr) {
    const EnforcementBackendKind resolved =
        slot == 1 ? EnforcementBackendKind::kStableFrontier : EnforcementBackendKind::kLineage;
    counter = MetricsRegistry::Default().GetCounter(
        "barrier.backend", {{"backend", std::string(EnforcementBackendKindName(resolved))}});
    per_kind[slot].store(counter, std::memory_order_release);
  }
  counter->Increment();
}

void CountScopedSkips(uint64_t n) {
  if (n == 0) {
    return;
  }
  static Counter* const counter = MetricsRegistry::Default().GetCounter("barrier.scoped_skip");
  counter->Increment(n);
}

const CacheInstruments& CacheCounters() {
  static const CacheInstruments counters = [] {
    MetricsRegistry& registry = MetricsRegistry::Default();
    return CacheInstruments{registry.GetCounter("barrier.cache_hit"),
                            registry.GetCounter("barrier.cache_miss"),
                            registry.GetCounter("barrier.zero_wait")};
  }();
  return counters;
}

Status MemoizedOk(const Lineage& lineage, size_t num_regions, Region primary) {
  const CacheInstruments& counters = CacheCounters();
  if (!lineage.Empty()) {
    counters.hit->Increment(lineage.Size() * num_regions);
  }
  counters.zero_wait->Increment();
  CountBarrier(primary, Status::Ok(), 0.0);
  return Status::Ok();
}

bool AllEnforced(const Lineage& lineage, const std::vector<Region>& regions) {
  for (Region region : regions) {
    if (!lineage.enforced_at(region)) {
      return false;
    }
  }
  return true;
}

}  // namespace enforcement_internal
}  // namespace antipode
