// Visibility-cache microbench (DESIGN.md §8): population and lookup costs of
// the two-level ⟨per-key table, apply low-watermark⟩ structure that fronts
// every barrier wait.
//
// Phases:
//   populate   NoteApply throughput, single writer. In-order seqs advance the
//              watermark with no pending-set churn; out-of-order seqs (blocks
//              applied in reverse) park in the pending set until the gap
//              fills, which is the worst case for the tracker lock.
//   lookup     IsVisible throughput across --threads concurrent readers, for
//              the three probe outcomes a barrier can see:
//                per-key hit    probed region observed the version directly
//                watermark hit  per-key miss, covered by the old-write rule
//                               (entry state crafted so the probe falls
//                               through to the watermark load)
//                miss           unknown key — the caller falls back to the
//                               real wait
//
// Flags: --applies=<n> (default 200000), --keys=<n> (default 1024),
//        --threads=<n> (default 4), --lookups=<n per thread> (default 200000).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/antipode/visibility_cache.h"

using namespace antipode;

namespace {

const std::vector<Region> kAllRegions = {Region::kUs, Region::kEu, Region::kSg};

double MopsPerSec(uint64_t ops, std::chrono::steady_clock::duration elapsed) {
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(elapsed).count();
  return seconds > 0.0 ? static_cast<double>(ops) / seconds / 1e6 : 0.0;
}

std::vector<std::string> MakeKeys(int count) {
  std::vector<std::string> keys;
  keys.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) keys.push_back("key/" + std::to_string(i));
  return keys;
}

double RunPopulate(int applies, const std::vector<std::string>& keys, bool in_order) {
  StoreVisibility store("bench", kAllRegions);
  constexpr int kBlock = 64;  // out-of-order: each block applied in reverse
  const auto start = std::chrono::steady_clock::now();
  for (int block = 0; block * kBlock < applies; ++block) {
    for (int i = 0; i < kBlock; ++i) {
      const int offset = in_order ? i : kBlock - 1 - i;
      const uint64_t seq = static_cast<uint64_t>(block * kBlock + offset) + 1;
      if (seq > static_cast<uint64_t>(applies)) continue;
      store.NoteApply(Region::kUs, keys[seq % keys.size()], seq, seq);
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  if (store.watermark(Region::kUs) != static_cast<uint64_t>(applies)) {
    std::fprintf(stderr, "FAIL: watermark %llu != applies %d\n",
                 static_cast<unsigned long long>(store.watermark(Region::kUs)), applies);
    std::exit(1);
  }
  return MopsPerSec(static_cast<uint64_t>(applies), elapsed);
}

// Runs `lookups` probes per thread through `probe` and returns aggregate Mops/s.
// Every probe's outcome is checked against `expect` so a silent behavioural
// change cannot masquerade as a speedup.
template <typename Probe>
double RunLookups(int threads, int lookups, bool expect, const Probe& probe) {
  std::vector<std::thread> workers;
  std::atomic<uint64_t> mismatches{0};
  const auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      uint64_t bad = 0;
      for (int i = 0; i < lookups; ++i) {
        if (probe(t, i) != expect) ++bad;
      }
      if (bad != 0) mismatches.fetch_add(bad, std::memory_order_relaxed);
    });
  }
  for (auto& worker : workers) worker.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  if (mismatches.load() != 0) {
    std::fprintf(stderr, "FAIL: %llu probes returned the wrong outcome\n",
                 static_cast<unsigned long long>(mismatches.load()));
    std::exit(1);
  }
  return MopsPerSec(static_cast<uint64_t>(threads) * static_cast<uint64_t>(lookups), elapsed);
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args(argc, argv, {"applies", "keys", "threads", "lookups"});
  const int applies = args.GetInt("applies", 200000);
  const int key_count = args.GetInt("keys", 1024);
  const int threads = args.GetInt("threads", 4);
  const int lookups = args.GetInt("lookups", 200000);
  const std::vector<std::string> keys = MakeKeys(key_count);

  std::printf("# visibility cache: %d applies, %d keys, %d lookup threads x %d lookups\n\n",
              applies, key_count, threads, lookups);
  std::printf("%-28s %12s\n", "phase", "Mops/s");
  std::printf("%-28s %12.2f\n", "NoteApply in-order", RunPopulate(applies, keys, true));
  std::printf("%-28s %12.2f\n", "NoteApply out-of-order", RunPopulate(applies, keys, false));

  // Lookup bed. Per-key hits: kUs observed every version directly. Watermark
  // hits: kEu's watermark is advanced by filler-key applies, so probes of the
  // primary keys at kEu miss the per-key entry and fall through to the
  // old-write rule. Misses: unknown keys.
  StoreVisibility store("bench", kAllRegions);
  for (int i = 1; i <= key_count; ++i) {
    const uint64_t seq = static_cast<uint64_t>(i);
    store.NoteApply(Region::kUs, keys[seq % keys.size()], 10, seq);
    store.NoteApply(Region::kEu, "filler/" + std::to_string(i), 1, seq);
  }
  const std::vector<std::string> unknown = [&] {
    std::vector<std::string> result;
    for (int i = 0; i < key_count; ++i) result.push_back("ghost/" + std::to_string(i));
    return result;
  }();

  std::printf("%-28s %12.2f\n", "IsVisible per-key hit",
              RunLookups(threads, lookups, true, [&](int t, int i) {
                return store.IsVisible(Region::kUs, keys[(t + i) % keys.size()], 10);
              }));
  std::printf("%-28s %12.2f\n", "IsVisible watermark hit",
              RunLookups(threads, lookups, true, [&](int t, int i) {
                return store.IsVisible(Region::kEu, keys[(t + i) % keys.size()], 10);
              }));
  std::printf("%-28s %12.2f\n", "IsVisible miss",
              RunLookups(threads, lookups, false, [&](int t, int i) {
                return store.IsVisible(Region::kSg, unknown[(t + i) % unknown.size()], 1);
              }));
  return 0;
}
