// Ablation B (paper §5.1): dependency-set growth under Antipode's lineage
// truncation (drop at `stop`, explicit `transfer` only where semantics
// demand it) vs potential causality (full transitive history, never
// truncated) vs vector clocks (one entry per service ever touched).
//
// Workload: a chain of requests; request i writes a handful of objects and
// reads something written by request i-1 (the linchpin-object pattern §5.1).
// Under potential causality the metadata grows linearly with chain depth;
// Antipode's lineages stay request-sized.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/antipode/lineage.h"
#include "src/baseline/potential_tracker.h"
#include "src/baseline/vector_clock.h"

using namespace antipode;

int main(int argc, char** argv) {
  BenchArgs args(argc, argv, {"chain", "writes"});
  const int chain_length = args.GetInt("chain", 256);
  const int writes_per_request = args.GetInt("writes", 6);

  std::printf("# Ablation B: metadata size vs chain depth (%d writes/request)\n",
              writes_per_request);
  std::printf("%-8s %16s %16s %16s %14s %14s\n", "depth", "lineage_B", "potential_B",
              "vclock_B", "lineage_deps", "potential_deps");

  PotentialCausalityTracker potential_prev;
  Lineage lineage_prev;
  VectorClock clock_prev;
  uint64_t version = 1;

  for (int depth = 1; depth <= chain_length; ++depth) {
    // --- Antipode: a fresh lineage per request; reading request i-1's data
    // transfers that request's (already truncated) lineage only.
    Lineage lineage(static_cast<uint64_t>(depth));
    lineage.Transfer(lineage_prev);

    // --- potential causality: inherits the full transitive history.
    PotentialCausalityTracker potential;
    potential.OnReadFrom(potential_prev);

    // --- vector clock: merge + tick this request's service entries.
    VectorClock clock = clock_prev;

    std::vector<WriteId> own_writes;
    for (int w = 0; w < writes_per_request; ++w) {
      WriteId id{"svc" + std::to_string((depth * 7 + w) % 40), "key" + std::to_string(version),
                 version};
      version++;
      lineage.Append(id);
      potential.OnWrite(id);
      clock.Increment(static_cast<uint32_t>((depth * 7 + w) % 40));
      own_writes.push_back(std::move(id));
    }

    if ((depth & (depth - 1)) == 0 || depth == chain_length) {  // powers of two
      std::printf("%-8d %16zu %16zu %16zu %14zu %14zu\n", depth, lineage.WireSize(),
                  potential.WireSize(), clock.WireSize(), lineage.Size(),
                  potential.NumDeps());
    }

    // Request ends: Antipode truncates (stop); the next request only sees
    // this request's own writes via the data it reads. Potential causality
    // never truncates.
    Lineage truncated(static_cast<uint64_t>(depth));
    for (const auto& id : own_writes) {
      truncated.Append(id);
    }
    lineage_prev = truncated;
    potential_prev = potential;
    clock_prev = clock;
  }

  std::printf("# expected: lineage bytes flat; potential-causality bytes grow linearly;\n");
  std::printf("#           vector clock grows with the number of distinct services\n");
  return 0;
}
