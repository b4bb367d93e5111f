// The benchmark's three workloads (see perfbench/README.md for why each
// exists and what it is expected to stress).

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "perfbench/src/load.h"

namespace perfbench {

// Model-time compression applied to every simulated latency (the repo's
// bench convention: 50x).
inline constexpr double kTimeScale = 0.02;

// The workload called `name`, its inputs drawn from `seed`; nullptr for an
// unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
