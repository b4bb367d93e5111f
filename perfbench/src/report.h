// Turns window results into the named metrics the benchmark reports, and
// prints them: a human-readable table, then the one-line JSON result.

#ifndef PERFBENCH_SRC_REPORT_H_
#define PERFBENCH_SRC_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/load.h"
#include "perfbench/src/spans.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct EndToEndInputs {
  const WindowResult* nominal = nullptr;  // the nominal-rate windows, merged
  double setup_s = 0;
  double peak_rss_mb = 0;  // over the first nominal window
};

std::vector<Metric> EndToEndMetrics(const EndToEndInputs& inputs);

// `traced` and `untraced` ran at the same rate; `spans` are the traced
// window's.
std::vector<Metric> PerLayerMetrics(const WindowResult& traced, const WindowResult& untraced,
                                    const SpanSummary& spans);

// Prints the metric table and, as the last stdout line, the JSON result.
// Returns false (and prints why to stderr) when a metric name is malformed or
// a value is not finite; the JSON then reports correct = false.
bool PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPORT_H_
