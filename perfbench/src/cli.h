// Strict command-line parsing for the benchmark binary: every flag must be
// known, given once and well-formed, and the required ones must be present.
// A mistyped flag is an error, never a silently ignored default.

#ifndef PERFBENCH_SRC_CLI_H_
#define PERFBENCH_SRC_CLI_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct Flags {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  // Directory the traced run writes its Chrome-trace JSON into.
  std::string trace_dir = ".";
  bool help = false;
};

// Parses argv[1..argc). Accepts `--name value` and `--name=value`. Returns an
// empty string on success, otherwise a one-line error. `--help` alone (or
// with other flags) sets `help` and skips the required-flag check.
std::string ParseFlags(int argc, const char* const* argv, Flags* flags);

std::string Usage();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CLI_H_
