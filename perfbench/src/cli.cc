#include "perfbench/src/cli.h"

#include <cerrno>
#include <cstdlib>
#include <set>
#include <string_view>

namespace perfbench {
namespace {

constexpr const char* kWorkloads[] = {"post-notify", "media-fanout", "mesh-deep"};

bool ParseUnsigned(const std::string& text, uint64_t max, uint64_t* out) {
  if (text.empty() || text.size() > 20) {
    return false;
  }
  for (char c : text) {
    if (c < '0' || c > '9') {
      return false;
    }
  }
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), nullptr, 10);
  if (errno != 0 || value > max) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace

std::string Usage() {
  return "usage: perfbench --workload <post-notify|media-fanout|mesh-deep> --seed <n>\n"
         "                 --seconds <1..600> --trace <0|1> [--trace-dir <dir>]\n"
         "\n"
         "Drives one open-loop workload through the Antipode libraries and prints a\n"
         "report; the last stdout line is one JSON object with `correct`, `attempted`,\n"
         "`failed` and `metrics`. --trace 0 reports the end-to-end metrics; --trace 1\n"
         "records spans around every call into a layer and reports per-layer metrics,\n"
         "writing a Chrome trace to <trace-dir>/trace-<workload>-<seed>.json.\n"
         "Exit status is non-zero when any correctness check fails.\n";
}

std::string ParseFlags(int argc, const char* const* argv, Flags* flags) {
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      flags->help = true;
      continue;
    }
    if (arg.substr(0, 2) != "--") {
      return "unexpected argument: " + std::string(arg);
    }
    std::string name;
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      name = std::string(arg.substr(2, eq - 2));
      value = std::string(arg.substr(eq + 1));
    } else {
      name = std::string(arg.substr(2));
      if (i + 1 >= argc) {
        return "missing value for --" + name;
      }
      value = argv[++i];
    }
    if (!seen.insert(name).second) {
      return "flag given twice: --" + name;
    }
    uint64_t number = 0;
    if (name == "workload") {
      bool known = false;
      for (const char* workload : kWorkloads) {
        known = known || value == workload;
      }
      if (!known) {
        return "unknown workload: " + value;
      }
      flags->workload = value;
    } else if (name == "seed") {
      if (!ParseUnsigned(value, UINT64_MAX, &number)) {
        return "--seed must be a non-negative integer, got: " + value;
      }
      flags->seed = number;
    } else if (name == "seconds") {
      if (!ParseUnsigned(value, 600, &number) || number < 1) {
        return "--seconds must be an integer in [1, 600], got: " + value;
      }
      flags->seconds = static_cast<int>(number);
    } else if (name == "trace") {
      if (value != "0" && value != "1") {
        return "--trace must be 0 or 1, got: " + value;
      }
      flags->trace = value == "1";
    } else if (name == "trace-dir") {
      if (value.empty()) {
        return "--trace-dir must not be empty";
      }
      flags->trace_dir = value;
    } else {
      return "unknown flag: --" + name;
    }
  }
  if (flags->help) {
    return "";
  }
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (seen.count(required) == 0) {
      return std::string("missing required flag: --") + required;
    }
  }
  return "";
}

}  // namespace perfbench
