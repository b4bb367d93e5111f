#include "perfbench/src/spans.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {
namespace {

constexpr std::string_view kSpanNames[] = {
    "writer",  "ctx.root", "shim.write", "shim.publish", "deliver",     "barrier.launch",
    "resume",  "render",   "barrier",    "shim.read",    "reader",      "mesh.writer",
    "mesh.reader",
};
static_assert(std::size(kSpanNames) == static_cast<size_t>(SpanKind::kCount));

// One thread's spans. The mutex is uncontended while recording (only the
// owning thread appends); it orders the owner's writes against Collect.
struct ThreadBuffer {
  std::mutex mu;
  std::vector<SpanRecord> spans;
  std::vector<uint32_t> open;  // indices of the spans still open, innermost last
  uint64_t epoch = 0;          // bumped by Collect; stale ScopedSpans ignore it
  uint16_t thread = 0;
};

struct Registry {
  std::atomic<bool> enabled{false};
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;  // never shrinks: threads keep pointers
};

Registry& TheRegistry() {
  static Registry* registry = new Registry();  // outlives every pool thread
  return *registry;
}

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    Registry& registry = TheRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    registry.buffers.push_back(std::make_unique<ThreadBuffer>());
    buffer = registry.buffers.back().get();
    buffer->thread = static_cast<uint16_t>(registry.buffers.size());
  }
  return *buffer;
}

// Length of the union of [start, end) intervals, each clipped to [lo, hi).
uint64_t CoveredNs(std::vector<std::pair<uint64_t, uint64_t>> intervals, uint64_t lo,
                   uint64_t hi) {
  for (auto& [start, end] : intervals) {
    start = std::clamp(start, lo, hi);
    end = std::clamp(end, lo, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  uint64_t covered = 0;
  uint64_t reach = lo;
  for (const auto& [start, end] : intervals) {
    const uint64_t from = std::max(start, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  return covered;
}

}  // namespace

std::string_view SpanName(SpanKind kind) { return kSpanNames[static_cast<size_t>(kind)]; }

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL + static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t SelfWallNs(const SpanRecord& span, const std::vector<const SpanRecord*>& children) {
  if (span.end_ns <= span.start_ns) {
    return 0;
  }
  std::vector<std::pair<uint64_t, uint64_t>> intervals;
  intervals.reserve(children.size());
  for (const SpanRecord* child : children) {
    intervals.emplace_back(child->start_ns, child->end_ns);
  }
  return span.end_ns - span.start_ns - CoveredNs(std::move(intervals), span.start_ns, span.end_ns);
}

uint64_t SelfCpuNs(const SpanRecord& span, const std::vector<const SpanRecord*>& children) {
  uint64_t child_cpu = 0;
  for (const SpanRecord* child : children) {
    child_cpu += child->cpu_ns;
  }
  return span.cpu_ns > child_cpu ? span.cpu_ns - child_cpu : 0;
}

SpanSummary Summarize(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<const SpanRecord*>> children(spans.size());
  for (const SpanRecord& span : spans) {
    if (span.parent != 0 && span.parent <= spans.size()) {
      children[span.parent - 1].push_back(&span);
    }
  }
  SpanSummary summary;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    LayerStats& layer = summary.layers[static_cast<size_t>(span.kind)];
    ++layer.count;
    layer.self_cpu_ns += SelfCpuNs(span, children[i]);
    layer.self_wall_ns += SelfWallNs(span, children[i]);
    layer.wall_us.push_back(
        span.end_ns > span.start_ns ? static_cast<double>(span.end_ns - span.start_ns) / 1e3 : 0.0);
    if (span.parent == 0) {
      summary.root_cpu_ns += span.cpu_ns;
    }
  }
  return summary;
}

void SetSpansEnabled(bool enabled) {
  TheRegistry().enabled.store(enabled, std::memory_order_relaxed);
}

std::vector<SpanRecord> CollectSpans() {
  Registry& registry = TheRegistry();
  std::vector<SpanRecord> all;
  std::lock_guard<std::mutex> registry_lock(registry.mu);
  for (const auto& buffer : registry.buffers) {
    std::lock_guard<std::mutex> lock(buffer->mu);
    const uint32_t offset = static_cast<uint32_t>(all.size());
    for (SpanRecord span : buffer->spans) {
      if (span.parent != 0) {
        span.parent += offset;
      }
      all.push_back(span);
    }
    buffer->spans.clear();
    buffer->open.clear();
    ++buffer->epoch;
  }
  return all;
}

ScopedSpan::ScopedSpan(SpanKind kind, uint64_t request) {
  if (!TheRegistry().enabled.load(std::memory_order_relaxed)) {
    return;
  }
  ThreadBuffer& buffer = LocalBuffer();
  SpanRecord span;
  span.request = request;
  span.kind = kind;
  span.thread = buffer.thread;
  {
    std::lock_guard<std::mutex> lock(buffer.mu);
    span.parent = buffer.open.empty() ? 0 : buffer.open.back() + 1;
    index_ = static_cast<uint32_t>(buffer.spans.size());
    epoch_ = buffer.epoch;
    buffer.open.push_back(index_);
    span.start_ns = SteadyNowNs();
    buffer.spans.push_back(span);
  }
  buffer_ = &buffer;
  cpu_start_ = ThreadCpuNs();
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ == nullptr) {
    return;
  }
  const uint64_t cpu_ns = ThreadCpuNs() - cpu_start_;
  ThreadBuffer& buffer = *static_cast<ThreadBuffer*>(buffer_);
  std::lock_guard<std::mutex> lock(buffer.mu);
  if (buffer.epoch != epoch_) {
    return;  // collected while open: the record is gone
  }
  SpanRecord& span = buffer.spans[index_];
  span.end_ns = SteadyNowNs();
  span.cpu_ns = cpu_ns;
  buffer.open.pop_back();
}

bool WriteChromeTrace(const std::string& path, const std::vector<SpanRecord>& spans,
                      uint64_t max_requests) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  uint64_t origin = UINT64_MAX;
  uint64_t first_request = UINT64_MAX;
  for (const SpanRecord& span : spans) {
    origin = std::min(origin, span.start_ns);
    first_request = std::min(first_request, span.request);
  }
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", out);
  bool first = true;
  uint64_t written = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    if (span.request - first_request >= max_requests) {
      continue;
    }
    const uint64_t end = std::max(span.end_ns, span.start_ns);
    std::fprintf(out,
                 "%s\n{\"name\":\"%.*s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%lld,"
                 "\"request\":%llu,\"cpu_us\":%.3f}}",
                 first ? "" : ",", static_cast<int>(SpanName(span.kind).size()),
                 SpanName(span.kind).data(), static_cast<unsigned>(span.thread),
                 static_cast<double>(span.start_ns - origin) / 1e3,
                 static_cast<double>(end - span.start_ns) / 1e3, i,
                 static_cast<long long>(span.parent) - 1,
                 static_cast<unsigned long long>(span.request),
                 static_cast<double>(span.cpu_ns) / 1e3);
    first = false;
    ++written;
  }
  std::fprintf(out, "\n],\"otherData\":{\"spans_total\":%zu,\"spans_written\":%llu}}\n",
               spans.size(), static_cast<unsigned long long>(written));
  return std::fclose(out) == 0;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) {
    return false;
  }
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) {
    return false;
  }
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

}  // namespace perfbench
