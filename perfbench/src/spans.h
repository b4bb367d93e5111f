// Span recording for the benchmark's traced run.
//
// The benchmark wraps every call it makes into a layer of the program in a
// ScopedSpan. A span carries its name, start, end, parent and request id, plus
// the thread CPU time consumed inside it. Spans are appended to per-thread
// buffers (no cross-thread contention on the hot path), kept in memory for the
// whole traced window, and turned into per-layer statistics and a Chrome-trace
// JSON file once the window has drained.
//
// Recording is off unless SetSpansEnabled(true): a disabled
// ScopedSpan costs one relaxed atomic load, so the untraced runs that produce
// the end-to-end metrics carry no tracing work.

#ifndef PERFBENCH_SRC_SPANS_H_
#define PERFBENCH_SRC_SPANS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// The layer boundaries the benchmark records. Names are metric-name safe.
enum class SpanKind : uint8_t {
  kWriter,       // one writer-pool job (the write side of a request)
  kCtxRoot,      // RequestContext + ScopedContext (+ LineageApi::Root)
  kShimWrite,    // KvShim::WriteCtx, ObjectShim::PutObjectCtx, DocShim::InsertDocCtx
  kShimPublish,  // PubSubShim::PublishCtx, QueueShim::PublishCtx
  kDeliver,        // one consumer callback: the read side starts
  kBarrierLaunch,  // BarrierAsync(): launching the enforcement, not waiting for it
  kResume,         // the barrier's continuation on the reader pool
  kRender,         // one media render (its reads, and its barrier when synchronous)
  kBarrier,        // Barrier()
  kShimRead,       // KvShim::ReadCtx, DocShim::FindByIdCtx, ObjectShim::GetObjectCtx
  kReader,       // one reader-pool job on the mesh
  kMeshWriter,   // LiveMesh::RunWriterSide
  kMeshReader,   // LiveMesh::RunReaderSide
  kCount,
};

std::string_view SpanName(SpanKind kind);

struct SpanRecord {
  uint64_t request = 0;
  uint64_t start_ns = 0;  // steady clock
  uint64_t end_ns = 0;
  uint64_t cpu_ns = 0;    // thread CPU consumed between start and end
  // Index of the enclosing span in the same collection plus one; 0 = root.
  uint32_t parent = 0;
  uint16_t thread = 0;
  SpanKind kind = SpanKind::kWriter;
};

// Time in `span` not covered by its direct children. Children are clipped to
// the parent's interval and overlapping children are counted once, so the
// result is never negative.
uint64_t SelfWallNs(const SpanRecord& span, const std::vector<const SpanRecord*>& children);

// CPU in `span` not spent in its direct children (children run nested on the
// same thread, so their CPU is part of the parent's). Clamped at zero.
uint64_t SelfCpuNs(const SpanRecord& span, const std::vector<const SpanRecord*>& children);

// Per-kind totals over a span collection.
struct LayerStats {
  uint64_t count = 0;
  uint64_t self_cpu_ns = 0;
  uint64_t self_wall_ns = 0;
  std::vector<double> wall_us;  // duration of every span, children included
};

struct SpanSummary {
  LayerStats layers[static_cast<size_t>(SpanKind::kCount)];
  uint64_t root_cpu_ns = 0;  // CPU of parentless spans: everything the benchmark wrapped
};

SpanSummary Summarize(const std::vector<SpanRecord>& spans);

// Turns recording on or off process-wide.
void SetSpansEnabled(bool enabled);

// Moves every thread's spans out, rewriting parent links to indices in the
// returned vector. Call only after the recorded work has finished; a span
// still open at that point is returned with end_ns = 0 and never completed.
std::vector<SpanRecord> CollectSpans();

// RAII span. Nested ScopedSpans on one thread form the parent chain.
class ScopedSpan {
 public:
  ScopedSpan(SpanKind kind, uint64_t request);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void* buffer_ = nullptr;  // the thread's buffer; null when recording is off
  uint32_t index_ = 0;
  uint64_t epoch_ = 0;
  uint64_t cpu_start_ = 0;
};

// Writes `spans` as Chrome-trace JSON ("X" events, microseconds). Only the
// spans of the `max_requests` lowest request ids are written so the file stays
// loadable; the statistics always cover every span. False on I/O failure.
bool WriteChromeTrace(const std::string& path, const std::vector<SpanRecord>& spans,
                      uint64_t max_requests);

// Metric names: 1 to 64 characters from [A-Za-z0-9_.-], starting with a
// letter or digit.
bool ValidMetricName(std::string_view name);

uint64_t SteadyNowNs();
uint64_t ThreadCpuNs();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPANS_H_
