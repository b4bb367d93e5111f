#include "perfbench/src/workloads.h"

#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/spans.h"
#include "src/antipode/antipode.h"
#include "src/common/random.h"
#include "src/context/request_context.h"
#include "src/store/doc_store.h"
#include "src/store/kv_store.h"
#include "src/store/object_store.h"
#include "src/store/pubsub_store.h"
#include "src/store/queue_store.h"
#include "src/trace/mesh.h"

namespace perfbench {
namespace {

using antipode::Barrier;
using antipode::BarrierOptions;
using antipode::ConsumedMessage;
using antipode::Document;
using antipode::EnforcementBackendKind;
using antipode::Lineage;
using antipode::LineageApi;
using antipode::Region;
using antipode::RequestContext;
using antipode::ScopedContext;
using antipode::Status;
using antipode::StatusCode;
using antipode::Value;

// Media renders per upload.
constexpr int kRenders = 8;

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Payloads and bodies drawn from the seed; requests pick one by id.
std::vector<std::string> MakeBodies(uint64_t seed, size_t count, size_t min_len, size_t max_len) {
  antipode::Rng rng(seed);
  std::vector<std::string> bodies;
  for (size_t i = 0; i < count; ++i) {
    std::string body(min_len + rng.NextBelow(max_len - min_len + 1), ' ');
    for (char& c : body) {
      c = static_cast<char>('a' + rng.NextBelow(26));
    }
    bodies.push_back(std::move(body));
  }
  return bodies;
}

// Barriers are unbounded: a deadline arms a timer per waiting barrier that
// outlives the wait and would fire into later windows. A barrier that never
// returns leaves its request unfinished, which the drain cap turns into a
// failure.
BarrierOptions MakeBarrierOptions(antipode::ShimRegistry* registry,
                                  EnforcementBackendKind backend) {
  BarrierOptions options;
  options.registry = registry;
  options.use_cache = true;
  options.backend = backend;
  return options;
}

template <typename StoreT>
std::unique_ptr<StoreT> MakeStore(antipode::ReplicatedStoreOptions options, uint64_t seed) {
  options.replication.slow_mode_probability = 0.0;
  options.replication.seed = seed;
  return std::make_unique<StoreT>(std::move(options));
}

// The request index a message names; false when it is not one of ours.
bool DecodeIndex(const std::string& payload, uint64_t planned, uint64_t* index) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(payload.c_str(), &end, 10);
  if (payload.empty() || end != payload.c_str() + payload.size() || value >= planned) {
    return false;
  }
  *index = value;
  return true;
}

// Size of the lineage at the hand-off; on the traced run also one timed
// serialize/deserialize round trip, which must reproduce it exactly.
Carried MeasureCarried(const Lineage& lineage, bool traced, bool* codec_ok) {
  Carried carried;
  carried.wire_bytes = static_cast<uint32_t>(lineage.WireSize());
  carried.deps = static_cast<uint32_t>(lineage.Size());
  *codec_ok = true;
  if (traced) {
    const uint64_t t0 = SteadyNowNs();
    const std::string wire = lineage.Serialize();
    const uint64_t t1 = SteadyNowNs();
    auto decoded = Lineage::Deserialize(wire);
    const uint64_t t2 = SteadyNowNs();
    carried.encode_ns = static_cast<uint32_t>(t1 - t0);
    carried.decode_ns = static_cast<uint32_t>(t2 - t1);
    *codec_ok = wire.size() == carried.wire_bytes && decoded.ok() && *decoded == lineage;
  }
  return carried;
}

Outcome ReadOutcome(const Status& status) {
  return status.code() == StatusCode::kNotFound ? Outcome::kViolation : Outcome::kReadError;
}

// --- post-notify ----------------------------------------------------------

// Paper §7.2: an EU writer stores a post and publishes a notification; a US
// reader enforces the notification's lineage, then reads the post.
class PostNotifyBed : public Bed {
 public:
  PostNotifyBed(const BedEnv& env, uint64_t seed, const std::vector<std::string>* bodies)
      : window_(env.window), readers_(env.readers), traced_(env.traced), bodies_(bodies) {
    const std::vector<Region> regions = {Region::kEu, Region::kUs};
    const std::string tag = std::to_string(env.ordinal);
    posts_ = MakeStore<antipode::KvStore>(
        antipode::KvStore::DefaultOptions("pn-posts-" + tag, regions), Mix(seed, 2 * env.ordinal));
    notifications_ = MakeStore<antipode::PubSubStore>(
        antipode::PubSubStore::DefaultOptions("pn-notifications-" + tag, regions),
        Mix(seed, 2 * env.ordinal + 1));
    post_shim_ = std::make_unique<antipode::KvShim>(posts_.get());
    notification_shim_ = std::make_unique<antipode::PubSubShim>(notifications_.get());
    registry_.Register(post_shim_.get());
    registry_.Register(notification_shim_.get());
    barrier_options_ = MakeBarrierOptions(&registry_, EnforcementBackendKind::kLineage);
    notification_shim_->Subscribe(Region::kUs, kTopic, env.readers,
                                  [this](const ConsumedMessage& message) { Read(message); });
  }

  void Send(uint64_t index) override {
    const uint64_t id = window_->id(index);
    std::optional<ScopedContext> scope;
    {
      ScopedSpan span(SpanKind::kCtxRoot, id);
      scope.emplace(RequestContext(id));
      LineageApi::Root();
    }
    Status status;
    {
      ScopedSpan span(SpanKind::kShimWrite, id);
      status = post_shim_->WriteCtx(Region::kEu, PostKey(id), Body(id));
    }
    if (status.ok()) {
      ScopedSpan span(SpanKind::kShimPublish, id);
      status = notification_shim_->PublishCtx(Region::kEu, kTopic, std::to_string(index));
    }
    if (!status.ok()) {
      window_->Complete(index, Outcome::kWriteError);
      return;
    }
    window_->MarkPublished(index);
  }

 private:
  static constexpr char kTopic[] = "posts";

  static std::string PostKey(uint64_t id) { return "post-" + std::to_string(id); }
  const std::string& Body(uint64_t id) const { return (*bodies_)[id % bodies_->size()]; }

  // The notification's lineage is enforced asynchronously so no reader thread
  // parks while the post replicates; the read runs in the continuation.
  void Read(const ConsumedMessage& message) {
    uint64_t index = 0;
    if (!DecodeIndex(message.payload, window_->planned(), &index)) {
      return;  // never ours: the request stays open and the window reports it
    }
    const uint64_t id = window_->id(index);
    window_->MarkDelivered(index);
    ScopedSpan deliver(SpanKind::kDeliver, id);
    bool codec_ok = true;
    const Carried carried = MeasureCarried(message.lineage, traced_, &codec_ok);
    ScopedSpan launch(SpanKind::kBarrierLaunch, id);
    window_->MarkBarrierStart(index);
    antipode::BarrierAsync(
        message.lineage, Region::kUs, readers_,
        [this, index, carried, codec_ok](Status barrier) {
          window_->MarkBarrierEnd(index);
          const Outcome outcome = ReadPost(index, barrier, codec_ok);
          window_->Complete(index, outcome, carried);
        },
        barrier_options_);
  }

  Outcome ReadPost(uint64_t index, const Status& barrier, bool codec_ok) {
    const uint64_t id = window_->id(index);
    ScopedSpan resume(SpanKind::kResume, id);
    if (!barrier.ok()) {
      return Outcome::kBarrierError;
    }
    antipode::Result<std::string> post = Status::Internal("unread");
    {
      ScopedSpan span(SpanKind::kShimRead, id);
      post = post_shim_->ReadCtx(Region::kUs, PostKey(id));
    }
    if (!post.ok()) {
      return ReadOutcome(post.status());
    }
    return *post == Body(id) && codec_ok ? Outcome::kOk : Outcome::kReadError;
  }

  Window* window_;
  antipode::ThreadPool* readers_;
  bool traced_;
  const std::vector<std::string>* bodies_;
  std::unique_ptr<antipode::KvStore> posts_;
  std::unique_ptr<antipode::PubSubStore> notifications_;
  std::unique_ptr<antipode::KvShim> post_shim_;
  std::unique_ptr<antipode::PubSubShim> notification_shim_;
  antipode::ShimRegistry registry_;
  BarrierOptions barrier_options_;
};

// --- media-fanout ---------------------------------------------------------

// A US upload (blob, review document, event); each event fans out into
// kRenders EU renders, each enforcing the carried lineage under the
// stable-frontier backend, then reading the review and the blob.
class MediaFanoutBed : public Bed {
 public:
  MediaFanoutBed(const BedEnv& env, uint64_t seed, const std::vector<std::string>* blobs)
      : window_(env.window),
        readers_(env.readers),
        traced_(env.traced),
        seed_(seed),
        blobs_(blobs) {
    const std::vector<Region> regions = {Region::kUs, Region::kEu};
    const std::string tag = std::to_string(env.ordinal);
    auto media_options = antipode::ObjectStore::DefaultOptions("mf-media-" + tag, regions);
    // The load-sweep profile: seconds-scale object replication without the
    // minutes-long straggler mode, which would read as saturation.
    media_options.replication.median_millis = 900.0;
    media_ = MakeStore<antipode::ObjectStore>(std::move(media_options), Mix(seed, 3 * env.ordinal));
    reviews_ = MakeStore<antipode::DocStore>(
        antipode::DocStore::DefaultOptions("mf-reviews-" + tag, regions),
        Mix(seed, 3 * env.ordinal + 1));
    events_ = MakeStore<antipode::QueueStore>(
        antipode::QueueStore::DefaultOptions("mf-events-" + tag, regions),
        Mix(seed, 3 * env.ordinal + 2));
    media_shim_ = std::make_unique<antipode::ObjectShim>(media_.get());
    review_shim_ = std::make_unique<antipode::DocShim>(reviews_.get());
    event_shim_ = std::make_unique<antipode::QueueShim>(events_.get());
    registry_.Register(media_shim_.get());
    registry_.Register(review_shim_.get());
    registry_.Register(event_shim_.get());
    barrier_options_ = MakeBarrierOptions(&registry_, EnforcementBackendKind::kStableFrontier);
    event_shim_->Subscribe(Region::kEu, kQueue, env.readers,
                           [this](const ConsumedMessage& message) { Render(message); });
  }

  void Send(uint64_t index) override {
    const uint64_t id = window_->id(index);
    std::optional<ScopedContext> scope;
    {
      ScopedSpan span(SpanKind::kCtxRoot, id);
      scope.emplace(RequestContext(id));
      LineageApi::Root();
    }
    Status status;
    {
      ScopedSpan span(SpanKind::kShimWrite, id);
      status = media_shim_->PutObjectCtx(Region::kUs, kBucket, MediaKey(id), Blob(id));
    }
    if (status.ok()) {
      ScopedSpan span(SpanKind::kShimWrite, id);
      status = review_shim_->InsertDocCtx(Region::kUs, kCollection, ReviewKey(id), Review(id));
    }
    if (status.ok()) {
      ScopedSpan span(SpanKind::kShimPublish, id);
      status = event_shim_->PublishCtx(Region::kUs, kQueue, std::to_string(index));
    }
    if (!status.ok()) {
      window_->Complete(index, Outcome::kWriteError);
      return;
    }
    window_->MarkPublished(index);
  }

 private:
  static constexpr char kBucket[] = "media";
  static constexpr char kCollection[] = "reviews";
  static constexpr char kQueue[] = "review-events";

  static std::string MediaKey(uint64_t id) { return "poster-" + std::to_string(id); }
  static std::string ReviewKey(uint64_t id) { return "review-" + std::to_string(id); }
  const std::string& Blob(uint64_t id) const { return (*blobs_)[id % blobs_->size()]; }
  int64_t Stars(uint64_t id) const { return static_cast<int64_t>(1 + Mix(seed_, id) % 5); }
  Document Review(uint64_t id) const {
    return Document{{"media", Value(MediaKey(id))}, {"stars", Value(Stars(id))}};
  }

  // The first render's barrier waits on the frontier cut asynchronously, so
  // no renderer thread parks while the upload replicates. Its continuation
  // performs that render's reads, then the other renders.
  void Render(const ConsumedMessage& message) {
    uint64_t index = 0;
    if (!DecodeIndex(message.payload, window_->planned(), &index)) {
      return;
    }
    const uint64_t id = window_->id(index);
    window_->MarkDelivered(index);
    ScopedSpan deliver(SpanKind::kDeliver, id);
    bool codec_ok = true;
    const Carried carried = MeasureCarried(message.lineage, traced_, &codec_ok);
    ScopedSpan launch(SpanKind::kBarrierLaunch, id);
    window_->MarkBarrierStart(index);
    antipode::BarrierAsync(
        message.lineage, Region::kEu, readers_,
        [this, index, carried, codec_ok, lineage = message.lineage](Status barrier) {
          window_->MarkBarrierEnd(index);
          Outcome outcome = Outcome::kBarrierError;
          if (barrier.ok()) {
            ScopedSpan resume(SpanKind::kResume, window_->id(index));
            outcome = codec_ok ? Outcome::kOk : Outcome::kReadError;
            for (int r = 0; r < kRenders && outcome == Outcome::kOk; ++r) {
              outcome = RenderOnce(window_->id(index), lineage, /*own_barrier=*/r > 0);
            }
          }
          window_->Complete(index, outcome, carried);
        },
        barrier_options_);
  }

  // One render, in its own context as a separate render request would run.
  // Renders after the first enforce their own copy of the carried lineage
  // with a synchronous Barrier, which the already-enforced cut satisfies from
  // the visibility cache.
  Outcome RenderOnce(uint64_t id, const Lineage& carried, bool own_barrier) {
    ScopedSpan render(SpanKind::kRender, id);
    ScopedContext scope{RequestContext(id)};
    if (own_barrier) {
      const Lineage lineage = carried;
      Status barrier;
      {
        ScopedSpan span(SpanKind::kBarrier, id);
        barrier = Barrier(lineage, Region::kEu, barrier_options_);
      }
      if (!barrier.ok()) {
        return Outcome::kBarrierError;
      }
    }
    antipode::Result<Document> review = Status::Internal("unread");
    {
      ScopedSpan span(SpanKind::kShimRead, id);
      review = review_shim_->FindByIdCtx(Region::kEu, kCollection, ReviewKey(id));
    }
    if (!review.ok()) {
      return ReadOutcome(review.status());
    }
    if (!(*review == Review(id))) {
      return Outcome::kReadError;
    }
    antipode::Result<std::string> blob = Status::Internal("unread");
    {
      ScopedSpan span(SpanKind::kShimRead, id);
      blob = media_shim_->GetObjectCtx(Region::kEu, kBucket, MediaKey(id));
    }
    if (!blob.ok()) {
      return ReadOutcome(blob.status());
    }
    return *blob == Blob(id) ? Outcome::kOk : Outcome::kReadError;
  }

  Window* window_;
  antipode::ThreadPool* readers_;
  bool traced_;
  uint64_t seed_;
  const std::vector<std::string>* blobs_;
  std::unique_ptr<antipode::ObjectStore> media_;
  std::unique_ptr<antipode::DocStore> reviews_;
  std::unique_ptr<antipode::QueueStore> events_;
  std::unique_ptr<antipode::ObjectShim> media_shim_;
  std::unique_ptr<antipode::DocShim> review_shim_;
  std::unique_ptr<antipode::QueueShim> event_shim_;
  antipode::ShimRegistry registry_;
  BarrierOptions barrier_options_;
};

// --- mesh-deep ------------------------------------------------------------

// LiveMesh over the default topology: the write side executes a whole plan
// through RPC (lineage carried on baggage); the reader enforces the returned
// lineage at US and reads the plan's last write.
class MeshDeepBed : public Bed {
 public:
  MeshDeepBed(const BedEnv& env, uint64_t seed, const antipode::MeshTopology* topology)
      : window_(env.window),
        readers_(env.readers),
        traced_(env.traced),
        seed_(seed),
        mesh_(topology, Options(env.ordinal)) {}

  void Send(uint64_t index) override {
    const uint64_t id = window_->id(index);
    std::optional<ScopedContext> scope;
    {
      ScopedSpan span(SpanKind::kCtxRoot, id);
      scope.emplace(RequestContext(id));
    }
    auto writer = std::make_shared<antipode::LiveMesh::WriterResult>();
    {
      ScopedSpan span(SpanKind::kMeshWriter, id);
      *writer = mesh_.RunWriterSide(MeshIndex(id));
    }
    if (!writer->status.ok()) {
      window_->Complete(index, Outcome::kWriteError);
      return;
    }
    window_->MarkPublished(index);
    readers_->Submit([this, index, writer] { Read(index, *writer); });
  }

 private:
  static antipode::LiveMeshOptions Options(uint64_t ordinal) {
    antipode::LiveMeshOptions options;
    options.antipode = true;
    options.backend = EnforcementBackendKind::kLineage;
    options.barrier_regions = {Region::kUs};
    options.tag = "md" + std::to_string(ordinal);
    return options;
  }

  // LiveMesh runs plan `index % plans` and keys its writes by `index`: the
  // seed picks the plan, the request id keeps keys unique.
  uint64_t MeshIndex(uint64_t id) const {
    const uint64_t plans = mesh_.topology().plans.size();
    return id * plans + Mix(seed_, id) % plans;
  }

  void Read(uint64_t index, const antipode::LiveMesh::WriterResult& writer) {
    const uint64_t id = window_->id(index);
    window_->MarkDelivered(index);
    Carried carried;
    bool found = false;
    bool codec_ok = true;
    {
      ScopedSpan reader(SpanKind::kReader, id);
      carried = MeasureCarried(writer.lineage, traced_, &codec_ok);
      ScopedSpan span(SpanKind::kMeshReader, id);
      found = mesh_.RunReaderSide(writer, MeshIndex(id));
    }
    const Outcome outcome =
        !found ? Outcome::kViolation : (codec_ok ? Outcome::kOk : Outcome::kReadError);
    window_->Complete(index, outcome, carried);
  }

  Window* window_;
  antipode::ThreadPool* readers_;
  bool traced_;
  uint64_t seed_;
  antipode::LiveMesh mesh_;
};

// --- workload definitions -------------------------------------------------

// Thread split (generator + writers + readers <= 4, the box's cores), sized
// to each side's work: a post write (two shim calls) costs about twice its
// read side; a media upload about half its eight renders; a mesh write side
// blocks on its whole RPC plan. One pool shared by both sides measured worse:
// reads queue behind writes.
class PostNotify : public Workload {
 public:
  explicit PostNotify(uint64_t seed) : seed_(seed) {}
  const WorkloadSpec& spec() const override { return spec_; }
  void Prepare() override { bodies_ = MakeBodies(Mix(seed_, 1), 64, 64, 320); }
  std::unique_ptr<Bed> MakeBed(const BedEnv& env) override {
    return std::make_unique<PostNotifyBed>(env, seed_, &bodies_);
  }

 private:
  const WorkloadSpec spec_{"post-notify", 22000, 150, 2, 1};
  const uint64_t seed_;
  std::vector<std::string> bodies_;
};

class MediaFanout : public Workload {
 public:
  explicit MediaFanout(uint64_t seed) : seed_(seed) {}
  const WorkloadSpec& spec() const override { return spec_; }
  void Prepare() override { blobs_ = MakeBodies(Mix(seed_, 2), 16, 256, 1024); }
  std::unique_ptr<Bed> MakeBed(const BedEnv& env) override {
    return std::make_unique<MediaFanoutBed>(env, seed_, &blobs_);
  }

 private:
  const WorkloadSpec spec_{"media-fanout", 9000, 400, 1, 2};
  const uint64_t seed_;
  std::vector<std::string> blobs_;
};

class MeshDeep : public Workload {
 public:
  explicit MeshDeep(uint64_t seed) : seed_(seed) {}
  const WorkloadSpec& spec() const override { return spec_; }
  // The default topology, whatever the seed: the seed only picks which plan
  // each request runs.
  void Prepare() override {
    LineageApi::SetNativeSlot(true);
    topology_ = std::make_unique<antipode::MeshTopology>(
        antipode::BuildMeshTopology(antipode::MeshOptions{}));
  }
  std::unique_ptr<Bed> MakeBed(const BedEnv& env) override {
    return std::make_unique<MeshDeepBed>(env, seed_, topology_.get());
  }

 private:
  const WorkloadSpec spec_{"mesh-deep", 400, 300, 2, 1};
  const uint64_t seed_;
  std::unique_ptr<antipode::MeshTopology> topology_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "post-notify") {
    return std::make_unique<PostNotify>(seed);
  }
  if (name == "media-fanout") {
    return std::make_unique<MediaFanout>(seed);
  }
  if (name == "mesh-deep") {
    return std::make_unique<MeshDeep>(seed);
  }
  return nullptr;
}

}  // namespace perfbench
