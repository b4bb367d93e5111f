#include "src/trace/mesh.h"

#include <gtest/gtest.h>

#include "src/common/clock.h"
#include "src/fault/fault_injector.h"

namespace antipode {
namespace {

// Executing a live mesh plan crosses real (model-latency) RPC and
// replication paths; compress time the way the fault tests do.
class LiveMeshTest : public ::testing::Test {
 protected:
  void SetUp() override { TimeScale::Set(0.02); }
  void TearDown() override { TimeScale::Set(1.0); }
};

// Small-but-real admission window so the builder terminates fast in tests
// while still exercising the deep-graph filter.
MeshOptions TestOptions() {
  MeshOptions options;
  options.num_plans = 6;
  options.min_live_services = 40;
  options.max_plans = 48;
  options.stateless_layer_width = 8;
  options.stateful_width = 24;
  options.num_stores = 6;
  return options;
}

TEST(MeshTopologyTest, DeterministicForOptions) {
  const MeshOptions options = TestOptions();
  const MeshTopology a = BuildMeshTopology(options);
  const MeshTopology b = BuildMeshTopology(options);
  // Identical options (seed included) must yield an identical topology:
  // same live services, same edges/store bindings, same plan sequence.
  EXPECT_EQ(a.services, b.services);
  EXPECT_EQ(a.bindings, b.bindings);
  EXPECT_EQ(a.plans, b.plans);
  EXPECT_EQ(a.stats.graphs_sampled, b.stats.graphs_sampled);
}

TEST(MeshTopologyTest, DifferentSeedDifferentTopology) {
  MeshOptions options = TestOptions();
  const MeshTopology a = BuildMeshTopology(options);
  options.gen.seed ^= 0x9E3779B97F4A7C15ULL;
  const MeshTopology b = BuildMeshTopology(options);
  EXPECT_NE(a.plans, b.plans);
}

TEST(MeshTopologyTest, AdmittedPlansAreInRegime) {
  const MeshOptions options = TestOptions();
  const MeshTopology topology = BuildMeshTopology(options);
  ASSERT_GE(topology.plans.size(), options.num_plans);
  for (const MeshPlan& plan : topology.plans) {
    EXPECT_GE(plan.stateful_calls, options.min_stateful_calls);
    EXPECT_LE(plan.stateful_calls, options.max_stateful_calls);
    EXPECT_GE(plan.max_depth, options.min_depth);
    EXPECT_LE(plan.calls.size(), options.max_plan_calls);
  }
  EXPECT_GE(topology.stats.min_stateful_calls, options.min_stateful_calls);
  EXPECT_GE(topology.stats.min_depth, options.min_depth);
  EXPECT_GE(topology.live_services(), options.min_live_services);
}

TEST(MeshTopologyTest, PlanStructureIsWellFormed) {
  const MeshTopology topology = BuildMeshTopology(TestOptions());
  for (const MeshPlan& plan : topology.plans) {
    ASSERT_FALSE(plan.calls.empty());
    // Root is the stateless entry point; the terminal-read target is the
    // execution-order-last stateful call.
    EXPECT_FALSE(plan.calls.front().stateful);
    ASSERT_LT(plan.last_stateful, plan.calls.size());
    EXPECT_TRUE(plan.calls[plan.last_stateful].stateful);
    for (uint32_t i = plan.last_stateful + 1; i < plan.calls.size(); ++i) {
      EXPECT_FALSE(plan.calls[i].stateful);
    }
    for (uint32_t i = 0; i < plan.calls.size(); ++i) {
      const MeshCall& call = plan.calls[i];
      if (call.stateful) {
        EXPECT_LT(call.target, topology.bindings.size());
        EXPECT_TRUE(call.children.empty());
      } else {
        ASSERT_LT(call.target, topology.services.size());
        // Layer-monotone identity: the DAG/no-deadlock invariant. A node
        // always precedes its children.
        EXPECT_EQ(topology.services[call.target].layer, call.depth);
        for (uint32_t child : call.children) {
          ASSERT_LT(child, plan.calls.size());
          EXPECT_GT(child, i);
          EXPECT_EQ(plan.calls[child].depth, call.depth + 1);
        }
      }
    }
  }
}

TEST(MeshTopologyTest, BindingsMapToConfiguredStores) {
  const MeshOptions options = TestOptions();
  const MeshTopology topology = BuildMeshTopology(options);
  ASSERT_FALSE(topology.bindings.empty());
  for (const MeshBinding& binding : topology.bindings) {
    EXPECT_LT(binding.service, options.stateful_width);
    EXPECT_LT(binding.store, options.num_stores);
  }
}

TEST_F(LiveMeshTest, ExecutesPlansWithZeroViolationsUnderBarrier) {
  MeshOptions options = TestOptions();
  options.num_plans = 2;
  options.min_live_services = 1;
  const MeshTopology topology = BuildMeshTopology(options);
  ASSERT_GE(topology.plans.size(), 2u);

  LiveMeshOptions live;
  live.threads_per_service = 1;
  LiveMesh mesh(&topology, live);
  for (uint64_t request = 0; request < 4; ++request) {
    RequestContext context;
    ScopedContext scoped(std::move(context));
    LiveMesh::WriterResult writer = mesh.RunWriterSide(request);
    ASSERT_TRUE(writer.status.ok()) << writer.status.message();
    // Deep plan ⇒ the carried lineage holds every stateful write.
    EXPECT_GE(writer.lineage.deps().size(),
              topology.plans[writer.plan].stateful_calls);
    EXPECT_TRUE(mesh.RunReaderSide(writer, request));
  }
  mesh.DrainReplication();
}

TEST_F(LiveMeshTest, BaselineMeshRunsWithoutAntipode) {
  MeshOptions options = TestOptions();
  options.num_plans = 1;
  options.min_live_services = 1;
  const MeshTopology topology = BuildMeshTopology(options);

  LiveMeshOptions live;
  live.antipode = false;
  live.threads_per_service = 1;
  live.tag = "baseline";
  LiveMesh mesh(&topology, live);
  RequestContext context;
  ScopedContext scoped(std::move(context));
  LiveMesh::WriterResult writer = mesh.RunWriterSide(0);
  EXPECT_TRUE(writer.status.ok()) << writer.status.message();
  EXPECT_TRUE(writer.lineage.deps().empty());
  mesh.DrainReplication();
  // After a full drain the read succeeds even without a barrier.
  EXPECT_TRUE(mesh.RunReaderSide(writer, 0));
}

// A failed barrier fails the reader side even when the terminal read would
// find the value: every visibility wait errors, but replication has drained.
TEST_F(LiveMeshTest, FailedBarrierFailsReaderSide) {
  MeshOptions options = TestOptions();
  options.num_plans = 1;
  options.min_live_services = 1;
  const MeshTopology topology = BuildMeshTopology(options);

  LiveMeshOptions live;
  live.use_cache = false;  // no cache hit may stand in for the failing wait
  live.threads_per_service = 1;
  live.tag = "wait-error";
  LiveMesh mesh(&topology, live);
  RequestContext context;
  ScopedContext scoped(std::move(context));
  LiveMesh::WriterResult writer = mesh.RunWriterSide(0);
  ASSERT_TRUE(writer.status.ok()) << writer.status.message();
  ASSERT_FALSE(writer.lineage.deps().empty());
  mesh.DrainReplication();

  FaultRule wait_error;
  wait_error.kind = FaultKind::kStoreWaitError;
  FaultInjector::Default().Arm(FaultPlan{"wait-error", 1, {wait_error}});
  const bool passed = mesh.RunReaderSide(writer, 0);
  FaultInjector::Default().Disarm();
  EXPECT_FALSE(passed);
  EXPECT_TRUE(mesh.RunReaderSide(writer, 0));  // same request, no fault
}

}  // namespace
}  // namespace antipode
