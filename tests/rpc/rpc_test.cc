#include "src/rpc/rpc.h"

#include <gtest/gtest.h>

#include "src/antipode/lineage_api.h"
#include "src/common/sim.h"
#include "src/common/timer_service.h"
#include "src/net/network.h"
#include "src/net/topology.h"

namespace antipode {
namespace {

class RpcTest : public ::testing::Test {
 protected:
  void SetUp() override { TimeScale::Set(0.01); }
  void TearDown() override { TimeScale::Set(1.0); }

  ServiceRegistry registry_;
};

TEST_F(RpcTest, CallInvokesHandlerAndReturnsPayload) {
  RpcService* echo = registry_.RegisterService("echo", Region::kUs, 2);
  echo->RegisterMethod("shout", [](const std::string& payload) {
    return Result<std::string>(payload + "!");
  });
  RpcClient client(&registry_, Region::kUs);
  auto response = client.Call("echo", "shout", "hey");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(*response, "hey!");
}

TEST_F(RpcTest, UnknownServiceFails) {
  RpcClient client(&registry_, Region::kUs);
  auto response = client.Call("nope", "x", "");
  EXPECT_EQ(response.status().code(), StatusCode::kNotFound);
}

TEST_F(RpcTest, UnknownMethodFails) {
  registry_.RegisterService("svc", Region::kUs, 1);
  RpcClient client(&registry_, Region::kUs);
  auto response = client.Call("svc", "missing", "");
  EXPECT_EQ(response.status().code(), StatusCode::kNotFound);
}

TEST_F(RpcTest, HandlerErrorPropagates) {
  RpcService* svc = registry_.RegisterService("err", Region::kUs, 1);
  svc->RegisterMethod("fail", [](const std::string&) {
    return Result<std::string>(Status::InvalidArgument("bad input"));
  });
  RpcClient client(&registry_, Region::kUs);
  auto response = client.Call("err", "fail", "");
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(response.status().message(), "bad input");
}

// Runs in virtual time: a call costs exactly its sampled one-way latencies,
// so the ratio does not depend on how loaded the machine is.
TEST_F(RpcTest, CrossRegionCallIsSlowerThanLocal) {
  ScopedSimMode sim(/*seed=*/1);
  TimerService timers(TimerServiceOptions{.deterministic = true});
  RegionTopology topology(/*jitter_sigma=*/0.1, /*seed=*/1);
  SimulatedNetwork network(&topology, &timers);
  ServiceRegistry registry(&network);
  RpcService* local = registry.RegisterService("local", Region::kUs, 1);
  RpcService* remote = registry.RegisterService("remote", Region::kSg, 1);
  auto noop = [](const std::string&) { return Result<std::string>(std::string()); };
  local->RegisterMethod("m", noop);
  remote->RegisterMethod("m", noop);
  RpcClient client(&registry, Region::kUs);

  const TimePoint t0 = GlobalClock().Now();
  ASSERT_TRUE(client.Call("local", "m", "").ok());
  const auto local_elapsed = GlobalClock().Now() - t0;
  const TimePoint t1 = GlobalClock().Now();
  ASSERT_TRUE(client.Call("remote", "m", "").ok());
  const auto remote_elapsed = GlobalClock().Now() - t1;
  EXPECT_GT(remote_elapsed, local_elapsed * 3);
}

TEST_F(RpcTest, ContextPropagatesIntoHandler) {
  RpcService* svc = registry_.RegisterService("ctx", Region::kUs, 1);
  svc->RegisterMethod("read-baggage", [](const std::string&) {
    RequestContext* context = RequestContext::Current();
    if (context == nullptr) {
      return Result<std::string>(Status::Internal("no context"));
    }
    return Result<std::string>(context->baggage().Get("user").value_or("none"));
  });
  ScopedContext scoped(RequestContext(11));
  RequestContext::Current()->baggage().Set("user", "alice");
  RpcClient client(&registry_, Region::kUs);
  auto response = client.Call("ctx", "read-baggage", "");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(*response, "alice");
}

TEST_F(RpcTest, HandlerBaggageFlowsBackToCaller) {
  RpcService* svc = registry_.RegisterService("back", Region::kUs, 1);
  svc->RegisterMethod("tag", [](const std::string&) {
    RequestContext::Current()->baggage().Set("server-note", "seen");
    return Result<std::string>(std::string("ok"));
  });
  ScopedContext scoped(RequestContext(12));
  RpcClient client(&registry_, Region::kUs);
  client.Call("back", "tag", "");
  EXPECT_EQ(RequestContext::Current()->baggage().Get("server-note"), "seen");
}

TEST_F(RpcTest, LineageAccumulatesAcrossNestedCalls) {
  // A callee that appends a write id to the propagated lineage; the update
  // must be visible in the caller's context after the call (Fig. 4 step 3).
  RpcService* svc = registry_.RegisterService("writer", Region::kUs, 1);
  svc->RegisterMethod("write", [](const std::string&) {
    LineageApi::Append(WriteId{"db", "k", 3});
    return Result<std::string>(std::string("ok"));
  });
  ScopedContext scoped(RequestContext(13));
  LineageApi::Root();
  RpcClient client(&registry_, Region::kUs);
  client.Call("writer", "write", "");
  auto lineage = LineageApi::Current();
  ASSERT_TRUE(lineage.has_value());
  EXPECT_TRUE(lineage->Contains(WriteId{"db", "k", 3}));
}

TEST_F(RpcTest, LineageUnionWhenBothSidesWrite) {
  RpcService* svc = registry_.RegisterService("w2", Region::kUs, 1);
  svc->RegisterMethod("write", [](const std::string&) {
    LineageApi::Append(WriteId{"db", "remote", 1});
    return Result<std::string>(std::string("ok"));
  });
  ScopedContext scoped(RequestContext(14));
  LineageApi::Root();
  LineageApi::Append(WriteId{"db", "local", 1});
  RpcClient client(&registry_, Region::kUs);
  client.Call("w2", "write", "");
  auto lineage = LineageApi::Current();
  ASSERT_TRUE(lineage.has_value());
  EXPECT_TRUE(lineage->Contains(WriteId{"db", "local", 1}));
  EXPECT_TRUE(lineage->Contains(WriteId{"db", "remote", 1}));
}

TEST_F(RpcTest, CastDeliversAsynchronously) {
  RpcService* svc = registry_.RegisterService("async", Region::kUs, 1);
  std::atomic<bool> ran{false};
  svc->RegisterMethod("fire", [&ran](const std::string&) {
    ran = true;
    return Result<std::string>(std::string());
  });
  RpcClient client(&registry_, Region::kUs);
  EXPECT_TRUE(client.Cast("async", "fire", "").ok());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!ran.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(ran.load());
}

TEST_F(RpcTest, CastToUnknownServiceFails) {
  RpcClient client(&registry_, Region::kUs);
  EXPECT_EQ(client.Cast("ghost", "m", "").code(), StatusCode::kNotFound);
}

TEST_F(RpcTest, ConcurrentCallsAreServed) {
  RpcService* svc = registry_.RegisterService("busy", Region::kUs, 4);
  svc->RegisterMethod("m", [](const std::string& p) { return Result<std::string>(p); });
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int i = 0; i < 16; ++i) {
    threads.emplace_back([&, i] {
      RpcClient client(&registry_, Region::kUs);
      auto response = client.Call("busy", "m", std::to_string(i));
      if (response.ok() && *response == std::to_string(i)) {
        ok.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(ok.load(), 16);
}

TEST_F(RpcTest, CallAfterShutdownReturnsUnavailable) {
  RpcService* svc = registry_.RegisterService("gone", Region::kUs, 1);
  svc->RegisterMethod("m", [](const std::string&) { return Result<std::string>(std::string()); });
  registry_.ShutdownAll();
  RpcClient client(&registry_, Region::kUs);
  auto response = client.Call("gone", "m", "");
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace antipode
