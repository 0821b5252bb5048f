// Concurrency stress: many driver threads using the distributed task API at
// once; the caching layer under concurrent put/get/delete; failure injection
// racing live traffic. These tests assert invariants (no lost updates, no
// crashes, failures surface as clean statuses), not timing.
#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/mutex.h"

#include "tests/runtime/runtime_test_util.h"

namespace skadi {
namespace {

class StressTest : public ::testing::Test {
 protected:
  void Build(RuntimeOptions options = {}) {
    ClusterConfig config;
    config.racks = 2;
    config.servers_per_rack = 3;
    config.workers_per_server = 2;
    cluster_ = Cluster::Create(config);
    RegisterTestFunctions(registry_);
    runtime_ = std::make_unique<SkadiRuntime>(cluster_.get(), &registry_, options);
  }

  std::unique_ptr<Cluster> cluster_;
  FunctionRegistry registry_;
  std::unique_ptr<SkadiRuntime> runtime_;
};

TEST_F(StressTest, ConcurrentDriversSubmitChains) {
  Build();
  constexpr int kDrivers = 8;
  constexpr int kChain = 10;
  std::atomic<int> failures{0};

  std::vector<std::thread> drivers;
  for (int d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([this, d, &failures] {
      ObjectRef current;
      for (int i = 0; i < kChain; ++i) {
        TaskSpec spec = Call("inc_i64", {i == 0 ? TaskArg::Value(I64Buffer(d * 1000))
                                                : TaskArg::Ref(current)});
        auto refs = runtime_->Submit(std::move(spec));
        if (!refs.ok()) {
          failures.fetch_add(1);
          return;
        }
        current = (*refs)[0];
      }
      auto result = runtime_->Get(current, 30000);
      if (!result.ok() || I64Of(*result) != d * 1000 + kChain) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& t : drivers) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  // Get() unblocks at MarkReady, slightly before the completion counter is
  // bumped; give the last worker a beat to finish its bookkeeping.
  Counter& completed = runtime_->metrics().GetCounter("runtime.tasks_completed");
  for (int i = 0; i < 1000 && completed.value() < kDrivers * kChain; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(completed.value(), kDrivers * kChain);
}

TEST_F(StressTest, ConcurrentFanOutSharedInput) {
  Build();
  auto shared = runtime_->Put(I64Buffer(7));
  ASSERT_TRUE(shared.ok());

  constexpr int kTasks = 64;
  std::vector<ObjectRef> refs;
  for (int i = 0; i < kTasks; ++i) {
    auto r = runtime_->Submit(Call("inc_i64", {TaskArg::Ref(*shared)}));
    ASSERT_TRUE(r.ok());
    refs.push_back((*r)[0]);
  }
  ASSERT_TRUE(runtime_->Wait(refs, 30000).ok());
  for (const ObjectRef& ref : refs) {
    auto v = runtime_->Get(ref);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(I64Of(*v), 8);
  }
}

TEST_F(StressTest, CachingLayerConcurrentPutGetDelete) {
  Build();
  CachingLayer& cache = cluster_->cache();
  std::vector<NodeId> nodes = cluster_->ComputeNodes();
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 200;
  std::atomic<int> errors{0};

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      std::vector<ObjectId> mine;
      for (int op = 0; op < kOpsPerThread; ++op) {
        double dice = rng.NextDouble();
        if (dice < 0.5 || mine.empty()) {
          ObjectId id = ObjectId::Next();
          NodeId home = nodes[rng.NextBounded(nodes.size())];
          if (cache.Put(id, Buffer::Zeros(1024 + rng.NextBounded(4096)), home).ok()) {
            mine.push_back(id);
          } else {
            errors.fetch_add(1);
          }
        } else if (dice < 0.85) {
          ObjectId id = mine[rng.NextBounded(mine.size())];
          NodeId reader = nodes[rng.NextBounded(nodes.size())];
          if (!cache.Get(id, reader).ok()) {
            errors.fetch_add(1);
          }
        } else {
          ObjectId id = mine.back();
          mine.pop_back();
          if (!cache.Delete(id).ok()) {
            errors.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : workers) {
    t.join();
  }
  EXPECT_EQ(errors.load(), 0);
}

TEST_F(StressTest, KillNodeDuringSteadyTraffic) {
  RuntimeOptions options;
  options.recovery = RecoveryMode::kLineage;
  options.policy = SchedulingPolicy::kRoundRobin;
  Build(options);

  NodeId victim;
  for (NodeId n : cluster_->ComputeNodes()) {
    if (n != cluster_->head()) {
      victim = n;
      break;
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<int> submitted{0};
  std::atomic<int> resolved{0};
  // Diagnostics for the historical ~4–5% flake (a task aborting on the
  // killed node ahead of the scheduler's failover sweep was dropped and its
  // future hung until the Get deadline — fixed by Scheduler::OnTaskAborted).
  // Every non-terminal Get outcome is recorded with its status so a
  // regression names the stuck future instead of timing out silently.
  Mutex failures_mu;
  std::vector<std::string> failures;
  std::thread driver([&] {
    std::vector<ObjectRef> refs;
    while (!stop.load()) {
      auto r = runtime_->Submit(Call("inc_i64", {TaskArg::Value(I64Buffer(1))}));
      if (r.ok()) {
        refs.push_back((*r)[0]);
        submitted.fetch_add(1);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    for (const ObjectRef& ref : refs) {
      // Every future must resolve: a value, or a clean terminal error. The
      // explicit 20 s deadline bounds the test; a healthy run resolves each
      // future in milliseconds.
      auto result = runtime_->Get(ref, 20000);
      if (result.ok() || result.status().code() == StatusCode::kDataLoss) {
        resolved.fetch_add(1);
      } else {
        MutexLock lock(failures_mu);
        failures.push_back("Get(" + ref.id.ToString() +
                           ") did not resolve: " + result.status().ToString());
      }
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(runtime_->KillNode(victim).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true);
  driver.join();

  EXPECT_GT(submitted.load(), 0);
  EXPECT_EQ(resolved.load(), submitted.load())
      << "scheduler pending=" << runtime_->scheduler().pending_tasks()
      << " aborts_redispatched="
      << runtime_->metrics().GetCounter("scheduler.abort_redispatches").value()
      << " failovers="
      << runtime_->metrics().GetCounter("scheduler.failover_redispatches").value();
  {
    MutexLock lock(failures_mu);
    for (const std::string& f : failures) {
      ADD_FAILURE() << f;
    }
  }
}

TEST_F(StressTest, ManyActorsConcurrentCounters) {
  Build();
  ASSERT_TRUE(registry_.Register("ctr_add", [](TaskContext& ctx, std::vector<Buffer>& args)
                                    -> Result<std::vector<Buffer>> {
    auto* value = static_cast<int64_t*>(ctx.actor_state->get());
    *value += I64Of(args[0]);
    return std::vector<Buffer>{I64Buffer(*value)};
  }).ok());

  constexpr int kActors = 6;
  constexpr int kCallsPerActor = 25;
  std::vector<ActorId> actors;
  std::vector<NodeId> nodes = cluster_->ComputeNodes();
  for (int a = 0; a < kActors; ++a) {
    auto actor = runtime_->CreateActor(nodes[static_cast<size_t>(a) % nodes.size()],
                                       std::make_shared<int64_t>(0));
    ASSERT_TRUE(actor.ok());
    actors.push_back(*actor);
  }

  // Failures are collected as strings: gtest assertions are not reliable off
  // the main thread, and sanitizer runs need the long Wait timeout.
  std::vector<std::thread> callers;
  Mutex errors_mu;
  std::vector<std::string> errors;
  auto record = [&](std::string message) {
    MutexLock lock(errors_mu);
    errors.push_back(std::move(message));
  };
  for (int a = 0; a < kActors; ++a) {
    callers.emplace_back([&, a] {
      std::vector<ObjectRef> refs;
      for (int i = 0; i < kCallsPerActor; ++i) {
        auto r = runtime_->SubmitActorTask(actors[static_cast<size_t>(a)],
                                           Call("ctr_add", {TaskArg::Value(I64Buffer(1))}));
        if (!r.ok()) {
          record("submit: " + r.status().ToString());
          return;
        }
        refs.push_back((*r)[0]);
      }
      Status waited = runtime_->Wait(refs, 120000);
      if (!waited.ok()) {
        record("wait: " + waited.ToString());
        return;
      }
      // One caller per actor: its calls run one at a time and in submission
      // order (the actor's mailbox), so the i-th call sees exactly i+1. A
      // lost update collapses two outputs onto one value; a reordered call
      // swaps two.
      for (int i = 0; i < kCallsPerActor; ++i) {
        auto got = runtime_->Get(refs[static_cast<size_t>(i)]);
        if (!got.ok()) {
          record("get: " + got.status().ToString());
          return;
        }
        if (I64Of(*got) != i + 1) {
          record("call " + std::to_string(i) + " saw " + std::to_string(I64Of(*got)) +
                 ", expected " + std::to_string(i + 1) +
                 " — an increment was lost, duplicated or reordered");
          return;
        }
      }
    });
  }
  for (auto& t : callers) {
    t.join();
  }
  for (const std::string& e : errors) {
    ADD_FAILURE() << e;
  }
}

TEST_F(StressTest, MetricsConsistentAfterLoad) {
  Build();
  std::vector<ObjectRef> refs;
  for (int i = 0; i < 100; ++i) {
    auto r = runtime_->Submit(Call("inc_i64", {TaskArg::Value(I64Buffer(i))}));
    ASSERT_TRUE(r.ok());
    refs.push_back((*r)[0]);
  }
  ASSERT_TRUE(runtime_->Wait(refs, 30000).ok());
  MetricsRegistry& metrics = runtime_->metrics();
  EXPECT_EQ(metrics.GetCounter("runtime.tasks_submitted").value(), 100);
  EXPECT_EQ(metrics.GetCounter("runtime.tasks_completed").value(), 100);
  EXPECT_EQ(metrics.GetCounter("runtime.tasks_failed").value(), 0);
}

}  // namespace
}  // namespace skadi
