// Integration tests of the stateful serverless runtime: the distributed task
// API, futures (pull + push), scheduling policies, actors, gang scheduling,
// autoscaling, and failure recovery.
#include "src/runtime/runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <iterator>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/metric_names.h"
#include "tests/runtime/runtime_test_util.h"

namespace skadi {
namespace {

class RuntimeTest : public ::testing::Test {
 protected:
  void Build(RuntimeOptions options = {}, ClusterConfig config = DefaultConfig()) {
    // The runtime references the cluster from worker threads: tear the old
    // runtime down before replacing the cluster it points at.
    runtime_.reset();
    cluster_ = Cluster::Create(config);
    RegisterTestFunctions(registry_);
    runtime_ = std::make_unique<SkadiRuntime>(cluster_.get(), &registry_, options);
  }

  static ClusterConfig DefaultConfig() {
    ClusterConfig config;
    config.racks = 2;
    config.servers_per_rack = 2;
    config.workers_per_server = 2;
    return config;
  }

  std::unique_ptr<Cluster> cluster_;
  FunctionRegistry registry_;
  std::unique_ptr<SkadiRuntime> runtime_;
};

TEST_F(RuntimeTest, SubmitByValueAndGet) {
  Build();
  auto refs = runtime_->Submit(Call("echo", {TaskArg::Value(Buffer::FromString("hi"))}));
  ASSERT_TRUE(refs.ok());
  ASSERT_EQ(refs->size(), 1u);
  auto result = runtime_->Get((*refs)[0]);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->AsStringView(), "hi");
}

TEST_F(RuntimeTest, PutThenGet) {
  Build();
  auto ref = runtime_->Put(Buffer::FromString("stored"));
  ASSERT_TRUE(ref.ok());
  auto result = runtime_->Get(*ref);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->AsStringView(), "stored");
}

TEST_F(RuntimeTest, ChainThroughFutures) {
  Build();
  auto a = runtime_->Submit(Call("inc_i64", {TaskArg::Value(I64Buffer(1))}));
  ASSERT_TRUE(a.ok());
  auto b = runtime_->Submit(Call("inc_i64", {TaskArg::Ref((*a)[0])}));
  ASSERT_TRUE(b.ok());
  auto c = runtime_->Submit(Call("inc_i64", {TaskArg::Ref((*b)[0])}));
  ASSERT_TRUE(c.ok());
  auto result = runtime_->Get((*c)[0]);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(I64Of(*result), 4);
}

TEST_F(RuntimeTest, FanOutFanIn) {
  Build();
  std::vector<TaskArg> leaves;
  for (int i = 1; i <= 8; ++i) {
    auto ref = runtime_->Submit(Call("inc_i64", {TaskArg::Value(I64Buffer(i))}));
    ASSERT_TRUE(ref.ok());
    leaves.push_back(TaskArg::Ref((*ref)[0]));
  }
  auto total = runtime_->Submit(Call("sum_all", std::move(leaves)));
  ASSERT_TRUE(total.ok());
  auto result = runtime_->Get((*total)[0]);
  ASSERT_TRUE(result.ok());
  // sum of (i+1) for i=1..8 = 44.
  EXPECT_EQ(I64Of(*result), 44);
}

TEST_F(RuntimeTest, MixedValueAndRefArgs) {
  Build();
  auto a = runtime_->Submit(Call("inc_i64", {TaskArg::Value(I64Buffer(10))}));
  ASSERT_TRUE(a.ok());
  auto sum = runtime_->Submit(
      Call("add_i64", {TaskArg::Ref((*a)[0]), TaskArg::Value(I64Buffer(5))}));
  ASSERT_TRUE(sum.ok());
  auto result = runtime_->Get((*sum)[0]);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(I64Of(*result), 16);
}

TEST_F(RuntimeTest, UnknownFunctionRejectedAtSubmit) {
  Build();
  auto refs = runtime_->Submit(Call("nope", {}));
  EXPECT_EQ(refs.status().code(), StatusCode::kNotFound);
}

// A terminally failed task records its status on its outputs: the Get
// returns that status at once instead of retrying until its timeout.
TEST_F(RuntimeTest, FailingTaskMarksOutputLost) {
  Build();
  auto refs = runtime_->Submit(Call("fail_always", {}));
  ASSERT_TRUE(refs.ok());
  Stopwatch watch;
  auto result = runtime_->Get((*refs)[0], 300);
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_LT(watch.ElapsedMillis(), 100);
  EXPECT_EQ(runtime_->metrics().GetCounter("runtime.tasks_failed").value(), 1);
}

// A task whose argument comes from a failed task fails with that task's
// status, under either recovery mode, without waiting out lost-object
// retries or the Get timeout.
TEST_F(RuntimeTest, DependentOfFailedTaskFailsFast) {
  for (RecoveryMode mode : {RecoveryMode::kLineage, RecoveryMode::kNone}) {
    RuntimeOptions options;
    options.recovery = mode;
    Build(options);
    auto bad = runtime_->Submit(Call("fail_always", {}));
    ASSERT_TRUE(bad.ok());
    auto dependent = runtime_->Submit(Call("inc_i64", {TaskArg::Ref((*bad)[0])}));
    ASSERT_TRUE(dependent.ok());
    Stopwatch watch;
    auto result = runtime_->Get((*dependent)[0], 2000);
    EXPECT_EQ(result.status().code(), StatusCode::kInternal) << result.status().ToString();
    EXPECT_LT(watch.ElapsedMillis(), 100);
    EXPECT_EQ(runtime_->metrics().GetCounter("runtime.tasks_failed").value(), 2);
  }
}

TEST_F(RuntimeTest, WaitBlocksForAllRefs) {
  Build();
  std::vector<ObjectRef> refs;
  for (int i = 0; i < 4; ++i) {
    auto r = runtime_->Submit(Call("inc_i64", {TaskArg::Value(I64Buffer(i))}));
    ASSERT_TRUE(r.ok());
    refs.push_back((*r)[0]);
  }
  EXPECT_TRUE(runtime_->Wait(refs, 10000).ok());
  for (const ObjectRef& ref : refs) {
    EXPECT_TRUE(runtime_->Get(ref).ok());
  }
}

TEST_F(RuntimeTest, ReleaseDeletesObject) {
  Build();
  auto ref = runtime_->Put(Buffer::FromString("temp"));
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(runtime_->Release(*ref).ok());
  EXPECT_FALSE(cluster_->cache().Exists(ref->id));
}

TEST_F(RuntimeTest, PullModeCountsPullResolutions) {
  RuntimeOptions options;
  options.futures = FutureProtocol::kPull;
  options.policy = SchedulingPolicy::kRoundRobin;  // force remote placements
  Build(options);
  auto a = runtime_->Submit(Call("inc_i64", {TaskArg::Value(I64Buffer(0))}));
  auto b = runtime_->Submit(Call("inc_i64", {TaskArg::Ref((*a)[0])}));
  ASSERT_TRUE(runtime_->Get((*b)[0]).ok());
  // At least the consumer resolving a non-local producer output pulls.
  EXPECT_GE(runtime_->metrics().GetCounter("runtime.pull_resolutions").value() +
                runtime_->metrics().GetCounter("runtime.resolve_local_hits").value(),
            1);
}

TEST_F(RuntimeTest, PushModeDeliversBeforeConsumption) {
  RuntimeOptions options;
  options.futures = FutureProtocol::kPush;
  options.policy = SchedulingPolicy::kRoundRobin;
  Build(options);
  auto a = runtime_->Submit(Call("inc_i64", {TaskArg::Value(I64Buffer(0))}));
  auto b = runtime_->Submit(Call("inc_i64", {TaskArg::Ref((*a)[0])}));
  auto result = runtime_->Get((*b)[0]);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(I64Of(*result), 2);
  // The consumer's read of the pushed value was local.
  EXPECT_GE(runtime_->metrics().GetCounter("runtime.pushes").value(), 1);
  EXPECT_EQ(runtime_->metrics().GetCounter("runtime.pull_resolutions").value(), 0);
}

TEST_F(RuntimeTest, PushModeBatchesResolutionsPerDestination) {
  // A fan-in: sum_all consumes 8 upstream outputs, so its dispatch registers
  // 8 ready ref args at once. The batcher must coalesce those resolutions
  // per (owner, consumer-node) — one fabric message instead of 8 — while
  // every push still lands before consumption (pull count stays 0).
  RuntimeOptions options;
  options.futures = FutureProtocol::kPush;
  options.policy = SchedulingPolicy::kRoundRobin;
  Build(options);
  std::vector<TaskArg> leaves;
  for (int i = 0; i < 8; ++i) {
    auto ref = runtime_->Submit(Call("inc_i64", {TaskArg::Value(I64Buffer(i))}));
    ASSERT_TRUE(ref.ok());
    leaves.push_back(TaskArg::Ref((*ref)[0]));
  }
  auto total = runtime_->Submit(Call("sum_all", std::move(leaves)));
  ASSERT_TRUE(total.ok());
  auto result = runtime_->Get((*total)[0]);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(I64Of(*result), 36);  // sum of (i+1), i = 0..7

  int64_t batches = runtime_->metrics().GetCounter("runtime.push_batches").value();
  int64_t entries =
      runtime_->metrics().GetCounter("runtime.push_batched_entries").value();
  int64_t pushes = runtime_->metrics().GetCounter("runtime.pushes").value();
  EXPECT_GE(batches, 1);
  EXPECT_EQ(entries, pushes);  // every push went through the batcher
  EXPECT_GE(entries, 8);       // all 8 leaf outputs were pushed
  // All 8 resolutions share one owner and one destination: coalescing must
  // save control messages, i.e. strictly fewer batches than entries.
  EXPECT_LT(batches, entries);
  EXPECT_EQ(runtime_->metrics().GetCounter("runtime.pull_resolutions").value(), 0);
}

TEST_F(RuntimeTest, BatchingDisabledFallsBackToPerConsumerPushes) {
  RuntimeOptions options;
  options.futures = FutureProtocol::kPush;
  options.policy = SchedulingPolicy::kRoundRobin;
  options.batch_pushes = false;
  Build(options);
  auto a = runtime_->Submit(Call("inc_i64", {TaskArg::Value(I64Buffer(0))}));
  auto b = runtime_->Submit(Call("inc_i64", {TaskArg::Ref((*a)[0])}));
  auto result = runtime_->Get((*b)[0]);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(I64Of(*result), 2);
  EXPECT_GE(runtime_->metrics().GetCounter("runtime.pushes").value(), 1);
  EXPECT_EQ(runtime_->metrics().GetCounter("runtime.push_batches").value(), 0);
}

TEST_F(RuntimeTest, GetAllGathersConcurrently) {
  Build();
  std::vector<ObjectRef> refs;
  for (int i = 0; i < 6; ++i) {
    auto r = runtime_->Submit(Call("inc_i64", {TaskArg::Value(I64Buffer(i))}));
    ASSERT_TRUE(r.ok());
    refs.push_back((*r)[0]);
  }
  auto buffers = runtime_->GetAll(refs);
  ASSERT_TRUE(buffers.ok());
  ASSERT_EQ(buffers->size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(I64Of((*buffers)[static_cast<size_t>(i)]), i + 1)
        << "results must be in input order";
  }
}

TEST_F(RuntimeTest, GetAllEmptyInputReturnsEmpty) {
  Build();
  auto buffers = runtime_->GetAll({});
  ASSERT_TRUE(buffers.ok());
  EXPECT_TRUE(buffers->empty());
}

TEST_F(RuntimeTest, GetAllPropagatesFirstFailure) {
  Build();
  auto good = runtime_->Submit(Call("inc_i64", {TaskArg::Value(I64Buffer(1))}));
  ASSERT_TRUE(good.ok());
  auto bad = runtime_->Submit(Call("fail_always", {}));
  ASSERT_TRUE(bad.ok());
  Stopwatch watch;
  auto buffers = runtime_->GetAll({(*good)[0], (*bad)[0]}, 2000);
  EXPECT_EQ(buffers.status().code(), StatusCode::kInternal);
  EXPECT_LT(watch.ElapsedMillis(), 100);
}

TEST_F(RuntimeTest, LocalityPolicyPlacesComputeAtData) {
  RuntimeOptions options;
  options.policy = SchedulingPolicy::kLocalityAware;
  Build(options);

  // Park a large object on a non-head server, then run a dependent task.
  NodeId target;
  for (NodeId n : cluster_->ComputeNodes()) {
    if (n != cluster_->head()) {
      target = n;
      break;
    }
  }
  ObjectId big = ObjectId::Next();
  ASSERT_TRUE(cluster_->cache().Put(big, Buffer::Zeros(8 * 1024 * 1024), target).ok());
  ASSERT_TRUE(runtime_->ownership(cluster_->head()).RegisterObject(big, TaskId()).ok());
  ASSERT_TRUE(runtime_->ownership(cluster_->head()).MarkReady(big, target, 8 * 1024 * 1024).ok());
  runtime_->scheduler().MarkObjectReady(big);

  int64_t executed_before = runtime_->raylet(target)->tasks_executed();
  auto refs = runtime_->Submit(
      Call("echo", {TaskArg::Ref(ObjectRef{big, cluster_->head()})}));
  ASSERT_TRUE(refs.ok());
  ASSERT_TRUE(runtime_->Wait({(*refs)[0]}, 10000).ok());
  EXPECT_EQ(runtime_->raylet(target)->tasks_executed(), executed_before + 1);
}

TEST_F(RuntimeTest, RequiredDeviceRestrictsPlacement) {
  ClusterConfig config = DefaultConfig();
  config.device_complexes = 1;
  config.gpus_per_complex = 1;
  config.fpgas_per_complex = 0;
  Build({}, config);

  TaskSpec spec = Call("echo", {TaskArg::Value(Buffer::FromString("gpu!"))});
  spec.required_device = DeviceKind::kGpu;
  auto refs = runtime_->Submit(std::move(spec));
  ASSERT_TRUE(refs.ok());
  ASSERT_TRUE(runtime_->Wait({(*refs)[0]}, 10000).ok());
  NodeId gpu = cluster_->NodesWithDevice(DeviceKind::kGpu)[0];
  EXPECT_EQ(runtime_->raylet(gpu)->tasks_executed(), 1);
}

TEST_F(RuntimeTest, PinnedNodeWins) {
  Build();
  NodeId target = cluster_->ComputeNodes().back();
  TaskSpec spec = Call("echo", {TaskArg::Value(Buffer::FromString("x"))});
  spec.pinned_node = target;
  auto refs = runtime_->Submit(std::move(spec));
  ASSERT_TRUE(refs.ok());
  ASSERT_TRUE(runtime_->Wait({(*refs)[0]}, 10000).ok());
  EXPECT_EQ(runtime_->raylet(target)->tasks_executed(), 1);
}

TEST_F(RuntimeTest, GangDispatchesAtomically) {
  Build();
  // 4 servers x 2 workers = 8 slots; a gang of 4 fits.
  std::vector<ObjectRef> refs;
  for (int i = 0; i < 4; ++i) {
    TaskSpec spec = Call("inc_i64", {TaskArg::Value(I64Buffer(i))});
    spec.gang_group = "spmd0";
    spec.gang_size = 4;
    auto r = runtime_->Submit(std::move(spec));
    ASSERT_TRUE(r.ok());
    refs.push_back((*r)[0]);
  }
  EXPECT_TRUE(runtime_->Wait(refs, 10000).ok());
  EXPECT_EQ(runtime_->metrics().GetCounter("scheduler.gangs_dispatched").value(), 1);
}

TEST_F(RuntimeTest, IncompleteGangStaysParked) {
  Build();
  TaskSpec spec = Call("inc_i64", {TaskArg::Value(I64Buffer(0))});
  spec.gang_group = "lonely";
  spec.gang_size = 3;
  auto r = runtime_->Submit(std::move(spec));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(runtime_->Wait({(*r)[0]}, 100).code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(runtime_->scheduler().pending_tasks(), 1u);
}

struct CounterState {
  int64_t value = 0;
};

TEST_F(RuntimeTest, ActorTasksMutateStateSerially) {
  Build();
  ASSERT_TRUE(registry_.Register("counter_add", [](TaskContext& ctx, std::vector<Buffer>& args)
                                        -> Result<std::vector<Buffer>> {
    auto* state = static_cast<CounterState*>(ctx.actor_state->get());
    state->value += I64Of(args[0]);
    return std::vector<Buffer>{I64Buffer(state->value)};
  }).ok());

  NodeId home = cluster_->ComputeNodes()[1];
  auto actor = runtime_->CreateActor(home, std::make_shared<CounterState>());
  ASSERT_TRUE(actor.ok());

  std::vector<ObjectRef> refs;
  for (int i = 0; i < 20; ++i) {
    auto r = runtime_->SubmitActorTask(*actor,
                                       Call("counter_add", {TaskArg::Value(I64Buffer(1))}));
    ASSERT_TRUE(r.ok());
    refs.push_back((*r)[0]);
  }
  ASSERT_TRUE(runtime_->Wait(refs, 10000).ok());
  // Serial execution: every intermediate value distinct, final == 20.
  auto last = runtime_->Get(refs.back());
  ASSERT_TRUE(last.ok());
  std::set<int64_t> seen;
  for (const ObjectRef& ref : refs) {
    auto v = runtime_->Get(ref);
    ASSERT_TRUE(v.ok());
    seen.insert(I64Of(*v));
  }
  EXPECT_EQ(seen.size(), 20u);
  EXPECT_EQ(*seen.rbegin(), 20);
}

TEST_F(RuntimeTest, ActorOnDeadNodeUnknown) {
  Build();
  auto actor = runtime_->CreateActor(NodeId(777777), nullptr);
  EXPECT_EQ(actor.status().code(), StatusCode::kNotFound);
}

TEST_F(RuntimeTest, Gen1RoutesDeviceControlThroughDpu) {
  ClusterConfig config = DefaultConfig();
  config.device_complexes = 1;
  config.gpus_per_complex = 0;
  config.fpgas_per_complex = 2;

  RuntimeOptions gen1;
  gen1.generation = RuntimeGeneration::kGen1;
  gen1.futures = FutureProtocol::kPull;
  Build(gen1, config);

  // Chain two ops pinned to the two FPGAs: consumer resolution must detour
  // through the DPU in Gen-1.
  auto fpgas = cluster_->NodesWithDevice(DeviceKind::kFpga);
  ASSERT_EQ(fpgas.size(), 2u);
  TaskSpec produce = Call("inc_i64", {TaskArg::Value(I64Buffer(1))});
  produce.pinned_node = fpgas[0];
  auto a = runtime_->Submit(std::move(produce));
  ASSERT_TRUE(a.ok());
  TaskSpec consume = Call("inc_i64", {TaskArg::Ref((*a)[0])});
  consume.pinned_node = fpgas[1];
  auto b = runtime_->Submit(std::move(consume));
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(runtime_->Get((*b)[0]).ok());
  int64_t gen1_hops = runtime_->control_hops();

  // Same chain in Gen-2: strictly fewer hops.
  RuntimeOptions gen2;
  gen2.generation = RuntimeGeneration::kGen2;
  gen2.futures = FutureProtocol::kPull;
  ClusterConfig config2 = DefaultConfig();
  config2.device_complexes = 1;
  config2.gpus_per_complex = 0;
  config2.fpgas_per_complex = 2;
  Build(gen2, config2);
  fpgas = cluster_->NodesWithDevice(DeviceKind::kFpga);
  TaskSpec produce2 = Call("inc_i64", {TaskArg::Value(I64Buffer(1))});
  produce2.pinned_node = fpgas[0];
  a = runtime_->Submit(std::move(produce2));
  TaskSpec consume2 = Call("inc_i64", {TaskArg::Ref((*a)[0])});
  consume2.pinned_node = fpgas[1];
  b = runtime_->Submit(std::move(consume2));
  ASSERT_TRUE(runtime_->Get((*b)[0]).ok());
  int64_t gen2_hops = runtime_->control_hops();

  EXPECT_GT(gen1_hops, gen2_hops);
}

TEST_F(RuntimeTest, AutoscalerGrowsUnderLoad) {
  RuntimeOptions options;
  options.autoscaler.enabled = true;
  options.autoscaler.min_workers = 1;
  options.autoscaler.max_workers = 8;
  options.autoscaler.tick_interval_ms = 2;
  ClusterConfig config;
  config.racks = 1;
  config.servers_per_rack = 1;
  config.workers_per_server = 1;
  Build(options, config);

  ASSERT_TRUE(registry_.Register("sleep_5ms", [](TaskContext&, std::vector<Buffer>&)
                                      -> Result<std::vector<Buffer>> {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return std::vector<Buffer>{Buffer()};
  }).ok());

  std::vector<ObjectRef> refs;
  for (int i = 0; i < 40; ++i) {
    auto r = runtime_->Submit(Call("sleep_5ms", {}));
    ASSERT_TRUE(r.ok());
    refs.push_back((*r)[0]);
  }
  ASSERT_TRUE(runtime_->Wait(refs, 30000).ok());
  EXPECT_GT(runtime_->autoscaler().scale_ups(), 0);
  EXPECT_GT(runtime_->autoscaler().worker_nanos(), 0);
}

// This process's thread count, read until two reads 1 ms apart agree: a
// thread that was just joined can stay listed for a moment.
size_t CountProcessThreads() {
  auto count = [] {
    const std::filesystem::directory_iterator tasks("/proc/self/task");
    return static_cast<size_t>(std::distance(begin(tasks), end(tasks)));
  };
  size_t n = count();
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const size_t again = count();
    if (again == n) {
      break;
    }
    n = again;
  }
  return n;
}

// Every thread a runtime starts is a reactor driver: the fabric reactor's
// and each raylet's workers. The autoscaler ticks on the fabric reactor and
// adds none.
TEST_F(RuntimeTest, ThreadsPerInstanceAreReactorDrivers) {
  RuntimeOptions options;
  options.autoscaler.enabled = true;
  // Keep every raylet at its default size while the threads are counted.
  options.autoscaler.min_workers =
      static_cast<size_t>(DefaultConfig().workers_per_server);
  runtime_.reset();
  cluster_.reset();
  // Sanitizer runtimes start a helper thread along with the first thread a
  // process creates; make that happen before the count.
  std::thread([] {}).join();
  const size_t before = CountProcessThreads();
  Build(options);
  const size_t after = CountProcessThreads();
  size_t drivers = cluster_->fabric().reactor().num_threads();
  for (const ClusterNode& node : cluster_->nodes()) {
    if (Raylet* raylet = runtime_->raylet(node.id); raylet != nullptr) {
      drivers += raylet->num_workers();
    }
  }
  EXPECT_EQ(after - before, drivers);
}

// Start/Stop races against a 1 ms tick that may be firing: after the last
// Stop no tick runs and the fabric reactor holds no autoscaler timer.
TEST_F(RuntimeTest, AutoscalerStartStopLeavesNoTick) {
  RuntimeOptions options;
  options.autoscaler.enabled = true;
  options.autoscaler.tick_interval_ms = 1;
  Build(options);
  Autoscaler& autoscaler = runtime_->autoscaler();
  autoscaler.Stop();
  Reactor& reactor = cluster_->fabric().reactor();
  const size_t baseline = reactor.pending_timers();
  for (int i = 0; i < 200; ++i) {
    autoscaler.Start();
    std::this_thread::sleep_for(std::chrono::microseconds(500 * (i % 4)));
    autoscaler.Stop();
  }
  const int64_t worker_nanos = autoscaler.worker_nanos();
  EXPECT_GT(worker_nanos, 0);  // some ticks ran between Start and Stop
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(autoscaler.worker_nanos(), worker_nanos);
  EXPECT_EQ(reactor.pending_timers(), baseline);
}

TEST_F(RuntimeTest, LineageRecoveryReproducesLostObject) {
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
  TaskSpec spec = Call("inc_i64", {TaskArg::Value(I64Buffer(41))});
  spec.pinned_node = victim;
  auto a = runtime_->Submit(std::move(spec));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(runtime_->Wait({(*a)[0]}, 10000).ok());

  auto locations = cluster_->cache().Locations((*a)[0].id);
  ASSERT_EQ(locations.size(), 1u);
  ASSERT_EQ(locations[0], victim);
  ASSERT_TRUE(runtime_->KillNode(victim).ok());

  auto result = runtime_->Get((*a)[0], 15000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(I64Of(*result), 42);
  EXPECT_GE(runtime_->metrics().GetCounter("runtime.lineage_reexecutions").value(), 1);
}

// The first compute node that is not the head.
NodeId NonHeadComputeNode(Cluster& cluster) {
  for (NodeId n : cluster.ComputeNodes()) {
    if (n != cluster.head()) {
      return n;
    }
  }
  return NodeId();
}

TEST_F(RuntimeTest, LineageDroppedWhenReturnsReleased) {
  Build();
  Gauge& lineage = runtime_->metrics().GetGauge("runtime.lineage_entries");
  const int64_t start = lineage.value();
  std::vector<ObjectRef> refs;
  for (int i = 0; i < 16; ++i) {
    auto r = runtime_->Submit(Call("inc_i64", {TaskArg::Value(I64Buffer(i))}));
    ASSERT_TRUE(r.ok());
    refs.push_back((*r)[0]);
  }
  EXPECT_EQ(lineage.value(), start + 16);
  ASSERT_TRUE(runtime_->Wait(refs, 10000).ok());
  for (const ObjectRef& ref : refs) {
    ASSERT_TRUE(runtime_->Release(ref).ok());
  }
  EXPECT_EQ(lineage.value(), start);
}

TEST_F(RuntimeTest, TwoReturnTaskKeepsLineageUntilSecondRelease) {
  RuntimeOptions options;
  options.recovery = RecoveryMode::kLineage;
  Build(options);
  ASSERT_TRUE(registry_.Register("split_i64", [](TaskContext&, std::vector<Buffer>& args)
                                      -> Result<std::vector<Buffer>> {
    const int64_t v = I64Of(args[0]);
    return std::vector<Buffer>{I64Buffer(v), I64Buffer(v + 1)};
  }).ok());
  Gauge& lineage = runtime_->metrics().GetGauge("runtime.lineage_entries");
  const int64_t start = lineage.value();

  const NodeId victim = NonHeadComputeNode(*cluster_);
  TaskSpec spec = Call("split_i64", {TaskArg::Value(I64Buffer(7))});
  spec.num_returns = 2;
  spec.pinned_node = victim;
  auto refs = runtime_->Submit(std::move(spec));
  ASSERT_TRUE(refs.ok());
  ASSERT_EQ(refs->size(), 2u);
  ASSERT_TRUE(runtime_->Wait(*refs, 10000).ok());

  ASSERT_TRUE(runtime_->Release((*refs)[0]).ok());
  EXPECT_EQ(lineage.value(), start + 1);
  // The kept lineage still recovers the live return.
  ASSERT_TRUE(runtime_->KillNode(victim).ok());
  auto second = runtime_->Get((*refs)[1], 15000);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(I64Of(*second), 8);
  EXPECT_EQ(lineage.value(), start + 1);

  ASSERT_TRUE(runtime_->Release((*refs)[1]).ok());
  EXPECT_EQ(lineage.value(), start);
}

TEST_F(RuntimeTest, KillNodeReexecutesOnlyLiveLostObjects) {
  RuntimeOptions options;
  options.recovery = RecoveryMode::kLineage;
  Build(options);
  const NodeId victim = NonHeadComputeNode(*cluster_);
  TaskSpec kept_spec = Call("inc_i64", {TaskArg::Value(I64Buffer(41))});
  kept_spec.pinned_node = victim;
  auto kept = runtime_->Submit(std::move(kept_spec));
  ASSERT_TRUE(kept.ok());
  TaskSpec dropped_spec = Call("inc_i64", {TaskArg::Value(I64Buffer(1))});
  dropped_spec.pinned_node = victim;
  auto dropped = runtime_->Submit(std::move(dropped_spec));
  ASSERT_TRUE(dropped.ok());
  ASSERT_TRUE(runtime_->Wait({(*kept)[0], (*dropped)[0]}, 10000).ok());
  ASSERT_TRUE(runtime_->Release((*dropped)[0]).ok());

  ASSERT_TRUE(runtime_->KillNode(victim).ok());
  auto result = runtime_->Get((*kept)[0], 15000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(I64Of(*result), 42);
  // Only the producer of the live object ran again.
  EXPECT_EQ(runtime_->metrics().GetCounter("runtime.lineage_reexecutions").value(), 1);
}

TEST_F(RuntimeTest, RecoveryDisabledReportsDataLoss) {
  RuntimeOptions options;
  options.recovery = RecoveryMode::kNone;
  Build(options);

  NodeId victim;
  for (NodeId n : cluster_->ComputeNodes()) {
    if (n != cluster_->head()) {
      victim = n;
      break;
    }
  }
  TaskSpec spec = Call("inc_i64", {TaskArg::Value(I64Buffer(1))});
  spec.pinned_node = victim;
  auto a = runtime_->Submit(std::move(spec));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(runtime_->Wait({(*a)[0]}, 10000).ok());
  ASSERT_TRUE(runtime_->KillNode(victim).ok());
  auto result = runtime_->Get((*a)[0], 3000);
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

TEST_F(RuntimeTest, ReplicationSurvivesKillWithoutReexecution) {
  RuntimeOptions options;
  options.recovery = RecoveryMode::kNone;
  ClusterConfig config = DefaultConfig();
  config.caching.replication_factor = 2;
  Build(options, config);

  NodeId victim;
  for (NodeId n : cluster_->ComputeNodes()) {
    if (n != cluster_->head()) {
      victim = n;
      break;
    }
  }
  TaskSpec spec = Call("inc_i64", {TaskArg::Value(I64Buffer(1))});
  spec.pinned_node = victim;
  auto a = runtime_->Submit(std::move(spec));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(runtime_->Wait({(*a)[0]}, 10000).ok());
  ASSERT_TRUE(runtime_->KillNode(victim).ok());

  auto result = runtime_->Get((*a)[0], 5000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(I64Of(*result), 2);
  EXPECT_EQ(runtime_->metrics().GetCounter("runtime.lineage_reexecutions").value(), 0);
}

TEST_F(RuntimeTest, InFlightTasksFailOverToSurvivors) {
  RuntimeOptions options;
  options.recovery = RecoveryMode::kLineage;
  Build(options);

  ASSERT_TRUE(registry_.Register("slow_inc", [](TaskContext&, std::vector<Buffer>& args)
                                     -> Result<std::vector<Buffer>> {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return std::vector<Buffer>{I64Buffer(I64Of(args[0]) + 1)};
  }).ok());

  NodeId victim;
  for (NodeId n : cluster_->ComputeNodes()) {
    if (n != cluster_->head()) {
      victim = n;
      break;
    }
  }
  // Queue several slow tasks on the victim, then kill it mid-flight.
  std::vector<ObjectRef> refs;
  for (int i = 0; i < 6; ++i) {
    TaskSpec spec = Call("slow_inc", {TaskArg::Value(I64Buffer(i))});
    spec.pinned_node = victim;
    auto r = runtime_->Submit(std::move(spec));
    ASSERT_TRUE(r.ok());
    refs.push_back((*r)[0]);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(runtime_->KillNode(victim).ok());

  // Redispatch sends pinned tasks nowhere (pin target dead) — they become
  // unschedulable; accept either recovery or explicit failure, but the
  // runtime must not hang.
  // analyze:allow status-propagation (either outcome is valid; only liveness matters)
  Status st = runtime_->Wait(refs, 5000);
  if (st.ok()) {
    for (const ObjectRef& ref : refs) {
      (void)runtime_->Get(ref, 1000);  // value may be lost mid-failover; only liveness matters
    }
  }
  SUCCEED();
}


// --- Get deadlines and Shutdown (the runtime's deadline queue) ---

constexpr int64_t kMs = 1'000'000;

// A pending object no task will ever produce.
ObjectRef NeverReady(SkadiRuntime& runtime) {
  ObjectId id = ObjectId::Next();
  SKADI_CHECK(runtime.ownership(runtime.head()).RegisterObject(id, TaskId()).ok());
  return ObjectRef{id, runtime.head()};
}

// Records how and when one GetAsync completed, and how often.
struct Completion {
  std::atomic<int> calls{0};
  std::atomic<int64_t> at_nanos{0};
  Result<Buffer> result = Status::Internal("never completed");
  Event done;
};

std::function<void(Result<Buffer>)> RecordInto(const std::shared_ptr<Completion>& c) {
  return [c](Result<Buffer> r) {
    c->at_nanos.store(NowNanos());
    if (c->calls.fetch_add(1) == 0) {
      c->result = std::move(r);
    }
    c->done.Set();
  };
}

TEST_F(RuntimeTest, GetOnNeverReadyFutureExpiresAtItsDeadline) {
  Build();
  ObjectRef ref = NeverReady(*runtime_);
  auto c = std::make_shared<Completion>();
  const int64_t start = NowNanos();
  runtime_->GetAsync(ref, RecordInto(c), /*timeout_ms=*/50);
  ASSERT_TRUE(c->done.BlockingWait(NowNanos() + 5000 * kMs));
  EXPECT_EQ(c->result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(c->result.status().message(), "Get(" + ref.ToString() + ") timed out");
  EXPECT_GE(c->at_nanos.load() - start, 50 * kMs);
  EXPECT_LE(c->at_nanos.load() - start, 70 * kMs);

  // The blocking form reports the same error.
  auto blocking = runtime_->Get(ref, /*timeout_ms=*/20);
  EXPECT_EQ(blocking.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(RuntimeTest, ShortGetAfterLongGetExpiresAtItsOwnDeadline) {
  Build();
  auto slow = std::make_shared<Completion>();
  auto fast = std::make_shared<Completion>();
  runtime_->GetAsync(NeverReady(*runtime_), RecordInto(slow), /*timeout_ms=*/10'000);
  const int64_t start = NowNanos();
  runtime_->GetAsync(NeverReady(*runtime_), RecordInto(fast), /*timeout_ms=*/50);
  ASSERT_TRUE(fast->done.BlockingWait(NowNanos() + 5000 * kMs));
  EXPECT_EQ(fast->result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(fast->at_nanos.load() - start, 50 * kMs);
  EXPECT_LE(fast->at_nanos.load() - start, 70 * kMs);
  EXPECT_EQ(slow->calls.load(), 0);
}

TEST_F(RuntimeTest, ShutdownCompletesEachAbandonedGetOnceWithUnavailable) {
  Build();
  std::vector<std::shared_ptr<Completion>> gets;
  for (int i = 0; i < 8; ++i) {
    gets.push_back(std::make_shared<Completion>());
    // Two timeout values, so Shutdown walks more than one FIFO.
    runtime_->GetAsync(NeverReady(*runtime_), RecordInto(gets.back()),
                       i % 2 == 0 ? 10'000 : 20'000);
  }
  runtime_->Shutdown();
  runtime_.reset();  // runs Shutdown again
  for (const auto& c : gets) {
    EXPECT_EQ(c->calls.load(), 1);
    EXPECT_EQ(c->result.status().code(), StatusCode::kUnavailable);
    EXPECT_EQ(c->result.status().message(), "runtime shutting down");
  }
}

TEST_F(RuntimeTest, GetAsyncAfterShutdownFailsFast) {
  Build();
  auto ref = runtime_->Put(Buffer::FromString("stored"));
  ASSERT_TRUE(ref.ok());
  runtime_->Shutdown();
  auto c = std::make_shared<Completion>();
  runtime_->GetAsync(*ref, RecordInto(c));
  EXPECT_EQ(c->calls.load(), 1);  // inline, before GetAsync returns
  EXPECT_EQ(c->result.status().code(), StatusCode::kUnavailable);
}

TEST_F(RuntimeTest, OutstandingGetsShareOneDeadlineTimer) {
  Build();
  Reactor& reactor = cluster_->fabric().reactor();
  const size_t baseline = reactor.pending_timers();
  constexpr int kGets = 1000;
  std::vector<ObjectRef> refs;
  auto remaining = std::make_shared<std::atomic<int>>(kGets);
  auto all_done = std::make_shared<Event>();
  for (int i = 0; i < kGets; ++i) {
    refs.push_back(NeverReady(*runtime_));
    runtime_->GetAsync(refs.back(), [remaining, all_done](Result<Buffer>) {
      if (remaining->fetch_sub(1) == 1) {
        all_done->Set();
      }
    });
  }
  EXPECT_EQ(reactor.pending_timers(), baseline + 1);
  // Releasing a pending object wakes its watcher, which completes the Get.
  for (const ObjectRef& ref : refs) {
    ASSERT_TRUE(runtime_->Release(ref).ok());
  }
  ASSERT_TRUE(all_done->BlockingWait(NowNanos() + 10'000 * kMs));
  EXPECT_EQ(reactor.pending_timers(), baseline);
}

// A task body that counts its runs and blocks until `gate` opens, then
// sleeps `sleep_us` and returns its argument.
TaskSpec GatedEcho(std::shared_ptr<std::atomic<int>> runs, std::shared_ptr<Event> gate,
                   int64_t sleep_us = 0) {
  TaskSpec spec = Call("gated_echo", {TaskArg::Value(I64Buffer(7))});
  spec.body = std::make_shared<const TaskFunction>(
      [runs, gate, sleep_us](TaskContext&, std::vector<Buffer>& args)
          -> Result<std::vector<Buffer>> {
        runs->fetch_add(1);
        if (gate != nullptr && !gate->BlockingWait(NowNanos() + 5000 * kMs)) {
          return Status::DeadlineExceeded("gate never opened");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
        return std::vector<Buffer>{args[0]};
      });
  return spec;
}

// The output's continuation runs on the producing worker, inside MarkReady,
// and kills the producing node there. The task has already claimed its
// in-flight record, so the failover must not re-dispatch it: with recovery
// off the object stays lost (DATA_LOSS) and the body ran once.
TEST_F(RuntimeTest, KillFromOutputContinuationDoesNotReexecute) {
  RuntimeOptions options;
  options.recovery = RecoveryMode::kNone;
  Build(options);
  NodeId victim;
  for (NodeId n : cluster_->ComputeNodes()) {
    if (n != cluster_->head()) {
      victim = n;
      break;
    }
  }
  auto runs = std::make_shared<std::atomic<int>>(0);
  auto gate = std::make_shared<Event>();
  TaskSpec spec = GatedEcho(runs, gate);
  spec.pinned_node = victim;
  auto refs = runtime_->Submit(std::move(spec));
  ASSERT_TRUE(refs.ok());
  const ObjectRef out = (*refs)[0];

  auto c = std::make_shared<Completion>();
  auto killed = std::make_shared<Status>(Status::Internal("continuation never ran"));
  SkadiRuntime* rt = runtime_.get();
  runtime_->GetAsync(out, [c, killed, rt, victim](Result<Buffer> r) {
    *killed = rt->KillNode(victim);
    RecordInto(c)(std::move(r));
  });
  EXPECT_EQ(c->calls.load(), 0);  // the body is still held at the gate
  gate->Set();
  ASSERT_TRUE(c->done.BlockingWait(NowNanos() + 5000 * kMs));
  EXPECT_TRUE(c->result.ok()) << c->result.status().ToString();
  EXPECT_TRUE(killed->ok()) << killed->ToString();

  auto result = runtime_->Get(out, 3000);
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(runtime_->metrics().GetCounter(names::kSchedulerFailoverRedispatches).value(), 0);
  EXPECT_EQ(runs->load(), 1);
  EXPECT_EQ(c->calls.load(), 1);
}

// A two-return task on `victim` whose first output's continuation kills
// `victim`, inside MarkReady and before the second output is published. The
// claim hides the task from failover, so the publishing attempt itself must
// lose what it can no longer publish. Returns Get on the second output and
// the number of times the body ran.
struct KilledMidPublish {
  Result<Buffer> second = Status::Internal("never read");
  int runs = 0;
  int64_t lineage_reexecutions = 0;
};

KilledMidPublish KillBetweenOutputs(SkadiRuntime& runtime, NodeId victim) {
  auto runs = std::make_shared<std::atomic<int>>(0);
  auto gate = std::make_shared<Event>();
  TaskSpec spec = Call("split_on_node", {TaskArg::Value(I64Buffer(7))});
  spec.num_returns = 2;
  spec.pinned_node = victim;
  spec.body = std::make_shared<const TaskFunction>(
      [runs, gate](TaskContext&, std::vector<Buffer>& args)
          -> Result<std::vector<Buffer>> {
        if (runs->fetch_add(1) == 0) {
          if (!gate->BlockingWait(NowNanos() + 5000 * kMs)) {
            return Status::DeadlineExceeded("gate never opened");
          }
        }
        const int64_t v = I64Of(args[0]);
        return std::vector<Buffer>{I64Buffer(v), I64Buffer(v + 1)};
      });
  auto refs = runtime.Submit(std::move(spec));
  SKADI_CHECK(refs.ok() && refs->size() == 2u);

  auto first = std::make_shared<Completion>();
  auto killed = std::make_shared<Status>(Status::Internal("continuation never ran"));
  SkadiRuntime* rt = &runtime;
  runtime.GetAsync((*refs)[0], [first, killed, rt, victim](Result<Buffer> r) {
    *killed = rt->KillNode(victim);
    RecordInto(first)(std::move(r));
  });
  gate->Set();
  EXPECT_TRUE(first->done.BlockingWait(NowNanos() + 5000 * kMs));
  EXPECT_TRUE(first->result.ok()) << first->result.status().ToString();
  EXPECT_TRUE(killed->ok()) << killed->ToString();

  KilledMidPublish out;
  out.second = runtime.Get((*refs)[1], 5000);
  out.runs = runs->load();
  out.lineage_reexecutions =
      runtime.metrics().GetCounter(names::kRuntimeLineageReexecutions).value();
  return out;
}

TEST_F(RuntimeTest, KillBetweenOutputsLosesTheUnpublishedOne) {
  RuntimeOptions options;
  options.recovery = RecoveryMode::kNone;
  Build(options);
  KilledMidPublish got = KillBetweenOutputs(*runtime_, NonHeadComputeNode(*cluster_));
  EXPECT_EQ(got.second.status().code(), StatusCode::kDataLoss)
      << got.second.status().ToString();
  EXPECT_EQ(got.runs, 1);
  EXPECT_EQ(runtime_->metrics().GetCounter(names::kSchedulerFailoverRedispatches).value(), 0);
}

TEST_F(RuntimeTest, KillBetweenOutputsRecoversTheUnpublishedOneOnce) {
  RuntimeOptions options;
  options.recovery = RecoveryMode::kLineage;
  Build(options);
  KilledMidPublish got = KillBetweenOutputs(*runtime_, NonHeadComputeNode(*cluster_));
  ASSERT_TRUE(got.second.ok()) << got.second.status().ToString();
  EXPECT_EQ(I64Of(*got.second), 8);
  // KillNode's recovery of the first output re-runs the task, which also
  // produces the second; the publishing attempt adds no re-run of its own.
  EXPECT_EQ(got.runs, 2);
  EXPECT_EQ(got.lineage_reexecutions, 1);
}

// An attempt failed over off a killed node runs on; when its body then
// fails, that is the dead node's failure, not the task's. The live attempt
// owns the outputs, so the waiter gets its value and never the stale error.
TEST_F(RuntimeTest, FailedOverAttemptsFailureIsNotPublished) {
  RuntimeOptions options;
  options.recovery = RecoveryMode::kNone;
  Build(options);
  const NodeId victim = NonHeadComputeNode(*cluster_);
  auto runs = std::make_shared<std::atomic<int>>(0);
  auto stale_gate = std::make_shared<Event>();
  auto live_gate = std::make_shared<Event>();
  TaskSpec spec = Call("fails_when_stale", {TaskArg::Value(I64Buffer(7))});
  spec.pinned_node = victim;
  spec.body = std::make_shared<const TaskFunction>(
      [runs, stale_gate, live_gate](TaskContext&, std::vector<Buffer>& args)
          -> Result<std::vector<Buffer>> {
        if (runs->fetch_add(1) == 0) {
          (void)stale_gate->BlockingWait(NowNanos() + 5000 * kMs);
          return Status::Internal("stale attempt failed");
        }
        (void)live_gate->BlockingWait(NowNanos() + 5000 * kMs);
        return std::vector<Buffer>{args[0]};
      });
  auto refs = runtime_->Submit(std::move(spec));
  ASSERT_TRUE(refs.ok());
  auto reach = [](const std::function<bool()>& done) {
    const int64_t deadline = NowNanos() + 5000 * kMs;
    while (!done() && NowNanos() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return done();
  };
  ASSERT_TRUE(reach([&] { return runs->load() == 1; }));
  ASSERT_TRUE(runtime_->KillNode(victim).ok());  // fails the task over
  ASSERT_TRUE(reach([&] { return runs->load() == 2; }));

  auto c = std::make_shared<Completion>();
  runtime_->GetAsync((*refs)[0], RecordInto(c));
  Counter& failed = runtime_->metrics().GetCounter(names::kRuntimeTasksFailed);
  stale_gate->Set();
  ASSERT_TRUE(reach([&] { return failed.value() == 1; }));
  EXPECT_EQ(c->calls.load(), 0);

  live_gate->Set();
  ASSERT_TRUE(c->done.BlockingWait(NowNanos() + 5000 * kMs));
  ASSERT_TRUE(c->result.ok()) << c->result.status().ToString();
  EXPECT_EQ(I64Of(*c->result), 7);
  EXPECT_EQ(c->calls.load(), 1);
}

// GetAsync deadlines that land on their producers' completions, across the
// cluster's 4 workers: a producer's thread runs the op's watcher while the
// fabric reactor's sweep expires it. Each continuation must run exactly
// once, with the value or DEADLINE_EXCEEDED, and no op may stay linked (or
// otherwise alive) once every continuation has run.
TEST_F(RuntimeTest, GetAsyncRacingItsDeadlineCompletesOnce) {
  ClusterConfig config = DefaultConfig();
  config.servers_per_rack = 1;  // 2 servers x 2 workers
  Build({}, config);
  constexpr int64_t kTimeoutMs = 4;
  constexpr int kRounds = 16;
  constexpr int kPerRound = 4;
  auto runs = std::make_shared<std::atomic<int>>(0);
  std::vector<std::shared_ptr<Completion>> gets;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::shared_ptr<Completion>> batch;
    for (int i = 0; i < kPerRound; ++i) {
      // Bodies end from 2 ms before to 2 ms after their Get's deadline.
      const int64_t sleep_us = kTimeoutMs * 1000 - 2000 + (round * kPerRound + i) * 4000 /
                                                              (kRounds * kPerRound);
      auto refs = runtime_->Submit(GatedEcho(runs, nullptr, sleep_us));
      ASSERT_TRUE(refs.ok());
      batch.push_back(std::make_shared<Completion>());
      runtime_->GetAsync((*refs)[0], RecordInto(batch.back()), kTimeoutMs);
    }
    for (const auto& c : batch) {
      ASSERT_TRUE(c->done.BlockingWait(NowNanos() + 5000 * kMs));
    }
    gets.insert(gets.end(), batch.begin(), batch.end());
  }
  for (const auto& c : gets) {
    EXPECT_TRUE(c->result.ok() ||
                c->result.status().code() == StatusCode::kDeadlineExceeded)
        << c->result.status().ToString();
  }
  // A finished op is dropped by whichever of its chain and the sweep held it
  // last; the continuation's state is then owned by the test alone.
  const int64_t deadline = NowNanos() + 2000 * kMs;
  auto all_released = [&gets] {
    for (const auto& c : gets) {
      if (c.use_count() != 1) {
        return false;
      }
    }
    return true;
  };
  while (!all_released() && NowNanos() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(all_released());
  runtime_->Shutdown();
  for (const auto& c : gets) {
    EXPECT_EQ(c->calls.load(), 1);  // Shutdown found nothing left to complete
  }
  EXPECT_EQ(runs->load(), kRounds * kPerRound);
}

// Wait arms one watcher per ref and parks once, so it settles on whichever
// ref resolves first: a terminal failure completes the wait while an earlier
// ref is still pending (a serial per-ref wait would sit on that ref until
// the timeout). A ref released while pending fails with NOT_FOUND.
TEST_F(RuntimeTest, WaitFailsFastOnAnyRefAndParksOnceForAll) {
  Build();
  auto runs = std::make_shared<std::atomic<int>>(0);
  auto gate = std::make_shared<Event>();
  auto gated = runtime_->Submit(GatedEcho(runs, gate));
  ASSERT_TRUE(gated.ok());
  auto bad = runtime_->Submit(Call("fail_always", {}));
  ASSERT_TRUE(bad.ok());
  Stopwatch watch;
  Status failed = runtime_->Wait({(*gated)[0], (*bad)[0]}, 4000);
  EXPECT_EQ(failed.code(), StatusCode::kInternal) << failed.ToString();
  EXPECT_LT(watch.ElapsedMillis(), 2000);

  auto released = runtime_->Submit(GatedEcho(runs, gate));
  ASSERT_TRUE(released.ok());
  ASSERT_TRUE(runtime_->Release((*released)[0]).ok());
  EXPECT_EQ(runtime_->Wait({(*gated)[0], (*released)[0]}, 4000).code(),
            StatusCode::kNotFound);

  gate->Set();
  EXPECT_TRUE(runtime_->Wait({(*gated)[0], (*gated)[0]}, 4000).ok());
  EXPECT_TRUE(runtime_->Wait({}, 0).ok());
}

}  // namespace
}  // namespace skadi
