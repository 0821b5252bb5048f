// Unit tests of the raylet daemon in isolation (hand-wired callbacks, no
// scheduler/ownership above it).
#include "src/runtime/raylet.h"

#include <atomic>

#include <gtest/gtest.h>

#include "tests/runtime/runtime_test_util.h"

namespace skadi {
namespace {

class RayletTest : public ::testing::Test {
 protected:
  RayletTest() {
    node_.id = NodeId::Next();
    node_.role = NodeRole::kServer;
    node_.device = MakeCpuDevice("raylet-test");
    node_.store = std::make_shared<LocalObjectStore>(node_.device.id, 1 << 20);
    RegisterTestFunctions(registry_);
  }

  std::unique_ptr<Raylet> MakeRaylet(int workers = 2) {
    Raylet::Callbacks callbacks;
    callbacks.resolve_arg = [this](const ObjectRef& ref, const TaskSpec&)
        -> Result<Buffer> {
      MutexLock lock(mu_);
      auto it = resolvable_.find(ref.id);
      if (it == resolvable_.end()) {
        return Status::NotFound("no such object");
      }
      return it->second;
    };
    callbacks.complete = [this](const TaskSpec& spec, std::vector<Buffer> outputs) {
      MutexLock lock(mu_);
      completed_.emplace_back(spec.id, std::move(outputs));
      cv_.NotifyAll();
      return Status::Ok();
    };
    callbacks.fail = [this](const TaskSpec& spec, const Status& status, NodeId) {
      MutexLock lock(mu_);
      failed_.emplace_back(spec.id, status);
      cv_.NotifyAll();
    };
    return std::make_unique<Raylet>(node_, &clock_, callbacks, workers);
  }

  // Waits until `n` completions+failures accumulated.
  void AwaitOutcomes(size_t n, int timeout_ms = 5000) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    MutexLock lock(mu_);
    while (completed_.size() + failed_.size() < n) {
      if (cv_.WaitUntil(lock, deadline) == std::cv_status::timeout) {
        break;
      }
    }
  }

  ClusterNode node_;
  FunctionRegistry registry_;
  VirtualClock clock_;
  Mutex mu_;
  CondVar cv_;
  std::map<ObjectId, Buffer> resolvable_;
  std::vector<std::pair<TaskId, std::vector<Buffer>>> completed_;
  std::vector<std::pair<TaskId, Status>> failed_;
};

TEST_F(RayletTest, ExecutesValueTask) {
  auto raylet = MakeRaylet();
  TaskSpec spec = CallWithBody(registry_, "inc_i64", {TaskArg::Value(I64Buffer(9))});
  spec.id = TaskId::Next();
  ASSERT_TRUE(raylet->Enqueue(std::make_shared<const TaskSpec>(spec)).ok());
  AwaitOutcomes(1);
  ASSERT_EQ(completed_.size(), 1u);
  EXPECT_EQ(I64Of(completed_[0].second[0]), 10);
  EXPECT_EQ(raylet->tasks_executed(), 1);
}

TEST_F(RayletTest, ResolvesRefArgsThroughCallback) {
  auto raylet = MakeRaylet();
  ObjectId dep = ObjectId::Next();
  resolvable_[dep] = I64Buffer(41);
  TaskSpec spec = CallWithBody(registry_, "inc_i64", {TaskArg::Ref({dep, NodeId::Next()})});
  spec.id = TaskId::Next();
  ASSERT_TRUE(raylet->Enqueue(std::make_shared<const TaskSpec>(spec)).ok());
  AwaitOutcomes(1);
  ASSERT_EQ(completed_.size(), 1u);
  EXPECT_EQ(I64Of(completed_[0].second[0]), 42);
}

TEST_F(RayletTest, UnresolvableArgFailsTask) {
  auto raylet = MakeRaylet();
  TaskSpec spec =
      CallWithBody(registry_, "inc_i64", {TaskArg::Ref({ObjectId::Next(), NodeId::Next()})});
  spec.id = TaskId::Next();
  ASSERT_TRUE(raylet->Enqueue(std::make_shared<const TaskSpec>(spec)).ok());
  AwaitOutcomes(1);
  ASSERT_EQ(failed_.size(), 1u);
  EXPECT_EQ(failed_[0].second.code(), StatusCode::kNotFound);
  EXPECT_EQ(raylet->tasks_executed(), 0);
}

// Names are resolved at Submit (RuntimeTest.UnknownFunctionRejectedAtSubmit);
// a spec handed to the public Enqueue without a body fails, not crashes.
TEST_F(RayletTest, SpecWithoutBodyFails) {
  auto raylet = MakeRaylet();
  TaskSpec spec = Call("mystery", {});
  spec.id = TaskId::Next();
  ASSERT_TRUE(raylet->Enqueue(std::make_shared<const TaskSpec>(spec)).ok());
  AwaitOutcomes(1);
  ASSERT_EQ(failed_.size(), 1u);
  EXPECT_EQ(failed_[0].second.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(raylet->tasks_executed(), 0);
}

TEST_F(RayletTest, WrongReturnCountFails) {
  auto raylet = MakeRaylet();
  TaskSpec spec = CallWithBody(registry_, "echo", {TaskArg::Value(Buffer::FromString("x"))});
  spec.id = TaskId::Next();
  spec.num_returns = 2;  // echo produces 1
  ASSERT_TRUE(raylet->Enqueue(std::make_shared<const TaskSpec>(spec)).ok());
  AwaitOutcomes(1);
  ASSERT_EQ(failed_.size(), 1u);
  EXPECT_EQ(failed_[0].second.code(), StatusCode::kInternal);
}

TEST_F(RayletTest, ChargesFixedComputeNanos) {
  auto raylet = MakeRaylet();
  TaskSpec spec = CallWithBody(registry_, "echo", {TaskArg::Value(Buffer())});
  spec.id = TaskId::Next();
  spec.fixed_compute_nanos = 123456;
  ASSERT_TRUE(raylet->Enqueue(std::make_shared<const TaskSpec>(spec)).ok());
  AwaitOutcomes(1);
  EXPECT_EQ(clock_.total_nanos(), 123456);
}

TEST_F(RayletTest, ChargesCostModelByDefault) {
  auto raylet = MakeRaylet();
  TaskSpec spec = CallWithBody(registry_, "echo", {TaskArg::Value(Buffer::Zeros(1 << 20))});
  spec.id = TaskId::Next();
  spec.op_class = OpClass::kScan;
  ASSERT_TRUE(raylet->Enqueue(std::make_shared<const TaskSpec>(spec)).ok());
  AwaitOutcomes(1);
  EXPECT_EQ(clock_.total_nanos(),
            CostModel::EstimateNanos(node_.device, OpClass::kScan, 1 << 20));
}

TEST_F(RayletTest, KilledRayletAbortsQueuedTasks) {
  auto raylet = MakeRaylet(1);
  // One long task occupies the worker, several queue behind it.
  ASSERT_TRUE(registry_.Register("block_20ms", [](TaskContext&, std::vector<Buffer>&)
                                       -> Result<std::vector<Buffer>> {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return std::vector<Buffer>{Buffer()};
  }).ok());
  TaskSpec blocker = CallWithBody(registry_, "block_20ms", {});
  blocker.id = TaskId::Next();
  ASSERT_TRUE(raylet->Enqueue(std::make_shared<const TaskSpec>(blocker)).ok());
  for (int i = 0; i < 3; ++i) {
    TaskSpec spec = CallWithBody(registry_, "echo", {TaskArg::Value(Buffer())});
    spec.id = TaskId::Next();
    ASSERT_TRUE(raylet->Enqueue(std::make_shared<const TaskSpec>(spec)).ok());
  }
  raylet->Kill();
  EXPECT_TRUE(raylet->dead());
  AwaitOutcomes(4);
  MutexLock lock(mu_);
  // Everything after the kill aborts; the blocker may complete or abort
  // depending on timing.
  EXPECT_GE(failed_.size(), 3u);
  for (auto& [task, status] : failed_) {
    EXPECT_EQ(status.code(), StatusCode::kAborted);
  }
  EXPECT_FALSE(
      raylet->Enqueue(std::make_shared<const TaskSpec>(CallWithBody(registry_, "echo", {})))
          .ok());
}

TEST_F(RayletTest, WorkerGrowthIncreasesParallelism) {
  auto raylet = MakeRaylet(1);
  EXPECT_EQ(raylet->num_workers(), 1u);
  raylet->GrowWorkers(3);
  EXPECT_EQ(raylet->num_workers(), 4u);
  raylet->ShrinkWorkers(2);
  EXPECT_EQ(raylet->num_workers(), 2u);
}

TEST_F(RayletTest, ActorStatePersistsAcrossTasks) {
  // One worker: with several workers the actor serial mutex guarantees
  // mutual exclusion but neither run order nor completion-record order,
  // and this test asserts the accumulated state task by task.
  auto raylet = MakeRaylet(1);
  ASSERT_TRUE(registry_.Register("append_char", [](TaskContext& ctx, std::vector<Buffer>& args)
                                        -> Result<std::vector<Buffer>> {
    auto* s = static_cast<std::string*>(ctx.actor_state->get());
    s->append(args[0].AsStringView());
    return std::vector<Buffer>{Buffer::FromString(*s)};
  }).ok());
  ActorId actor = ActorId::Next();
  ASSERT_TRUE(raylet->CreateActor(actor, std::make_shared<std::string>()).ok());
  EXPECT_TRUE(raylet->HasActor(actor));
  EXPECT_EQ(raylet->CreateActor(actor, nullptr).code(), StatusCode::kAlreadyExists);

  for (const char* c : {"a", "b", "c"}) {
    TaskSpec spec =
        CallWithBody(registry_, "append_char", {TaskArg::Value(Buffer::FromString(c))});
    spec.id = TaskId::Next();
    spec.actor = actor;
    ASSERT_TRUE(raylet->Enqueue(std::make_shared<const TaskSpec>(spec)).ok());
  }
  AwaitOutcomes(3);
  MutexLock lock(mu_);
  ASSERT_EQ(completed_.size(), 3u);
  EXPECT_EQ(completed_[2].second[0].AsStringView(), "abc");
}

TEST_F(RayletTest, ActorTaskWithoutActorFails) {
  auto raylet = MakeRaylet();
  TaskSpec spec = CallWithBody(registry_, "echo", {TaskArg::Value(Buffer())});
  spec.id = TaskId::Next();
  spec.actor = ActorId::Next();
  ASSERT_TRUE(raylet->Enqueue(std::make_shared<const TaskSpec>(spec)).ok());
  AwaitOutcomes(1);
  ASSERT_EQ(failed_.size(), 1u);
  EXPECT_EQ(failed_[0].second.code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace skadi
