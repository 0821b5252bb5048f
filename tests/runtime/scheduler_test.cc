// Unit tests of the centralized scheduler's placement policies and gang
// logic, using a fake dispatch function that records targets.
#include "src/runtime/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <utility>

#include "src/common/clock.h"
#include "src/common/event.h"

namespace skadi {
namespace {

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest() : topo_(std::make_shared<Topology>()) {
    for (int i = 0; i < 4; ++i) {
      NodeInfo info;
      info.id = NodeId::Next();
      info.role = NodeRole::kServer;
      info.rack = i / 2;
      EXPECT_TRUE(topo_->AddNode(info).ok());
      node_ids_.push_back(info.id);
    }
    fabric_ = std::make_unique<Fabric>(topo_);
    cache_ = std::make_unique<CachingLayer>(fabric_.get());
    for (NodeId n : node_ids_) {
      cache_->RegisterStore(n, std::make_shared<LocalObjectStore>(DeviceId::Next(),
                                                                  1LL << 30));
    }
  }

  std::unique_ptr<Scheduler> MakeScheduler(SchedulingPolicy policy,
                                           DeviceKind kind = DeviceKind::kCpu,
                                           int workers = 2) {
    auto scheduler = std::make_unique<Scheduler>(
        cache_.get(), &metrics_, policy,
        [this](const TaskSpecPtr& spec, NodeId target) {
          dispatched_.emplace_back(spec->id, target);
          return dispatch_result_;
        });
    std::vector<SchedulableNode> nodes;
    for (NodeId n : node_ids_) {
      nodes.push_back(SchedulableNode{n, kind, NodeId(), workers});
    }
    scheduler->SetNodes(std::move(nodes));
    return scheduler;
  }

  // Finishes the attempt of `task` on `node` as the runtime does: claim the
  // in-flight record, then free the slot.
  static void Finish(Scheduler& scheduler, TaskId task, NodeId node) {
    EXPECT_TRUE(scheduler.ClaimTask(task, node));
    scheduler.ReleaseSlot(node);
  }

  TaskSpec MakeTask(std::vector<TaskArg> args = {}) {
    TaskSpec spec;
    spec.id = TaskId::Next();
    spec.function = "f";
    spec.args = std::move(args);
    return spec;
  }

  std::shared_ptr<Topology> topo_;
  std::unique_ptr<Fabric> fabric_;
  std::unique_ptr<CachingLayer> cache_;
  MetricsRegistry metrics_;
  std::vector<NodeId> node_ids_;
  std::vector<std::pair<TaskId, NodeId>> dispatched_;
  Status dispatch_result_ = Status::Ok();
};

TEST_F(SchedulerTest, RoundRobinCycles) {
  auto scheduler = MakeScheduler(SchedulingPolicy::kRoundRobin);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(scheduler->Submit(MakeTask()).ok());
  }
  ASSERT_EQ(dispatched_.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(dispatched_[static_cast<size_t>(i)].second,
              node_ids_[static_cast<size_t>(i) % 4]);
  }
}

TEST_F(SchedulerTest, LoadAwarePicksIdleNode) {
  auto scheduler = MakeScheduler(SchedulingPolicy::kLoadAware);
  // Three tasks: all different nodes (load rises as tasks stay in flight).
  ASSERT_TRUE(scheduler->Submit(MakeTask()).ok());
  ASSERT_TRUE(scheduler->Submit(MakeTask()).ok());
  ASSERT_TRUE(scheduler->Submit(MakeTask()).ok());
  std::set<NodeId> targets;
  for (auto& [task, node] : dispatched_) {
    targets.insert(node);
  }
  EXPECT_EQ(targets.size(), 3u);
}

TEST_F(SchedulerTest, LoadRebalancesAfterFinish) {
  auto scheduler = MakeScheduler(SchedulingPolicy::kLoadAware);
  TaskSpec first = MakeTask();
  TaskId first_id = first.id;
  ASSERT_TRUE(scheduler->Submit(std::move(first)).ok());
  NodeId first_node = dispatched_[0].second;
  Finish(*scheduler, first_id, first_node);
  EXPECT_EQ(scheduler->inflight_on(first_node), 0);
}

TEST_F(SchedulerTest, ClaimedTaskIsNotFailedOver) {
  auto scheduler = MakeScheduler(SchedulingPolicy::kRoundRobin);
  TaskSpec task = MakeTask();
  const TaskId id = task.id;
  ASSERT_TRUE(scheduler->Submit(std::move(task)).ok());
  const NodeId node = dispatched_[0].second;
  // Only the attempt the record names may claim it.
  EXPECT_FALSE(scheduler->ClaimTask(id, node_ids_[3]));
  EXPECT_FALSE(scheduler->ClaimTask(TaskId::Next(), node));
  ASSERT_TRUE(scheduler->ClaimTask(id, node));
  // Once claimed, the node's death does not re-dispatch the task, and a
  // second claim (a duplicate completion) fails.
  dispatched_.clear();
  scheduler->OnNodeFailure(node);
  EXPECT_TRUE(dispatched_.empty());
  EXPECT_EQ(metrics_.GetCounter("scheduler.failover_redispatches").value(), 0);
  EXPECT_FALSE(scheduler->ClaimTask(id, node));
}

TEST_F(SchedulerTest, FailedOverAttemptCannotClaim) {
  auto scheduler = MakeScheduler(SchedulingPolicy::kRoundRobin);
  TaskSpec task = MakeTask();
  const TaskId id = task.id;
  ASSERT_TRUE(scheduler->Submit(std::move(task)).ok());
  const NodeId dead = dispatched_[0].second;
  scheduler->OnNodeFailure(dead);
  ASSERT_EQ(dispatched_.size(), 2u);
  const NodeId live = dispatched_[1].second;
  ASSERT_NE(live, dead);
  // The attempt on the dead node is stale; the failed-over one owns the task.
  EXPECT_FALSE(scheduler->ClaimTask(id, dead));
  EXPECT_EQ(scheduler->inflight_on(live), 1);
  Finish(*scheduler, id, live);
  EXPECT_EQ(scheduler->inflight_on(live), 0);
}

TEST_F(SchedulerTest, LocalityFollowsBytes) {
  auto scheduler = MakeScheduler(SchedulingPolicy::kLocalityAware);
  // Put a big object on node 2, small on node 0.
  ObjectId big = ObjectId::Next();
  ObjectId small = ObjectId::Next();
  ASSERT_TRUE(cache_->Put(big, Buffer::Zeros(1024 * 1024), node_ids_[2]).ok());
  ASSERT_TRUE(cache_->Put(small, Buffer::Zeros(64), node_ids_[0]).ok());
  scheduler->MarkObjectReady(big);
  scheduler->MarkObjectReady(small);

  ASSERT_TRUE(scheduler->Submit(MakeTask({TaskArg::Ref({big, NodeId()}),
                              TaskArg::Ref({small, NodeId()})})).ok());
  ASSERT_EQ(dispatched_.size(), 1u);
  EXPECT_EQ(dispatched_[0].second, node_ids_[2]);
}

TEST_F(SchedulerTest, PinnedNodeOverridesPolicy) {
  auto scheduler = MakeScheduler(SchedulingPolicy::kRoundRobin);
  TaskSpec spec = MakeTask();
  spec.pinned_node = node_ids_[3];
  ASSERT_TRUE(scheduler->Submit(std::move(spec)).ok());
  EXPECT_EQ(dispatched_[0].second, node_ids_[3]);
}

TEST_F(SchedulerTest, RequiredDeviceFiltersCandidates) {
  auto scheduler = MakeScheduler(SchedulingPolicy::kRoundRobin, DeviceKind::kCpu);
  TaskSpec spec = MakeTask();
  spec.required_device = DeviceKind::kGpu;  // nothing matches
  ASSERT_TRUE(scheduler->Submit(std::move(spec)).ok());
  EXPECT_TRUE(dispatched_.empty());
  EXPECT_EQ(metrics_.GetCounter("scheduler.unschedulable").value(), 1);
}

TEST_F(SchedulerTest, ParksUntilDependencyReady) {
  auto scheduler = MakeScheduler(SchedulingPolicy::kRoundRobin);
  ObjectId dep = ObjectId::Next();
  ASSERT_TRUE(scheduler->Submit(MakeTask({TaskArg::Ref({dep, NodeId()})})).ok());
  EXPECT_TRUE(dispatched_.empty());
  EXPECT_EQ(scheduler->pending_tasks(), 1u);
  scheduler->OnObjectReady(dep);
  EXPECT_EQ(dispatched_.size(), 1u);
  EXPECT_EQ(scheduler->pending_tasks(), 0u);
}

TEST_F(SchedulerTest, MultiDepTaskWaitsForAll) {
  auto scheduler = MakeScheduler(SchedulingPolicy::kRoundRobin);
  ObjectId a = ObjectId::Next();
  ObjectId b = ObjectId::Next();
  ASSERT_TRUE(scheduler->Submit(
      MakeTask({TaskArg::Ref({a, NodeId()}), TaskArg::Ref({b, NodeId()})})).ok());
  scheduler->OnObjectReady(a);
  EXPECT_TRUE(dispatched_.empty());
  scheduler->OnObjectReady(b);
  EXPECT_EQ(dispatched_.size(), 1u);
}

TEST_F(SchedulerTest, GangHeldUntilComplete) {
  auto scheduler = MakeScheduler(SchedulingPolicy::kRoundRobin);
  for (int i = 0; i < 3; ++i) {
    TaskSpec spec = MakeTask();
    spec.gang_group = "g";
    spec.gang_size = 4;
    ASSERT_TRUE(scheduler->Submit(std::move(spec)).ok());
    EXPECT_TRUE(dispatched_.empty());
  }
  TaskSpec last = MakeTask();
  last.gang_group = "g";
  last.gang_size = 4;
  ASSERT_TRUE(scheduler->Submit(std::move(last)).ok());
  EXPECT_EQ(dispatched_.size(), 4u);
  EXPECT_EQ(metrics_.GetCounter("scheduler.gangs_dispatched").value(), 1);
}

TEST_F(SchedulerTest, GangWaitsForSlots) {
  // 4 nodes x 1 worker = 4 slots; occupy 2, gang of 4 must wait.
  auto scheduler = MakeScheduler(SchedulingPolicy::kLoadAware, DeviceKind::kCpu, 1);
  TaskSpec f1 = MakeTask();
  TaskSpec f2 = MakeTask();
  TaskId f1_id = f1.id;
  TaskId f2_id = f2.id;
  ASSERT_TRUE(scheduler->Submit(std::move(f1)).ok());
  ASSERT_TRUE(scheduler->Submit(std::move(f2)).ok());
  const NodeId f1_node = dispatched_[0].second;
  const NodeId f2_node = dispatched_[1].second;
  dispatched_.clear();

  for (int i = 0; i < 4; ++i) {
    TaskSpec spec = MakeTask();
    spec.gang_group = "spmd";
    spec.gang_size = 4;
    ASSERT_TRUE(scheduler->Submit(std::move(spec)).ok());
  }
  EXPECT_TRUE(dispatched_.empty());  // only 2 free slots

  Finish(*scheduler, f1_id, f1_node);
  EXPECT_TRUE(dispatched_.empty());  // 3 free: still short
  Finish(*scheduler, f2_id, f2_node);
  EXPECT_EQ(dispatched_.size(), 4u);  // all-or-nothing release
}

TEST_F(SchedulerTest, TwoGangsDispatchIndependently) {
  auto scheduler = MakeScheduler(SchedulingPolicy::kRoundRobin);
  for (const char* group : {"g1", "g2"}) {
    for (int i = 0; i < 2; ++i) {
      TaskSpec spec = MakeTask();
      spec.gang_group = group;
      spec.gang_size = 2;
      ASSERT_TRUE(scheduler->Submit(std::move(spec)).ok());
    }
  }
  EXPECT_EQ(dispatched_.size(), 4u);
  EXPECT_EQ(metrics_.GetCounter("scheduler.gangs_dispatched").value(), 2);
}

TEST_F(SchedulerTest, NodeFailureRedispatchesInflight) {
  auto scheduler = MakeScheduler(SchedulingPolicy::kRoundRobin);
  ASSERT_TRUE(scheduler->Submit(MakeTask()).ok());
  ASSERT_EQ(dispatched_.size(), 1u);
  NodeId victim = dispatched_[0].second;
  dispatched_.clear();
  scheduler->OnNodeFailure(victim);
  ASSERT_EQ(dispatched_.size(), 1u);
  EXPECT_NE(dispatched_[0].second, victim);
}

TEST_F(SchedulerTest, DispatchFailureRetriesElsewhere) {
  auto scheduler = MakeScheduler(SchedulingPolicy::kRoundRobin);
  // First dispatch attempt fails; scheduler must drop the node and retry.
  int calls = 0;
  auto failing = std::make_unique<Scheduler>(
      cache_.get(), &metrics_, SchedulingPolicy::kRoundRobin,
      [this, &calls](const TaskSpecPtr& spec, NodeId target) -> Status {
        ++calls;
        if (calls == 1) {
          return Status::Unavailable("node died");
        }
        dispatched_.emplace_back(spec->id, target);
        return Status::Ok();
      });
  std::vector<SchedulableNode> nodes;
  for (NodeId n : node_ids_) {
    nodes.push_back(SchedulableNode{n, DeviceKind::kCpu, NodeId(), 2});
  }
  failing->SetNodes(std::move(nodes));
  ASSERT_TRUE(failing->Submit(MakeTask()).ok());
  EXPECT_EQ(calls, 2);
  ASSERT_EQ(dispatched_.size(), 1u);
}

TEST_F(SchedulerTest, RerouteAfterFailedDispatchKeepsSpecPointer) {
  // The scheduler never copies a spec: the retry after a failed dispatch
  // hands the dispatch function the very pointer that was submitted.
  std::vector<const TaskSpec*> seen;
  auto scheduler = std::make_unique<Scheduler>(
      cache_.get(), &metrics_, SchedulingPolicy::kRoundRobin,
      [&seen](const TaskSpecPtr& spec, NodeId) -> Status {
        seen.push_back(spec.get());
        return seen.size() == 1 ? Status::Unavailable("node died") : Status::Ok();
      });
  std::vector<SchedulableNode> nodes;
  for (NodeId n : node_ids_) {
    nodes.push_back(SchedulableNode{n, DeviceKind::kCpu, NodeId(), 2});
  }
  scheduler->SetNodes(std::move(nodes));
  auto spec = std::make_shared<const TaskSpec>(MakeTask());
  ASSERT_TRUE(scheduler->Submit(spec).ok());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], spec.get());
  EXPECT_EQ(seen[1], spec.get());
  EXPECT_EQ(metrics_.GetCounter("scheduler.dispatch_retries").value(), 1);
}

TEST_F(SchedulerTest, PolicySwitchAtRuntime) {
  auto scheduler = MakeScheduler(SchedulingPolicy::kRoundRobin);
  EXPECT_EQ(scheduler->policy(), SchedulingPolicy::kRoundRobin);
  scheduler->SetPolicy(SchedulingPolicy::kRandom);
  EXPECT_EQ(scheduler->policy(), SchedulingPolicy::kRandom);
}

TEST_F(SchedulerTest, PolicyNamesResolve) {
  EXPECT_EQ(SchedulingPolicyName(SchedulingPolicy::kLocalityAware), "locality_aware");
  EXPECT_EQ(SchedulingPolicyName(SchedulingPolicy::kRandom), "random");
}

TEST_F(SchedulerTest, SingleShardBaselineBehavesIdentically) {
  // SchedulerOptions{1} is the single-lock degenerate config the control
  // plane bench compares against; placement semantics must not change.
  auto scheduler = std::make_unique<Scheduler>(
      cache_.get(), &metrics_, SchedulingPolicy::kRoundRobin,
      [this](const TaskSpecPtr& spec, NodeId target) {
        dispatched_.emplace_back(spec->id, target);
        return Status::Ok();
      },
      /*seed=*/17, SchedulerOptions{1});
  std::vector<SchedulableNode> nodes;
  for (NodeId n : node_ids_) {
    nodes.push_back(SchedulableNode{n, DeviceKind::kCpu, NodeId(), 2});
  }
  scheduler->SetNodes(std::move(nodes));
  ObjectId dep = ObjectId::Next();
  ASSERT_TRUE(scheduler->Submit(MakeTask({TaskArg::Ref(ObjectRef{dep, NodeId()})})).ok());
  EXPECT_EQ(scheduler->pending_tasks(), 1u);
  scheduler->OnObjectReady(dep);
  EXPECT_EQ(scheduler->pending_tasks(), 0u);
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(scheduler->Submit(MakeTask()).ok());
  }
  ASSERT_EQ(dispatched_.size(), 8u);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(dispatched_[i].second, node_ids_[i % 4]);
  }
}

TEST_F(SchedulerTest, IdleNodeStealsFromLongestQueue) {
  // Dispatches to node A block until released, so tasks pile up in A's queue
  // behind the blocked pumper. Finishing a task on B leaves B idle; B must
  // steal the newest queued task off A instead of waiting for A to unwedge.
  const NodeId a = node_ids_[0];
  const NodeId b = node_ids_[1];
  Event entered, release;
  std::atomic<bool> blocking{true};
  Mutex mu;
  std::vector<std::pair<TaskId, NodeId>> calls;
  auto scheduler = std::make_unique<Scheduler>(
      cache_.get(), &metrics_, SchedulingPolicy::kRoundRobin,
      [&](const TaskSpecPtr& spec, NodeId target) {
        {
          MutexLock lock(mu);
          calls.emplace_back(spec->id, target);
        }
        if (target == a && blocking.load()) {
          entered.Set();
          release.BlockingWait();
        }
        return Status::Ok();
      });
  scheduler->SetNodes({SchedulableNode{a, DeviceKind::kCpu, NodeId(), 2},
                       SchedulableNode{b, DeviceKind::kCpu, NodeId(), 2}});

  std::vector<TaskSpec> tasks;
  for (int i = 0; i < 5; ++i) {
    tasks.push_back(MakeTask());
  }
  const std::vector<TaskId> ids = {tasks[0].id, tasks[1].id, tasks[2].id,
                                   tasks[3].id, tasks[4].id};

  // RR: task0 -> A (pumper thread blocks inside dispatch).
  std::thread pumper([&] { ASSERT_TRUE(scheduler->Submit(std::move(tasks[0])).ok()); });
  ASSERT_TRUE(entered.BlockingWait(NowNanos() + 5'000'000'000));
  // task1 -> B (dispatches), task2 -> A (queued), task3 -> B, task4 -> A (queued).
  for (int i = 1; i < 5; ++i) {
    ASSERT_TRUE(scheduler->Submit(std::move(tasks[i])).ok());
  }
  EXPECT_EQ(scheduler->queued_on(a), 2);
  EXPECT_EQ(scheduler->inflight_on(b), 2);

  // B finishes task1: capacity frees, B steals the newest of A's queue.
  blocking.store(false);
  Finish(*scheduler, ids[1], b);
  EXPECT_EQ(metrics_.GetCounter("scheduler.steal_count").value(), 1);
  EXPECT_EQ(scheduler->queued_on(a), 1);
  {
    MutexLock lock(mu);
    auto it = std::find_if(calls.begin(), calls.end(),
                           [&](const auto& c) { return c.first == ids[4]; });
    ASSERT_NE(it, calls.end());
    EXPECT_EQ(it->second, b);  // stolen task ran on the idle node
  }

  // Unblock A's pumper; it drains the remaining queued task locally.
  release.Set();
  pumper.join();
  MutexLock lock(mu);
  EXPECT_EQ(calls.size(), 5u);
  for (TaskId id : ids) {
    EXPECT_EQ(std::count_if(calls.begin(), calls.end(),
                            [&](const auto& c) { return c.first == id; }),
              1)
        << "task dispatched exactly once";
  }
  auto t2 = std::find_if(calls.begin(), calls.end(),
                         [&](const auto& c) { return c.first == ids[2]; });
  EXPECT_EQ(t2->second, a);  // non-stolen queued task stayed on its node
}

TEST_F(SchedulerTest, NodeDiesMidStealTaskRetriesElsewhere) {
  // The thief dies between victim-pop and dispatch: the stolen task must be
  // re-routed, not lost, and must end up dispatched exactly once.
  const NodeId a = node_ids_[0];
  const NodeId b = node_ids_[1];
  Event entered, release;
  std::atomic<bool> blocking{true};
  std::atomic<bool> b_dead{false};
  Mutex mu;
  std::vector<std::pair<TaskId, NodeId>> ok_calls;
  auto scheduler = std::make_unique<Scheduler>(
      cache_.get(), &metrics_, SchedulingPolicy::kRoundRobin,
      [&](const TaskSpecPtr& spec, NodeId target) -> Status {
        if (target == b && b_dead.load()) {
          return Status::Unavailable("node died mid-steal");
        }
        {
          MutexLock lock(mu);
          ok_calls.emplace_back(spec->id, target);
        }
        if (target == a && blocking.load()) {
          entered.Set();
          release.BlockingWait();
        }
        return Status::Ok();
      });
  scheduler->SetNodes({SchedulableNode{a, DeviceKind::kCpu, NodeId(), 2},
                       SchedulableNode{b, DeviceKind::kCpu, NodeId(), 2}});

  std::vector<TaskSpec> tasks;
  for (int i = 0; i < 3; ++i) {
    tasks.push_back(MakeTask());
  }
  const TaskId queued_id = tasks[2].id;
  const TaskId b_task = tasks[1].id;

  std::thread pumper([&] { ASSERT_TRUE(scheduler->Submit(std::move(tasks[0])).ok()); });
  ASSERT_TRUE(entered.BlockingWait(NowNanos() + 5'000'000'000));
  ASSERT_TRUE(scheduler->Submit(std::move(tasks[1])).ok());  // -> B, dispatched
  ASSERT_TRUE(scheduler->Submit(std::move(tasks[2])).ok());  // -> A, queued
  ASSERT_EQ(scheduler->queued_on(a), 1);

  // B dies, then finishes its task: the steal of `queued_id` fails on B,
  // B leaves the candidate set, and the task re-queues on A.
  b_dead.store(true);
  Finish(*scheduler, b_task, b);
  EXPECT_EQ(metrics_.GetCounter("scheduler.steal_count").value(), 1);
  EXPECT_GE(metrics_.GetCounter("scheduler.dispatch_retries").value(), 1);
  EXPECT_EQ(scheduler->queued_on(a), 1);  // re-routed back to the only live node

  blocking.store(false);
  release.Set();
  pumper.join();
  MutexLock lock(mu);
  EXPECT_EQ(std::count_if(ok_calls.begin(), ok_calls.end(),
                          [&](const auto& c) { return c.first == queued_id; }),
            1);
  auto it = std::find_if(ok_calls.begin(), ok_calls.end(),
                         [&](const auto& c) { return c.first == queued_id; });
  EXPECT_EQ(it->second, a);
}

TEST_F(SchedulerTest, ConcurrentSubmitNoLossNoDoubleDispatch) {
  // TSan-targeted hammer: submitters, completions, and steals race across
  // per-node queues and sharded maps; every task must dispatch exactly once.
  constexpr int kThreads = 4;
  constexpr int kTasksPerThread = 100;
  Mutex mu;
  std::unordered_map<TaskId, int> dispatch_count;
  std::vector<std::pair<TaskId, NodeId>> completable;
  auto scheduler = std::make_unique<Scheduler>(
      cache_.get(), &metrics_, SchedulingPolicy::kLoadAware,
      [&](const TaskSpecPtr& spec, NodeId target) {
        MutexLock lock(mu);
        dispatch_count[spec->id] += 1;
        completable.emplace_back(spec->id, target);
        return Status::Ok();
      });
  std::vector<SchedulableNode> nodes;
  for (NodeId n : node_ids_) {
    nodes.push_back(SchedulableNode{n, DeviceKind::kCpu, NodeId(), 2});
  }
  scheduler->SetNodes(std::move(nodes));

  std::atomic<bool> stop{false};
  std::thread completer([&] {
    // Completions race with submissions, repeatedly triggering the
    // ReleaseSlot steal probe while queues churn.
    while (!stop.load()) {
      std::vector<std::pair<TaskId, NodeId>> batch;
      {
        MutexLock lock(mu);
        batch.swap(completable);
      }
      for (const auto& [id, node] : batch) {
        Finish(*scheduler, id, node);
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kTasksPerThread; ++i) {
        ASSERT_TRUE(scheduler->Submit(MakeTask()).ok());
      }
    });
  }
  for (auto& t : submitters) {
    t.join();
  }
  stop.store(true);
  completer.join();

  MutexLock lock(mu);
  EXPECT_EQ(dispatch_count.size(),
            static_cast<size_t>(kThreads * kTasksPerThread));
  for (const auto& [id, count] : dispatch_count) {
    EXPECT_EQ(count, 1) << "task " << id << " dispatched " << count << " times";
  }
}

}  // namespace
}  // namespace skadi
