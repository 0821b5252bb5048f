// Centralized scheduler of the stateful serverless runtime's control plane.
//
// Implements the paper's placement inputs ("the runtime decides the preferred
// hardware based on memory locality, device availability, network topology",
// §2.1) as pluggable policies, plus data-centric dependency gating (tasks
// dispatch when their inputs are ready) and gang scheduling for SPMD
// sub-graphs (§2.3).
//
// Concurrency (DESIGN.md §13): the single scheduler mutex is gone. State is
// split so the hot paths touch only small, independent locks:
//
//  * per-raylet dispatch queues (NodeQueue) — placement routes a dep-ready
//    task to its node's queue under that queue's own lock; a pump drains the
//    queue to the dispatch function outside every lock, and idle raylets
//    steal from the longest queue (ReleaseSlot / empty-pump triggers).
//  * a sharded ready-object reverse index (ready set + waiters) and a
//    sharded park table, so OnObjectReady storms resolve dependencies
//    without serializing against placement. Parking uses an atomic
//    unresolved countdown (+1 submit guard) so Submit and concurrent
//    OnObjectReady calls never lose a wakeup and exactly one side dispatches.
//  * nodes/policy/rng under nodes_mu_ (short pick sections only) and gang
//    buffers under gangs_mu_ (scanned only on gang-relevant events).
//
// `shards == 1` (SchedulerOptions) degenerates to one lock per structure —
// the single-lock baseline bench_control_plane compares against.
#ifndef SRC_RUNTIME_SCHEDULER_H_
#define SRC_RUNTIME_SCHEDULER_H_

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cache/caching_layer.h"
#include "src/common/metrics.h"
#include "src/common/mutex.h"
#include "src/common/random.h"
#include "src/runtime/task.h"

namespace skadi {

enum class SchedulingPolicy {
  kRoundRobin,
  kRandom,
  kLoadAware,       // fewest in-flight tasks
  kLocalityAware,   // most input bytes already local (data-centric, Whiz-style)
};

std::string_view SchedulingPolicyName(SchedulingPolicy policy);

// Node facts the scheduler needs; refreshed by the runtime.
struct SchedulableNode {
  NodeId id;
  DeviceKind device_kind = DeviceKind::kCpu;
  NodeId dpu;  // controlling DPU (for completeness; routing is runtime-side)
  int workers = 0;
};

struct SchedulerOptions {
  // Shard count for the ready-index / park / task-tracking maps. 1 = the
  // single-lock baseline.
  int shards = 8;
};

class Scheduler {
 public:
  // dispatch: actually sends the spec to the chosen node's raylet (the
  // runtime wires this through the fabric so dispatch is a costed control
  // message). Returns non-OK if the node is dead, in which case the task is
  // re-queued for another placement. The pointer is the one handed to
  // Submit; a re-routed task is dispatched with the same pointer again.
  using DispatchFn = std::function<Status(const TaskSpecPtr& spec, NodeId target)>;

  // Invoked (outside every scheduler lock) when a task cannot be placed on
  // any node after retries. The runtime uses this to fail the task terminally
  // so its futures resolve instead of hanging forever.
  using UnschedulableFn = std::function<void(const TaskSpec& spec, const Status& status)>;

  Scheduler(CachingLayer* cache, MetricsRegistry* metrics, SchedulingPolicy policy,
            DispatchFn dispatch, uint64_t seed = 17, SchedulerOptions options = {});

  void set_unschedulable_handler(UnschedulableFn handler) {
    unschedulable_ = std::move(handler);
  }

  void SetNodes(std::vector<SchedulableNode> nodes);
  void SetPolicy(SchedulingPolicy policy);
  SchedulingPolicy policy() const;

  // Submits a task: dispatches immediately if every ref argument is ready,
  // otherwise parks it until OnObjectReady unblocks it. Gang members park
  // until the whole gang is present and has slots. Every queue, park cell,
  // gang buffer and in-flight record shares `spec`; none copies it.
  Status Submit(TaskSpecPtr spec);
  // Convenience for callers that own a spec outright (tests, benches).
  Status Submit(TaskSpec spec) {
    return Submit(std::make_shared<const TaskSpec>(std::move(spec)));
  }

  // Called by the runtime when an object transitions to ready.
  void OnObjectReady(ObjectId id);

  // Task completion is two calls, so that a node failure can never
  // re-dispatch a task whose outputs are being published. ClaimTask erases
  // the in-flight record iff it still refers to the attempt on `at`, before
  // the runtime publishes anything; from then on OnNodeFailure does not see
  // the task. False means the attempt is stale (a node failure or an abort
  // already failed it over, or it never reached a node) and holds no slot.
  bool ClaimTask(TaskId task, NodeId at);
  // Frees the slot a claimed attempt held on `at`, once its outputs are
  // published; the freed raylet steals queued work from the longest other
  // queue if it has capacity.
  void ReleaseSlot(NodeId at);

  // Called when an attempt of `spec` aborted on `at` because the node died.
  // Re-dispatches the task elsewhere iff the in-flight record still refers to
  // the aborted attempt; a stale abort (OnNodeFailure already failed the task
  // over, so the record is gone or points at the new target) is a no-op.
  // Without this arbitration, an abort draining from a killed raylet's queue
  // ahead of OnNodeFailure would erase the in-flight record and the task
  // would never run anywhere — its futures would hang until the Get deadline.
  void OnTaskAborted(const TaskSpec& spec, NodeId at);

  // A node died: its in-flight tasks are re-dispatched elsewhere, its queued
  // tasks re-routed, and it leaves the candidate set.
  void OnNodeFailure(NodeId node);

  // Objects the runtime already knows are ready (pre-existing cache entries).
  void MarkObjectReady(ObjectId id);

  size_t pending_tasks() const;
  int64_t inflight_on(NodeId node) const;
  // Tasks currently staged in `node`'s dispatch queue (not yet dispatched).
  int64_t queued_on(NodeId node) const;

 private:
  // --- Per-raylet dispatch queue -----------------------------------------
  // Placement routes a ready task here under the queue's own lock; whichever
  // thread finds the queue un-pumped drains it (dispatching outside every
  // lock), so concurrent submitters to the same node batch behind the active
  // pumper instead of serializing on one global mutex.
  struct NodeQueue {
    explicit NodeQueue(SchedulableNode n) : info(n) {}

    const SchedulableNode info;  // immutable after construction
    Mutex mu;
    std::deque<TaskSpecPtr> tasks GUARDED_BY(mu);
    bool pumping GUARDED_BY(mu) = false;
    // Tasks dispatched to this raylet and not yet finished. Atomic so the
    // load-aware pick and gang slot check read it without the queue lock.
    std::atomic<int64_t> inflight{0};
    // Mirror of tasks.size(), readable without mu (steal victim selection).
    std::atomic<int64_t> depth{0};
    // Flipped (under mu) when the node leaves the candidate set; enqueues
    // that lose the race against removal re-route instead of stranding.
    bool removed GUARDED_BY(mu) = false;
    Gauge* depth_gauge = nullptr;  // scheduler.queue_depth.<node>, set at wiring
  };
  using QueuePtr = std::shared_ptr<NodeQueue>;

  // --- Sharded dependency state ------------------------------------------
  // A parked task: the spec plus an atomic countdown of unresolved ref args.
  // Initialized to ref-arg-count + 1: Submit holds the +1 guard while it
  // registers waiters, so a concurrent OnObjectReady can decrement but never
  // reach zero early; whichever decrement lands the counter on zero owns the
  // spec and dispatches it exactly once.
  struct Pending {
    TaskSpecPtr spec;
    std::atomic<int> unresolved{0};
  };

  struct IndexShard {
    Mutex mu;
    std::unordered_map<ObjectId, bool> ready GUARDED_BY(mu);
    std::unordered_map<ObjectId, std::vector<TaskId>> waiters GUARDED_BY(mu);
  };

  struct ParkShard {
    Mutex mu;
    std::unordered_map<TaskId, std::shared_ptr<Pending>> parked GUARDED_BY(mu);
  };

  // In-flight bookkeeping for failover: the node a dispatched task went to
  // and its spec, so a node death can re-route it.
  struct InFlight {
    NodeId node;
    TaskSpecPtr spec;
  };
  struct TaskShard {
    Mutex mu;
    std::unordered_map<TaskId, InFlight> inflight_specs GUARDED_BY(mu);
  };

  IndexShard& index_shard(ObjectId id) const {
    return *index_shards_[std::hash<ObjectId>()(id) % index_shards_.size()];
  }
  ParkShard& park_shard(TaskId id) const {
    return *park_shards_[std::hash<TaskId>()(id) % park_shards_.size()];
  }
  TaskShard& task_shard(TaskId id) const {
    return *task_shards_[std::hash<TaskId>()(id) % task_shards_.size()];
  }

  // True iff the object is marked ready (locks the index shard).
  bool IsReady(ObjectId id) const;
  // Dep check for gang release; locks each arg's index shard in turn.
  bool DepsReady(const TaskSpec& spec) const;

  // Picks a queue for the spec per policy. Locks nodes_mu_ only.
  Result<QueuePtr> PickQueue(const TaskSpec& spec) EXCLUDES(nodes_mu_);

  // Places one dep-ready task: pick a queue, enqueue, pump. On terminal
  // placement failure invokes unschedulable_. Never holds a lock across
  // dispatch_.
  void Route(TaskSpecPtr spec);
  void RouteAll(std::vector<TaskSpecPtr> specs);

  // Drains q if no other thread is pumping it; steals for q when it empties.
  void Pump(const QueuePtr& q);
  // Records in-flight state and calls dispatch_; on failure removes the node
  // and re-routes the spec.
  void DispatchOne(TaskSpecPtr spec, const QueuePtr& q);
  // If q has spare worker capacity and an empty queue, repeatedly steals the
  // newest compatible task from the longest other queue and dispatches it on
  // q's node.
  void TrySteal(const QueuePtr& q);
  // Whether `spec` may run on `q`'s node (pin + device constraints).
  static bool Compatible(const TaskSpec& spec, const NodeQueue& q);

  // Removes the node from the candidate set and re-routes its queued tasks.
  // Safe to call repeatedly.
  void RemoveNode(NodeId node);

  // Releases any gang whose members are all present, dep-ready, and covered
  // by free worker slots (all-or-nothing); routes the released members.
  void TryReleaseGangs();

  void UpdatePendingGauge();

  CachingLayer* cache_;
  MetricsRegistry* metrics_;
  DispatchFn dispatch_;
  UnschedulableFn unschedulable_;  // set once at wiring time, before traffic

  // Candidate set + policy state. Lock order: nodes_mu_ may be taken under
  // gangs_mu_ (slot check) and may take CachingLayer::mu_ (locality probe);
  // never taken under a queue or shard mutex.
  mutable Mutex nodes_mu_;
  Rng rng_ GUARDED_BY(nodes_mu_);
  SchedulingPolicy policy_ GUARDED_BY(nodes_mu_);
  std::vector<QueuePtr> queues_ GUARDED_BY(nodes_mu_);
  // Dead nodes' queues are erased here; inflight_on lookups then miss -> 0.
  std::unordered_map<NodeId, QueuePtr> queue_by_node_ GUARDED_BY(nodes_mu_);
  size_t round_robin_next_ GUARDED_BY(nodes_mu_) = 0;

  // Shard arrays are immutable after construction (contents are guarded by
  // each shard's own mutex). All shard mutexes are terminal.
  std::vector<std::unique_ptr<IndexShard>> index_shards_;
  std::vector<std::unique_ptr<ParkShard>> park_shards_;
  std::vector<std::unique_ptr<TaskShard>> task_shards_;

  // Gang groups: buffered members until gang_size present + slots free.
  // Lock order: gangs_mu_ -> IndexShard::mu (dep check) and -> nodes_mu_
  // (slot check); nothing takes gangs_mu_ while holding another lock.
  mutable Mutex gangs_mu_;
  std::map<std::string, std::vector<TaskSpecPtr>> gangs_ GUARDED_BY(gangs_mu_);

  // Cheap pending_tasks() (the gauge updates on every submit).
  std::atomic<int64_t> parked_count_{0};
  std::atomic<int64_t> gang_members_{0};

  // Cached metric handles (the registry outlives the scheduler).
  Counter* dispatched_ctr_;
  Counter* parked_ctr_;
  Counter* gang_buffered_ctr_;
  Counter* gangs_dispatched_ctr_;
  Counter* unschedulable_ctr_;
  Counter* retries_ctr_;
  Counter* abort_redispatch_ctr_;
  Counter* failover_ctr_;
  Counter* steal_ctr_;
  Gauge* pending_gauge_;
};

}  // namespace skadi

#endif  // SRC_RUNTIME_SCHEDULER_H_
