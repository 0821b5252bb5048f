// SkadiRuntime: the stateful serverless runtime (Figure 2 bottom half).
//
// Wires raylets, the centralized scheduler, per-node ownership tables, the
// caching layer, and the autoscaler over one emulated cluster, and exposes
// the distributed task API the access layer targets (Submit / Put / Get —
// the `X.remote()` pseudo-code of Figure 2).
//
// Two configuration axes reproduce Figure 3's generations:
//  * generation: Gen-1 routes control messages of device-resident code
//    through the complex's DPU (the CPU-centric model); Gen-2 gives every
//    device its own raylet and direct control paths (device-centric).
//  * futures: kPull resolves a by-reference argument at consume time with a
//    control round trip to the owner plus an on-demand transfer; kPush has
//    the owner proactively push the value to registered consumers the moment
//    it is produced.
#ifndef SRC_RUNTIME_RUNTIME_H_
#define SRC_RUNTIME_RUNTIME_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/mutex.h"
#include "src/net/push_batcher.h"
#include "src/ownership/ownership_table.h"
#include "src/runtime/autoscaler.h"
#include "src/runtime/cluster.h"
#include "src/runtime/raylet.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/task.h"

namespace skadi {

enum class RuntimeGeneration { kGen1, kGen2 };
enum class FutureProtocol { kPull, kPush };
enum class RecoveryMode { kNone, kLineage };

struct RuntimeOptions {
  RuntimeGeneration generation = RuntimeGeneration::kGen2;
  FutureProtocol futures = FutureProtocol::kPull;
  SchedulingPolicy policy = SchedulingPolicy::kLocalityAware;
  RecoveryMode recovery = RecoveryMode::kLineage;
  AutoscalerOptions autoscaler;
  uint64_t seed = 17;
  // Resolve-side timeout for pull-mode argument waits and driver Gets.
  int64_t default_get_timeout_ms = 30000;
  // Shard count for the sharded control-plane structures (ownership tables,
  // scheduler dependency/park/task maps; DESIGN.md §13). 1 = the single-lock
  // baseline bench_control_plane compares against.
  int control_plane_shards = 8;
  // Push mode: coalesce same-destination resolution pushes into one fabric
  // message per flush instead of one per (object, consumer) pair.
  bool batch_pushes = true;
  // Size threshold that force-flushes one destination's batch early.
  int push_batch_max = PushBatcher::kDefaultMaxBatch;
};

class SkadiRuntime {
 public:
  SkadiRuntime(Cluster* cluster, FunctionRegistry* registry, RuntimeOptions options = {});
  ~SkadiRuntime();

  SkadiRuntime(const SkadiRuntime&) = delete;
  SkadiRuntime& operator=(const SkadiRuntime&) = delete;

  // --- Distributed task API ---

  // Submits a task; allocates and returns one ObjectRef per declared return.
  // spec.id/returns/owner are filled in here.
  Result<std::vector<ObjectRef>> Submit(TaskSpec spec);

  // Stores a driver-side value into the caching layer at the head node.
  Result<ObjectRef> Put(Buffer value);

  // Stores a value with its primary copy on a specific node (data placement
  // for locality experiments and table registration).
  Result<ObjectRef> PutAt(Buffer value, NodeId node);

  // Blocks until the future resolves; fetches the value to the head node.
  // A drain-loop shim over GetAsync: parks on an Event (helping drive the
  // fabric reactor when called from one of its driver threads).
  Result<Buffer> Get(const ObjectRef& ref, int64_t timeout_ms = -1);

  // Continuation form of Get: never parks the calling thread. `done` runs
  // inline when the future is already resolved (or fails fast), otherwise on
  // the fabric reactor when the owner flips the object's state. Lost objects
  // under lineage recovery re-arm a reactor timer (capped exponential
  // backoff) instead of sleeping. Requires a live cluster; timeout_ms < 0
  // means options().default_get_timeout_ms.
  void GetAsync(const ObjectRef& ref, std::function<void(Result<Buffer>)> done,
                int64_t timeout_ms = -1);

  // Resolves many futures concurrently: one GetAsync per ref fanned out on
  // the fabric reactor, one park for the whole set. Results are positional.
  // Fails with the first non-OK resolution (after all ops settle).
  Result<std::vector<Buffer>> GetAll(const std::vector<ObjectRef>& refs,
                                     int64_t timeout_ms = -1);

  // Blocks until all futures leave the pending state.
  Status Wait(const std::vector<ObjectRef>& refs, int64_t timeout_ms = -1);

  // Drops a driver reference; the object is deleted when the count is zero.
  // Deleting a task's last live return also drops the task's lineage.
  Status Release(const ObjectRef& ref);

  // --- Actors ---

  Result<ActorId> CreateActor(NodeId node, std::shared_ptr<void> initial_state);
  // Convenience: spec.actor + pinned_node are set from the actor's home.
  Result<std::vector<ObjectRef>> SubmitActorTask(ActorId actor, TaskSpec spec);

  // --- Failure injection + recovery ---

  // Kills a node: raylet stops, its store contents vanish, in-flight tasks
  // fail over. With RecoveryMode::kLineage, lost objects are re-produced by
  // re-submitting their lineage task DAG.
  Status KillNode(NodeId node);

  // --- Introspection ---

  Cluster& cluster() { return *cluster_; }
  Scheduler& scheduler() { return *scheduler_; }
  Autoscaler& autoscaler() { return *autoscaler_; }
  Raylet* raylet(NodeId node);
  OwnershipTable& ownership(NodeId owner);
  const RuntimeOptions& options() const { return options_; }
  MetricsRegistry& metrics() { return cluster_->fabric().metrics(); }
  NodeId head() const { return cluster_->head(); }

  int64_t control_hops() const;

  // Stops the autoscaler, drains all raylets, completes every outstanding
  // future-resolution op with kUnavailable, and drains the fabric reactor so
  // no continuation left behind by an abandoned bounded wait touches freed
  // runtime state. A GetAsync after Shutdown completes with kUnavailable.
  void Shutdown();

 private:
  // Continuation state machine behind GetAsync/Get/ResolveArg: watches the
  // owner's table via StateOrWatch, retries lost objects on a reactor timer,
  // and fetches through CachingLayer::GetAsync once ready. Defined in
  // runtime.cc.
  struct GetOp;

  // One costed control message along the (generation-dependent) path from
  // `from` to `to`; returns the number of hops charged.
  int ControlMessage(NodeId from, NodeId to, int64_t payload_bytes = 64);

  // Raylet callbacks.
  Result<Buffer> ResolveArg(const ObjectRef& ref, const TaskSpec& spec, NodeId at);
  // Pins/unpins a resolved ref-arg's entry in at's store for the duration of
  // the task body (Raylet::Callbacks::pin_arg contract).
  bool PinArg(const ObjectRef& ref, NodeId at);
  void UnpinArg(const ObjectRef& ref, NodeId at);
  Status CompleteTask(const TaskSpec& spec, std::vector<Buffer> outputs, NodeId at);
  // `at` is the node the failing attempt ran on (invalid for failures that
  // never reached a node, e.g. unschedulable tasks). Aborts re-dispatch via
  // Scheduler::OnTaskAborted; other failures are terminal.
  void FailTask(const TaskSpec& spec, const Status& status, NodeId at);

  Status DispatchToNode(const TaskSpecPtr& spec, NodeId target);

  // Recovery helpers.
  void RecoverLostObjects(const std::vector<ObjectId>& lost);

  // Deadline queue (DESIGN.md §11): every pending GetOp is linked into the
  // FIFO of its timeout value, so FIFO order is deadline order and one
  // fabric-reactor timer, armed at the earliest head deadline, expires them
  // all. The queue is also the live-op registry Shutdown completes.
  //
  // LinkOp stamps the op's deadline and links it; false after Shutdown.
  bool LinkOp(const std::shared_ptr<GetOp>& op) EXCLUDES(ops_mu_);
  // Unlinks `op` in O(1) and returns the queue's reference to it (null when
  // it was not linked), for the caller to drop after the unlock.
  std::shared_ptr<GetOp> UnlinkOp(GetOp* op) EXCLUDES(ops_mu_);
  std::shared_ptr<GetOp> UnlinkLocked(GetOp* op) REQUIRES(ops_mu_);
  // Arms the sweep timer at `deadline`, or pulls an armed one forward.
  void ArmSweepLocked(int64_t deadline) REQUIRES(ops_mu_);
  // The sweep timer body: expires the due head ops, re-arms at the earliest
  // remaining head. `gen` identifies the arming; a superseded sweep returns.
  void SweepDeadlines(uint64_t gen) EXCLUDES(ops_mu_);

  Cluster* cluster_;
  FunctionRegistry* registry_;
  RuntimeOptions options_;

  std::unique_ptr<Scheduler> scheduler_;
  // Push mode with options_.batch_pushes: coalesces same-destination
  // resolution pushes (null otherwise).
  std::unique_ptr<PushBatcher> push_batcher_;
  std::unique_ptr<Autoscaler> autoscaler_;
  std::unordered_map<NodeId, std::unique_ptr<Raylet>> raylets_;
  std::unordered_map<NodeId, std::unique_ptr<OwnershipTable>> ownership_;

  // One FIFO of linked GetOps per timeout value in use. An emptied FIFO is
  // reused for the next timeout value, so the vector stops growing at the
  // number of distinct timeouts pending at once.
  struct DeadlineFifo {
    int64_t timeout_ms = 0;
    GetOp* head = nullptr;
    GetOp* tail = nullptr;
  };
  // Terminal except for arming/cancelling the sweep timer (Reactor::mu_).
  mutable Mutex ops_mu_;
  std::vector<DeadlineFifo> deadline_fifos_ GUARDED_BY(ops_mu_);
  size_t linked_ops_ GUARDED_BY(ops_mu_) = 0;
  bool shut_down_ GUARDED_BY(ops_mu_) = false;
  // The armed sweep timer (0 = none), its deadline, and its arming number.
  TimerId sweep_timer_ GUARDED_BY(ops_mu_) = 0;
  int64_t sweep_at_ GUARDED_BY(ops_mu_) = 0;
  uint64_t sweep_gen_ GUARDED_BY(ops_mu_) = 0;
  // Liveness gate for the sweep continuation (DESIGN.md §14): the runtime
  // does not own the fabric reactor, so the timer holds only a weak_ptr and
  // Shutdown revokes the gate, waiting out a sweep already running.
  struct SweepGate {
    SkadiRuntime* self;
  };
  std::shared_ptr<SweepGate> sweep_gate_ GUARDED_BY(ops_mu_) =
      std::make_shared<SweepGate>(SweepGate{this});

  // Lineage of one task: its shared spec and how many of its returns are
  // still live. Release drops the entry with the last return; a released
  // object has no ownership record left, so recovery could never reach it.
  struct LineageEntry {
    TaskSpecPtr spec;
    int live_returns = 0;
  };
  // Every live object's owner and producing task (invalid for Puts).
  struct ObjectRecord {
    NodeId owner;
    TaskId producer;
  };

  mutable Mutex mu_;
  std::unordered_map<TaskId, LineageEntry> lineage_ GUARDED_BY(mu_);
  std::unordered_map<ObjectId, ObjectRecord> object_owner_ GUARDED_BY(mu_);
  std::unordered_map<ActorId, NodeId> actor_homes_ GUARDED_BY(mu_);

  // Metric handles, resolved once at construction (DESIGN.md §12); the
  // registry belongs to the fabric, which outlives the runtime.
  Counter* tasks_submitted_;
  Counter* tasks_completed_;
  Counter* tasks_failed_;
  Counter* control_hops_;
  Counter* pushes_;
  Counter* push_misses_;
  Counter* resolve_local_hits_;
  Counter* pull_resolutions_;
  Counter* nodes_killed_;
  Counter* unrecoverable_objects_;
  Counter* lineage_reexecutions_;
  Counter* lost_retries_;
  Histogram* get_nanos_;
  Gauge* lineage_entries_;
};

}  // namespace skadi

#endif  // SRC_RUNTIME_RUNTIME_H_
