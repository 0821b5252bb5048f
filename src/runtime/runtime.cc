#include "src/runtime/runtime.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <thread>
#include <utility>

#include "src/common/logging.h"
#include "src/common/metric_names.h"
#include "src/common/trace.h"
#include "src/net/reactor.h"

namespace skadi {

// Resolves one future as a chain of continuations. Each link runs on the
// thread that woke it: the thread that flipped the object's state (its
// ownership watcher), the fabric reactor (backoff timer, realized transfer),
// or the caller (an already-resolved future).
//
// Lifecycle: heap-allocated via shared_ptr. While pending, the op is linked
// into the runtime's deadline queue, which holds a reference to it (pin_);
// every registered continuation (ownership watcher, retry timer, cache fetch
// callback) captures the shared_ptr too, so the op outlives any late firing.
// `done` runs exactly once (finished_ gate); Finish unlinks the op, so a
// resolved op leaves no timer or queue entry behind.
//
// Threading: Steps form a single chain — each state arms exactly one
// wake-up (watcher while pending, timer while lost) and the next Step runs
// when it fires, so backoff_nanos_/lost_rounds_ need no lock. Only the
// deadline sweep, on the fabric reactor, runs concurrently with the chain,
// which may be on any thread; the sweep reads the queue links under ops_mu_
// and calls OnDeadline, and Finish's finished_ gate lets exactly one of
// OnDeadline and the chain's own Finish complete the op.
struct SkadiRuntime::GetOp : std::enable_shared_from_this<SkadiRuntime::GetOp> {
  // kDriverGet fetches to the head node and charges the driver->owner
  // control hop; kArgResolve fetches to the consuming node and caps lost
  // retries at 64 rounds (the old ResolveArg loop bound).
  enum class Mode { kDriverGet, kArgResolve };

  GetOp(SkadiRuntime* rt, Mode mode, ObjectRef ref, NodeId dest,
        int64_t timeout_ms, std::function<void(Result<Buffer>)> done)
      : rt_(rt),
        mode_(mode),
        ref_(ref),
        dest_(dest),
        timeout_ms_(timeout_ms),
        start_nanos_(NowNanos()),
        done_(std::move(done)),
        // The op's span opens here (under the caller's context) and closes
        // in Finish — which may run on another thread after watcher + timer
        // + fabric hops, exactly the case the SpanHandle shape exists for.
        span_(trace::BeginSpan(mode == Mode::kDriverGet
                                   ? names::kSpanRuntimeGet
                                   : names::kSpanRuntimeResolveArg,
                               trace::CurrentContext())) {}

  Reactor& reactor() { return rt_->cluster_->fabric().reactor(); }

  void Start() {
    if (!rt_->LinkOp(shared_from_this())) {
      Finish(Status::Unavailable("runtime shutting down"));
      return;
    }
    Step();
  }

  void Step() {
    // Each Step hop (watcher fire, backoff timer, inline probe) re-enters
    // under the op's span so retries and nested fetches stay in the tree.
    trace::ScopedContext adopt(span_.ctx);
    for (;;) {
      if (finished_.load(std::memory_order_acquire)) {
        return;
      }
      if (NowNanos() >= deadline_nanos_) {
        OnDeadline();
        return;
      }
      auto self = shared_from_this();
      Result<ObjectState> state =
          rt_->ownership(ref_.owner).StateOrWatch(ref_.id, [self] { self->Step(); });
      if (!state.ok()) {
        // Released, or the producer failed terminally (FailTask records its
        // status on the outputs): complete now, under either recovery mode.
        Finish(state.status());
        return;
      }
      switch (*state) {
        case ObjectState::kPending:
          return;  // watcher armed; MarkReady/MarkLost/DecRef re-enters Step
        case ObjectState::kReady:
          Fetch();
          return;
        case ObjectState::kLost: {
          // Lost with its copies (a node failure): lineage may re-produce it.
          if (rt_->options_.recovery == RecoveryMode::kNone) {
            if (mode_ == Mode::kArgResolve) {
              Finish(Status::DataLoss("argument " + ref_.ToString() + " of task " +
                                      task_.ToString() +
                                      " lost with recovery disabled"));
            } else {
              Finish(Status::DataLoss("object " + ref_.ToString() + " lost"));
            }
            return;
          }
          if (mode_ == Mode::kArgResolve && ++lost_rounds_ >= 64) {
            Finish(Status::DataLoss("argument " + ref_.ToString() + " unrecoverable"));
            return;
          }
          // Lineage recovery re-arms the object to pending; retry on a wheel
          // timer with capped exponential backoff (was a sleep_for loop).
          rt_->lost_retries_->Increment();
          trace::Instant(names::kSpanRuntimeLostRetry, backoff_nanos_,
                         "backoff_nanos");
          const int64_t delay = backoff_nanos_;
          backoff_nanos_ = std::min<int64_t>(backoff_nanos_ * 2, 16'000'000);
          if (reactor().ScheduleAfter(delay, [self] { self->Step(); }) != 0) {
            return;
          }
          continue;  // reactor stopped: re-probe inline, bounded by deadline
        }
      }
      return;
    }
  }

  void Fetch() {
    if (mode_ == Mode::kDriverGet && ref_.owner != rt_->head()) {
      rt_->ControlMessage(rt_->head(), ref_.owner);
    }
    auto self = shared_from_this();
    // Called under Step's ScopedContext, so the cache's own span parents
    // under this op; the completion re-adopts in Finish.
    rt_->cluster_->cache().GetAsync(
        ref_.id, dest_, /*cache_locally=*/false,
        [self](Result<Buffer> fetched) { self->Finish(std::move(fetched)); });
  }

  void OnDeadline() {
    if (mode_ == Mode::kArgResolve) {
      // Same message as ResolveArg's own bounded-wait error.
      Finish(Status::DeadlineExceeded("object " + ref_.id.ToString() +
                                      " still pending after " +
                                      std::to_string(timeout_ms_) + "ms"));
    } else {
      Finish(Status::DeadlineExceeded("Get(" + ref_.ToString() + ") timed out"));
    }
  }

  void Finish(Result<Buffer> result) {
    if (finished_.exchange(true, std::memory_order_acq_rel)) {
      return;
    }
    // The queue's reference (if still linked) keeps the op alive until the
    // continuation below has run.
    std::shared_ptr<GetOp> pin = rt_->UnlinkOp(this);
    if (mode_ == Mode::kDriverGet) {
      rt_->get_nanos_->Record(NowNanos() - start_nanos_);
    }
    trace::EndSpan(span_, result.ok() ? 1 : 0, "ok");
    // Run the user continuation under the op's context so whatever it posts
    // next (often the rest of the driver flow) stays in the tree.
    trace::ScopedContext adopt(span_.ctx);
    done_(std::move(result));
  }

  SkadiRuntime* rt_;
  const Mode mode_;
  const ObjectRef ref_;
  TaskId task_;  // arg mode: consumer task, for error messages
  const NodeId dest_;
  const int64_t timeout_ms_;
  const int64_t start_nanos_;
  // Stamped by LinkOp under ops_mu_ before the first Step, never changed.
  int64_t deadline_nanos_ = 0;
  std::function<void(Result<Buffer>)> done_;
  trace::SpanHandle span_;
  std::atomic<bool> finished_{false};
  int lost_rounds_ = 0;
  int64_t backoff_nanos_ = 1'000'000;  // 1ms doubling to a 16ms cap

  // Deadline-queue links, guarded by rt_->ops_mu_. fifo_ < 0: not linked.
  GetOp* prev_ = nullptr;
  GetOp* next_ = nullptr;
  int fifo_ = -1;
  std::shared_ptr<GetOp> pin_;
};

SkadiRuntime::SkadiRuntime(Cluster* cluster, const FunctionRegistry* registry,
                           RuntimeOptions options)
    : cluster_(cluster),
      registry_(registry),
      options_(options),
      tasks_submitted_(&metrics().GetCounter(names::kRuntimeTasksSubmitted)),
      tasks_completed_(&metrics().GetCounter(names::kRuntimeTasksCompleted)),
      tasks_failed_(&metrics().GetCounter(names::kRuntimeTasksFailed)),
      control_hops_(&metrics().GetCounter(names::kRuntimeControlHops)),
      pushes_(&metrics().GetCounter(names::kRuntimePushes)),
      push_misses_(&metrics().GetCounter(names::kRuntimePushMisses)),
      resolve_local_hits_(&metrics().GetCounter(names::kRuntimeResolveLocalHits)),
      pull_resolutions_(&metrics().GetCounter(names::kRuntimePullResolutions)),
      nodes_killed_(&metrics().GetCounter(names::kRuntimeNodesKilled)),
      unrecoverable_objects_(&metrics().GetCounter(names::kRuntimeUnrecoverableObjects)),
      lineage_reexecutions_(&metrics().GetCounter(names::kRuntimeLineageReexecutions)),
      lost_retries_(&metrics().GetCounter(names::kRuntimeLostRetries)),
      get_nanos_(&metrics().GetHistogram(names::kRuntimeGetNanos)),
      lineage_entries_(&metrics().GetGauge(names::kRuntimeLineageEntries)) {
  // Every node that can run tasks gets a raylet + an ownership table, and
  // registers a no-op control endpoint so control messages are costed by the
  // fabric.
  std::vector<SchedulableNode> schedulable;
  for (const ClusterNode& node : cluster_->nodes()) {
    Status ctrl_registered =
        cluster_->fabric().RegisterHandler(node.id, "ctrl", [](const Buffer&) -> Result<Buffer> {
          return Buffer();
        });
    SKADI_CHECK(ctrl_registered.ok()) << ctrl_registered.ToString();
    ownership_[node.id] =
        std::make_unique<OwnershipTable>(node.id, options_.control_plane_shards);
    if (!node.is_compute()) {
      continue;
    }
    NodeId node_id = node.id;
    Raylet::Callbacks callbacks;
    callbacks.resolve_arg = [this, node_id](const ObjectRef& ref, const TaskSpec& spec) {
      return ResolveArg(ref, spec, node_id);
    };
    callbacks.pin_arg = [this](const ObjectRef& ref, NodeId at) {
      return PinArg(ref, at);
    };
    callbacks.unpin_arg = [this](const ObjectRef& ref, NodeId at) {
      UnpinArg(ref, at);
    };
    callbacks.complete = [this, node_id](const TaskSpec& spec, std::vector<Buffer> outputs) {
      return CompleteTask(spec, std::move(outputs), node_id);
    };
    callbacks.fail = [this](const TaskSpec& spec, const Status& status, NodeId at) {
      FailTask(spec, status, at);
    };
    raylets_[node.id] = std::make_unique<Raylet>(node, &cluster_->fabric().clock(),
                                                 std::move(callbacks), node.default_workers);
    schedulable.push_back(
        SchedulableNode{node.id, node.device.kind, node.dpu, node.default_workers});
  }

  scheduler_ = std::make_unique<Scheduler>(
      &cluster_->cache(), &metrics(), options_.policy,
      [this](const TaskSpecPtr& spec, NodeId target) { return DispatchToNode(spec, target); },
      options_.seed, SchedulerOptions{options_.control_plane_shards});
  scheduler_->SetNodes(std::move(schedulable));

  if (options_.futures == FutureProtocol::kPush && options_.batch_pushes) {
    // One coalesced control message per (owner, destination) batch replaces
    // one message per pushed object; each carried entry still lands its
    // value in the destination store and counts as a push.
    push_batcher_ = std::make_unique<PushBatcher>(
        [this](NodeId owner, NodeId dst, std::vector<PushEntry> entries) {
          ControlMessage(owner, dst, 64 * static_cast<int64_t>(entries.size()));
          for (const PushEntry& e : entries) {
            // cache_locally=true: the transfer lands the value in the
            // consumer's store, making the consume-side read local.
            (void)cluster_->cache().Get(e.object, dst, /*cache_locally=*/true);
            pushes_->Increment();
          }
        },
        options_.push_batch_max);
    push_batcher_->set_reactor(&cluster_->fabric().reactor());
    push_batcher_->set_metrics(&metrics());
  }
  scheduler_->set_unschedulable_handler([this](const TaskSpec& spec, const Status& status) {
    FailTask(spec, status, NodeId());
  });

  autoscaler_ = std::make_unique<Autoscaler>(options_.autoscaler, &metrics(),
                                             &cluster_->fabric().reactor());
  for (auto& [id, raylet] : raylets_) {
    raylet->set_runtime(this);
    raylet->set_metrics(&metrics());
    autoscaler_->Register(raylet.get());
  }
  for (auto& [id, table] : ownership_) {
    table->set_metrics(&metrics());
  }
  autoscaler_->Start();
}

SkadiRuntime::~SkadiRuntime() { Shutdown(); }

void SkadiRuntime::Shutdown() {
  autoscaler_->Stop();
  for (auto& [id, raylet] : raylets_) {
    raylet->Shutdown();
  }
  // A caller that gave up on its bounded wait (or a GetAsync nobody waited
  // on) can leave ops with armed watcher/backoff continuations that hold a
  // raw pointer to this runtime. Complete them — every later continuation
  // then early-outs on the op's own finished_ flag without touching the
  // runtime — and refuse new ones.
  std::vector<std::shared_ptr<GetOp>> live;
  std::weak_ptr<SweepGate> gone;
  {
    MutexLock lock(ops_mu_);
    shut_down_ = true;
    if (sweep_timer_ != 0) {
      cluster_->fabric().reactor().Cancel(sweep_timer_);  // may have fired
      sweep_timer_ = 0;
    }
    // A sweep that fired before the Cancel may still be expiring the ops it
    // unlinked: revoke its gate, and wait it out below.
    gone = sweep_gate_;
    sweep_gate_.reset();
    live.reserve(linked_ops_);
    for (DeadlineFifo& fifo : deadline_fifos_) {
      while (fifo.head != nullptr) {
        live.push_back(UnlinkLocked(fifo.head));
      }
    }
  }
  for (auto& op : live) {
    op->Finish(Status::Unavailable("runtime shutting down"));
  }
  while (!gone.expired()) {
    std::this_thread::yield();
  }
  // Drain the fabric reactor so a continuation already past its finished_
  // check completes before members are destroyed.
  auto drained = std::make_shared<Event>();
  if (cluster_->fabric().reactor().Post([drained] { drained->Set(); })) {
    (void)drained->BlockingWait(NowNanos() + 1'000'000'000);
  }
  // Post returning false means the reactor is already stopped: nothing can
  // fire a continuation anymore, so tear-down is safe without the barrier.
}

bool SkadiRuntime::LinkOp(const std::shared_ptr<GetOp>& op) {
  MutexLock lock(ops_mu_);
  if (shut_down_) {
    return false;
  }
  // Stamped under the lock, so each FIFO is in deadline order.
  op->deadline_nanos_ = NowNanos() + op->timeout_ms_ * 1'000'000;
  int index = -1;
  for (size_t i = 0; i < deadline_fifos_.size(); ++i) {
    DeadlineFifo& fifo = deadline_fifos_[i];
    if (fifo.timeout_ms == op->timeout_ms_) {
      index = static_cast<int>(i);
      break;
    }
    if (fifo.head == nullptr && index < 0) {
      index = static_cast<int>(i);  // reusable unless the timeout has a FIFO
    }
  }
  if (index < 0) {
    index = static_cast<int>(deadline_fifos_.size());
    deadline_fifos_.emplace_back();
  }
  DeadlineFifo& fifo = deadline_fifos_[static_cast<size_t>(index)];
  if (fifo.head == nullptr) {
    fifo.timeout_ms = op->timeout_ms_;
  }
  op->fifo_ = index;
  op->pin_ = op;
  op->prev_ = fifo.tail;
  op->next_ = nullptr;
  if (fifo.tail != nullptr) {
    fifo.tail->next_ = op.get();
  } else {
    fifo.head = op.get();
    ArmSweepLocked(op->deadline_nanos_);  // a new head may be the earliest
  }
  fifo.tail = op.get();
  ++linked_ops_;
  return true;
}

std::shared_ptr<SkadiRuntime::GetOp> SkadiRuntime::UnlinkOp(GetOp* op) {
  MutexLock lock(ops_mu_);
  return UnlinkLocked(op);
}

std::shared_ptr<SkadiRuntime::GetOp> SkadiRuntime::UnlinkLocked(GetOp* op) {
  if (op->fifo_ < 0) {
    return nullptr;  // expired by the sweep or completed by Shutdown
  }
  DeadlineFifo& fifo = deadline_fifos_[static_cast<size_t>(op->fifo_)];
  if (op->prev_ != nullptr) {
    op->prev_->next_ = op->next_;
  } else {
    fifo.head = op->next_;
  }
  if (op->next_ != nullptr) {
    op->next_->prev_ = op->prev_;
  } else {
    fifo.tail = op->prev_;
  }
  op->prev_ = nullptr;
  op->next_ = nullptr;
  op->fifo_ = -1;
  if (--linked_ops_ == 0 && sweep_timer_ != 0) {
    // Nothing left to expire: an idle runtime keeps no timer on the wheel.
    cluster_->fabric().reactor().Cancel(sweep_timer_);  // may have fired
    sweep_timer_ = 0;
  }
  // A head that leaves early needs no re-arm: the sweep fires at its old
  // deadline, finds nothing due, and re-arms at the new earliest head.
  return std::move(op->pin_);
}

void SkadiRuntime::ArmSweepLocked(int64_t deadline) {
  Reactor& reactor = cluster_->fabric().reactor();
  const int64_t delay = std::max<int64_t>(deadline - NowNanos(), 0);
  if (sweep_timer_ != 0) {
    // Rearm fails when the timer already fired; that sweep is about to run
    // and re-arms from the current heads itself.
    if (deadline < sweep_at_ && reactor.Rearm(sweep_timer_, delay)) {
      sweep_at_ = deadline;
    }
    return;
  }
  const uint64_t gen = ++sweep_gen_;
  std::weak_ptr<SweepGate> gate = sweep_gate_;
  sweep_timer_ = reactor.ScheduleAfter(delay, [gate, gen] {
    std::shared_ptr<SweepGate> live = gate.lock();
    if (live != nullptr) {
      live->self->SweepDeadlines(gen);
    }
  });
  // A stopped reactor returns 0: no sweep, but Step's inline deadline check
  // plus the caller's bounded BlockOn still guarantee termination.
  sweep_at_ = deadline;
}

void SkadiRuntime::SweepDeadlines(uint64_t gen) {
  std::vector<std::shared_ptr<GetOp>> expired;
  {
    MutexLock lock(ops_mu_);
    if (gen != sweep_gen_ || sweep_timer_ == 0) {
      return;  // cancelled, or superseded by a later arming
    }
    sweep_timer_ = 0;
    const int64_t now = NowNanos();
    int64_t earliest = std::numeric_limits<int64_t>::max();
    for (DeadlineFifo& fifo : deadline_fifos_) {
      while (fifo.head != nullptr && fifo.head->deadline_nanos_ <= now) {
        expired.push_back(UnlinkLocked(fifo.head));
      }
      if (fifo.head != nullptr) {
        earliest = std::min(earliest, fifo.head->deadline_nanos_);
      }
    }
    if (earliest != std::numeric_limits<int64_t>::max()) {
      ArmSweepLocked(earliest);
    }
  }
  for (auto& op : expired) {
    op->OnDeadline();
  }
}

Raylet* SkadiRuntime::raylet(NodeId node) {
  auto it = raylets_.find(node);
  return it == raylets_.end() ? nullptr : it->second.get();
}

OwnershipTable& SkadiRuntime::ownership(NodeId owner) {
  auto it = ownership_.find(owner);
  SKADI_CHECK(it != ownership_.end()) << "no ownership table for " << owner;
  return *it->second;
}

int SkadiRuntime::ControlMessage(NodeId from, NodeId to, int64_t payload_bytes) {
  if (from == to) {
    return 0;  // in-process: free, uncounted
  }
  // The fabric charges only the payload's size and "ctrl" ignores its bytes,
  // so a payload up to 4 KiB wraps one static zero array. Static storage
  // needs no owner, so no thread touches a shared refcount.
  static constexpr uint8_t kZeros[4096] = {};
  const auto size = static_cast<size_t>(payload_bytes);
  const Buffer payload =
      size <= sizeof(kZeros) ? Buffer::Wrap(nullptr, kZeros, size) : Buffer::Zeros(size);
  int hops = 0;
  auto hop = [&](NodeId src, NodeId dst) {
    if (src == dst) {
      return;
    }
    // "ctrl" is a registered no-op; the fabric charges latency + payload and
    // counts the message. Ignore NotFound against just-killed nodes.
    (void)cluster_->fabric().Call(src, dst, "ctrl", payload);
    control_hops_->Increment();
    ++hops;
  };

  if (options_.generation == RuntimeGeneration::kGen1) {
    // CPU-centric model: a device behind a DPU cannot talk directly to the
    // rest of the cluster; its control traffic detours through the DPU.
    const ClusterNode* src_node = cluster_->node(from);
    const ClusterNode* dst_node = cluster_->node(to);
    NodeId cursor = from;
    if (src_node != nullptr && src_node->dpu.valid() && src_node->dpu != to) {
      hop(cursor, src_node->dpu);
      cursor = src_node->dpu;
    }
    if (dst_node != nullptr && dst_node->dpu.valid() && dst_node->dpu != cursor) {
      hop(cursor, dst_node->dpu);
      cursor = dst_node->dpu;
    }
    hop(cursor, to);
  } else {
    hop(from, to);
  }
  return hops;
}

Result<std::vector<ObjectRef>> SkadiRuntime::Submit(TaskSpec spec) {
  if (spec.body == nullptr) {
    SKADI_ASSIGN_OR_RETURN(spec.body, registry_->Lookup(spec.function));
  }
  if (spec.num_returns < 0) {
    return Status::InvalidArgument("num_returns must be >= 0");
  }
  // The submit span is the anchor of the task's causal tree: its context is
  // stamped into the spec and re-adopted by whichever raylet (and node) ends
  // up running the task.
  trace::TraceSpan submit_span(names::kSpanRuntimeSubmit);
  // CurrentContext(), not submit_span.context(): when this flow's root was
  // unsampled, the TLS carries the unsampled marker and the spec must ship
  // it so the raylet side doesn't start a fresh root for this task.
  spec.trace_ctx = trace::CurrentContext();
  spec.id = TaskId::Next();
  spec.owner = cluster_->head();
  spec.returns.clear();
  spec.returns.reserve(static_cast<size_t>(spec.num_returns));
  std::vector<ObjectRef> refs;
  refs.reserve(static_cast<size_t>(spec.num_returns));
  OwnershipTable& table = ownership(spec.owner);
  for (int i = 0; i < spec.num_returns; ++i) {
    ObjectId oid = ObjectId::Next();
    spec.returns.push_back(oid);
    SKADI_RETURN_IF_ERROR(table.RegisterObject(oid, spec.id));
    refs.push_back(ObjectRef{oid, spec.owner});
  }
  // From here on the spec is immutable and shared, never copied: lineage,
  // the scheduler and the raylet all hold this one pointer.
  TaskSpecPtr shared = std::make_shared<const TaskSpec>(std::move(spec));
  if (!refs.empty()) {
    MutexLock lock(mu_);
    lineage_[shared->id] = LineageEntry{shared, static_cast<int>(refs.size())};
    lineage_entries_->Set(static_cast<int64_t>(lineage_.size()));
    for (const ObjectRef& ref : refs) {
      object_owner_[ref.id] = ObjectRecord{ref.owner, shared->id};
    }
  }
  tasks_submitted_->Increment();
  SKADI_RETURN_IF_ERROR(scheduler_->Submit(std::move(shared)));
  return refs;
}

Result<ObjectRef> SkadiRuntime::Put(Buffer value) {
  return PutAt(std::move(value), cluster_->head());
}

Result<ObjectRef> SkadiRuntime::PutAt(Buffer value, NodeId node) {
  NodeId head = cluster_->head();
  if (cluster_->node(node) == nullptr) {
    return Status::NotFound("unknown node " + node.ToString());
  }
  ObjectId id = ObjectId::Next();
  OwnershipTable& table = ownership(head);
  SKADI_RETURN_IF_ERROR(table.RegisterObject(id, TaskId()));
  int64_t size = static_cast<int64_t>(value.size());
  SKADI_RETURN_IF_ERROR(cluster_->cache().Put(id, std::move(value), node));
  auto consumers = table.MarkReady(id, node, size, cluster_->node(node)->device.id);
  if (!consumers.ok()) {
    return consumers.status();
  }
  for (NodeId replica : cluster_->cache().Locations(id)) {
    if (replica != node) {
      // Best-effort replica bookkeeping: the record may already be gone.
      (void)table.AddLocation(id, replica);
    }
  }
  {
    MutexLock lock(mu_);
    object_owner_[id] = ObjectRecord{head, TaskId()};
  }
  scheduler_->MarkObjectReady(id);
  return ObjectRef{id, head};
}

Status SkadiRuntime::DispatchToNode(const TaskSpecPtr& spec_ptr, NodeId target) {
  const TaskSpec& spec = *spec_ptr;
  Raylet* r = raylet(target);
  if (r == nullptr) {
    return Status::NotFound("no raylet on " + target.ToString());
  }
  if (r->dead() || cluster_->fabric().IsDead(target)) {
    return Status::Unavailable("raylet on " + target.ToString() + " is dead");
  }

  // Dispatch control message from the scheduler (head) to the target; inline
  // argument bytes ride along.
  int64_t inline_bytes = 64;
  for (const TaskArg& arg : spec.args) {
    if (!arg.is_ref()) {
      inline_bytes += static_cast<int64_t>(arg.value().size());
    }
  }
  ControlMessage(cluster_->head(), target, inline_bytes);

  // Push protocol: register the chosen consumer node with the owner of every
  // ref argument; anything already ready is pushed right now so the value is
  // local before the task starts. With the batcher wired the already-ready
  // pushes of one dispatch coalesce per owner (a k-ref fan-in costs one
  // owner->target message instead of k) and flush before the task is
  // enqueued, preserving the value-local-before-start invariant.
  if (options_.futures == FutureProtocol::kPush) {
    bool batched_any = false;
    for (const TaskArg& arg : spec.args) {
      if (!arg.is_ref()) {
        continue;
      }
      const ObjectRef& ref = arg.ref();
      ControlMessage(cluster_->head(), ref.owner);
      auto ready_now = ownership(ref.owner)
                           .RegisterConsumer(ref.id, ConsumerRegistration{
                                                         spec.id, target,
                                                         cluster_->node(target)->device.id});
      if (ready_now.ok() && *ready_now) {
        if (push_batcher_ != nullptr) {
          push_batcher_->Add(ref.owner, PushEntry{ref.id, spec.id, target});
          batched_any = true;
        } else {
          // One owner->consumer message per pushed object (same cost model
          // as the completion-path push); cache_locally=true lands the
          // value in the consumer's store, making the consume-side read
          // local.
          ControlMessage(ref.owner, target);
          (void)cluster_->cache().Get(ref.id, target, /*cache_locally=*/true);
          pushes_->Increment();
        }
      }
    }
    if (batched_any) {
      push_batcher_->FlushAll();
    }
  }

  return r->Enqueue(spec_ptr);
}

Result<Buffer> SkadiRuntime::ResolveArg(const ObjectRef& ref, const TaskSpec& spec,
                                        NodeId at) {
  // Fast path: the value is already in this node's store (pushed, or a
  // lucky locality placement).
  LocalObjectStore* store = cluster_->cache().StoreOf(at);
  if (store != nullptr && store->Contains(ref.id)) {
    resolve_local_hits_->Increment();
    return cluster_->cache().Get(ref.id, at);
  }

  if (options_.futures == FutureProtocol::kPush) {
    // Push mode should have delivered the value before dispatch; reaching
    // here means the object lives remotely without a local copy (e.g. a
    // replica eviction). Fall through to a pull-style fetch.
    push_misses_->Increment();
  }

  // Pull protocol: a costed control round trip to the owner's ownership
  // table, then an on-demand data transfer. The wait itself is an arg-mode
  // GetOp (lost objects retry on a wheel timer, not a sleep loop); this
  // worker thread parks on the completion Event, which the producer's
  // thread sets when it publishes the object.
  ControlMessage(at, ref.owner);
  pull_resolutions_->Increment();

  const int64_t timeout_ms = options_.default_get_timeout_ms;
  auto ev = std::make_shared<Event>();
  auto result = std::make_shared<Result<Buffer>>(
      Status::Internal("argument resolution never completed"));
  auto op = std::make_shared<GetOp>(
      this, GetOp::Mode::kArgResolve, ref, at, timeout_ms,
      [ev, result](Result<Buffer> r) {
        *result = std::move(r);
        ev->Set();
      });
  op->task_ = spec.id;
  op->Start();
  // Belt-and-suspenders bound: the deadline sweep fires first in every
  // non-shutdown schedule; the slack covers a stopped reactor.
  cluster_->fabric().reactor().BlockOn(
      *ev, NowNanos() + (timeout_ms + 100) * 1'000'000);
  if (!ev->is_set()) {
    return Status::DeadlineExceeded("object " + ref.id.ToString() +
                                    " still pending after " +
                                    std::to_string(timeout_ms) + "ms");
  }
  return std::move(*result);
}

bool SkadiRuntime::PinArg(const ObjectRef& ref, NodeId at) {
  // Best effort: the argument may have been resolved from a remote replica
  // without a local copy, in which case there is no entry to pin. The
  // resolved Buffer still aliases refcounted storage, so the task's bytes
  // are safe regardless; pinning only protects store residency.
  LocalObjectStore* store = cluster_->cache().StoreOf(at);
  return store != nullptr && store->Pin(ref.id).ok();
}

void SkadiRuntime::UnpinArg(const ObjectRef& ref, NodeId at) {
  LocalObjectStore* store = cluster_->cache().StoreOf(at);
  if (store != nullptr) {
    // The entry may have been deleted while pinned (explicit Delete ignores
    // pins); that is fine — the Buffer keeps the bytes alive.
    (void)store->Unpin(ref.id);
  }
}

Status SkadiRuntime::CompleteTask(const TaskSpec& spec, std::vector<Buffer> outputs,
                                  NodeId at) {
  // Runs on the executing raylet's worker under RunTask's ScopedContext, so
  // this span sits inside the task's run span.
  trace::TraceSpan complete_span(names::kSpanRuntimeCompleteTask);
  // Claim the attempt before publishing anything. MarkReady runs the
  // outputs' waiters on this thread before it returns, and one of them may
  // kill this node: a claimed task is no longer in flight, so that failover
  // cannot re-dispatch it. A stale attempt publishes nothing; the raylet
  // reports it aborted, and the attempt it was failed over to owns the
  // outputs.
  if (!scheduler_->ClaimTask(spec.id, at)) {
    return Status::Aborted("attempt of task " + spec.id.ToString() + " on " +
                           at.ToString() + " was failed over");
  }
  Status published = PublishOutputs(spec, std::move(outputs), at);
  if (published.ok()) {
    tasks_completed_->Increment();
  } else if (published.code() != StatusCode::kAborted) {
    // The claim is this attempt's: its failure is published here, and the
    // raylet's FailTask, finding no claim, publishes nothing more.
    PublishFailure(spec, published);
  }
  scheduler_->ReleaseSlot(at);
  return published;
}

Status SkadiRuntime::PublishOutputs(const TaskSpec& spec, std::vector<Buffer> outputs,
                                    NodeId at) {
  const ClusterNode* node = cluster_->node(at);
  OwnershipTable& table = ownership(spec.owner);

  std::vector<ObjectId> ready;
  ready.reserve(outputs.size());
  // Outputs [0, published) were stored and marked ready at `at`. The node
  // may die at any point here, e.g. killed by a waiter MarkReady just ran;
  // every MarkReady is followed by a check, and KillNode marks the fabric
  // dead before it sweeps the owners' tables.
  size_t published = outputs.size();
  bool sole_copy_published = false;  // some output's only copy is on `at`
  for (size_t i = 0; i < outputs.size(); ++i) {
    if (cluster_->fabric().IsDead(at)) {
      published = i;
      break;
    }
    ObjectId oid = spec.returns[i];
    int64_t size = static_cast<int64_t>(outputs[i].size());

    Status put = cluster_->cache().Put(oid, std::move(outputs[i]), at);
    if (!put.ok() && put.code() != StatusCode::kAlreadyExists) {
      return put;
    }

    // Record caching-layer replicas BEFORE declaring the object ready, so a
    // failure observed right after MarkReady already sees every copy (loss
    // is only declared when the last copy dies).
    bool replicated = false;
    for (NodeId replica : cluster_->cache().Locations(oid)) {
      if (replica != at) {
        // Best-effort replica bookkeeping: the record may already be gone.
        (void)table.AddLocation(oid, replica);
        replicated = true;
      }
    }
    // Notify the owner (device-aware: record where the value physically is).
    ControlMessage(at, spec.owner);
    auto consumers = table.MarkReady(oid, at, size, node->device.id,
                                     /*device_handle=*/node->device.id.value());
    if (consumers.status().code() == StatusCode::kNotFound) {
      // The driver released this return while the task ran (or before a
      // lineage re-execution): nobody can read it, so drop the stored copy
      // and still publish the task's other returns.
      (void)cluster_->cache().Delete(oid);
      continue;
    }
    if (!consumers.ok()) {
      return consumers.status();
    }
    sole_copy_published = sole_copy_published || !replicated;

    // Push protocol: proactively ship the value to registered consumers —
    // batched per destination when the batcher is wired, one message per
    // consumer otherwise.
    if (options_.futures == FutureProtocol::kPush) {
      for (const ConsumerRegistration& consumer : *consumers) {
        if (push_batcher_ != nullptr) {
          push_batcher_->Add(spec.owner, PushEntry{oid, consumer.task, consumer.node});
        } else {
          ControlMessage(spec.owner, consumer.node);
          (void)cluster_->cache().Get(oid, consumer.node, /*cache_locally=*/true);
          pushes_->Increment();
        }
      }
    }
    ready.push_back(oid);
  }

  // Deliver every batched push before releasing dependents, so a consumer
  // dispatched by OnObjectReady finds its argument already local. Pushes for
  // the same destination across ALL of this task's outputs ride one message.
  if (push_batcher_ != nullptr) {
    push_batcher_->FlushAll();
  }
  for (ObjectId oid : ready) {
    // Unblock dependents.
    ControlMessage(spec.owner, cluster_->head());
    scheduler_->OnObjectReady(oid);
  }
  if (published < outputs.size() || cluster_->fabric().IsDead(at)) {
    AbandonOutputs(spec, published, sole_copy_published, at);
    return Status::Aborted("node " + at.ToString() + " died while task " +
                           spec.id.ToString() + " published its outputs");
  }
  return Status::Ok();
}

void SkadiRuntime::AbandonOutputs(const TaskSpec& spec, size_t published,
                                  bool sole_copy_published, NodeId at) {
  OwnershipTable& table = ownership(spec.owner);
  std::vector<ObjectId> lost;
  for (size_t i = 0; i < published; ++i) {
    // KillNode's sweep missed this copy if it ran before MarkReady. Of the
    // sweep and this drop, exactly one loses the object.
    if (table.DropLocation(spec.returns[i], at)) {
      lost.push_back(spec.returns[i]);
    }
  }
  // A published output whose only copy was on `at` is now lost, here or by
  // the sweep, and its lineage recovery re-runs the task, which produces the
  // unpublished outputs too. Otherwise the claim hid this attempt from
  // failover and nothing else produces them: lose them, so waiters see
  // DATA_LOSS or lineage re-produces them, instead of waiting out their
  // deadlines.
  if (!(sole_copy_published && options_.recovery == RecoveryMode::kLineage)) {
    for (size_t i = published; i < spec.returns.size(); ++i) {
      if (table.MarkLost(spec.returns[i]).ok()) {  // record may be released
        lost.push_back(spec.returns[i]);
      }
    }
  }
  OnObjectsLost(lost);
}

void SkadiRuntime::OnObjectsLost(const std::vector<ObjectId>& lost) {
  if (options_.recovery == RecoveryMode::kLineage) {
    RecoverLostObjects(lost);
  } else {
    // No recovery: unblock parked dependents so they fail fast on resolve.
    for (ObjectId oid : lost) {
      scheduler_->OnObjectReady(oid);
    }
  }
}

void SkadiRuntime::PublishFailure(const TaskSpec& spec, const Status& status) {
  // Terminal: a Get or argument resolution on an output completes at once
  // with `status` (no lineage retry), and parked dependents are released to
  // fail with it instead of hanging the job.
  for (ObjectId oid : spec.returns) {
    (void)ownership(spec.owner).MarkLost(oid, status);  // record may be released
    scheduler_->OnObjectReady(oid);
  }
}

void SkadiRuntime::FailTask(const TaskSpec& spec, const Status& status, NodeId at) {
  tasks_failed_->Increment();
  SKADI_LOG(kInfo) << "task " << spec.id << " (" << spec.function
                   << ") failed: " << status.ToString();
  if (status.code() == StatusCode::kAborted ||
      (at.valid() && cluster_->fabric().IsDead(at))) {
    // The attempt died with its node (a failure on a dead node, such as a
    // fetch that found its source gone, is that death too). Hand the spec
    // back to the scheduler, which re-dispatches it unless OnNodeFailure
    // already failed it over — both paths arbitrate on the same in-flight
    // record, so exactly one live attempt survives no matter which side
    // observes the death first.
    scheduler_->OnTaskAborted(spec, at);
    return;
  }
  if (!at.valid()) {
    PublishFailure(spec, status);  // never reached a node
    return;
  }
  // Every dispatched attempt has an in-flight record. Without the claim the
  // attempt is stale: it was failed over and the live attempt owns the
  // outputs, or CompleteTask claimed it and already published the failure.
  // The claim is taken before MarkLost runs the waiters, as in CompleteTask.
  if (!scheduler_->ClaimTask(spec.id, at)) {
    return;
  }
  PublishFailure(spec, status);
  scheduler_->ReleaseSlot(at);
}

Result<Buffer> SkadiRuntime::Get(const ObjectRef& ref, int64_t timeout_ms) {
  if (timeout_ms < 0) {
    timeout_ms = options_.default_get_timeout_ms;
  }
  auto ev = std::make_shared<Event>();
  auto result =
      std::make_shared<Result<Buffer>>(Status::Internal("Get never completed"));
  GetAsync(ref,
           [ev, result](Result<Buffer> r) {
             *result = std::move(r);
             ev->Set();
           },
           timeout_ms);
  // See ResolveArg for the bounded-BlockOn rationale.
  cluster_->fabric().reactor().BlockOn(*ev,
                                       NowNanos() + (timeout_ms + 100) * 1'000'000);
  if (!ev->is_set()) {
    return Status::DeadlineExceeded("Get(" + ref.ToString() + ") timed out");
  }
  return std::move(*result);
}

Result<std::vector<Buffer>> SkadiRuntime::GetAll(const std::vector<ObjectRef>& refs,
                                                 int64_t timeout_ms) {
  if (timeout_ms < 0) {
    timeout_ms = options_.default_get_timeout_ms;
  }
  if (refs.empty()) {
    return std::vector<Buffer>();
  }
  // Fan out one GetOp per ref and park once on a shared countdown: N
  // concurrent resolutions, one blocking wait. Sinks gathering many
  // partitions resolve in resolution order rather than serially in index
  // order (the old Get-in-a-loop shim).
  struct GatherState {
    explicit GatherState(size_t n)
        : results(n, Result<Buffer>(Status::Internal("GetAll never completed"))),
          remaining(n) {}
    std::vector<Result<Buffer>> results;
    std::atomic<size_t> remaining;
    Event done;
  };
  auto state = std::make_shared<GatherState>(refs.size());
  for (size_t i = 0; i < refs.size(); ++i) {
    GetAsync(refs[i],
             [state, i](Result<Buffer> r) {
               state->results[i] = std::move(r);
               if (state->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
                 state->done.Set();
               }
             },
             timeout_ms);
  }
  // See ResolveArg for the bounded-BlockOn rationale.
  cluster_->fabric().reactor().BlockOn(
      state->done, NowNanos() + (timeout_ms + 100) * 1'000'000);
  if (!state->done.is_set()) {
    return Status::DeadlineExceeded("GetAll(" + std::to_string(refs.size()) +
                                    " refs) timed out");
  }
  std::vector<Buffer> values;
  values.reserve(refs.size());
  for (Result<Buffer>& r : state->results) {
    if (!r.ok()) {
      return r.status();
    }
    values.push_back(std::move(*r));
  }
  return values;
}

void SkadiRuntime::GetAsync(const ObjectRef& ref,
                            std::function<void(Result<Buffer>)> done,
                            int64_t timeout_ms) {
  if (timeout_ms < 0) {
    timeout_ms = options_.default_get_timeout_ms;
  }
  auto op = std::make_shared<GetOp>(this, GetOp::Mode::kDriverGet, ref,
                                    cluster_->head(), timeout_ms, std::move(done));
  op->Start();
}

namespace {

// Shared countdown behind SkadiRuntime::Wait: one slot per ref, settled once
// each by that ref's watcher chain. The first failure completes the wait.
struct WaitState {
  explicit WaitState(size_t n) : remaining(n) {}

  void Settle(const Status& status) {
    if (!status.ok()) {
      {
        MutexLock lock(mu);
        if (error.ok()) {
          error = status;
        }
      }
      done.Set();
      return;
    }
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      done.Set();
    }
  }

  std::atomic<size_t> remaining;
  Mutex mu;
  Status error GUARDED_BY(mu);
  Event done;
};

// Probes `id` and, while it is pending, re-arms a watcher that probes again
// when it leaves kPending (lineage may re-arm a lost object before the
// watcher probes). Settles `state` once the object is not pending.
// The watcher runs inside a table call, so `table` is alive when it does.
void WatchUntilSettled(const OwnershipTable* table, ObjectId id,
                       const std::shared_ptr<WaitState>& state) {
  Result<ObjectState> probed =
      table->StateOrWatch(id, [table, id, state] { WatchUntilSettled(table, id, state); });
  if (probed.ok() && *probed == ObjectState::kPending) {
    return;
  }
  state->Settle(probed.status());
}

}  // namespace

Status SkadiRuntime::Wait(const std::vector<ObjectRef>& refs, int64_t timeout_ms) {
  if (timeout_ms < 0) {
    timeout_ms = options_.default_get_timeout_ms;
  }
  if (refs.empty()) {
    return Status::Ok();
  }
  // One watcher chain per ref and one park for the whole set, as in GetAll:
  // a graph's sinks settle in any order and wake this thread once.
  auto state = std::make_shared<WaitState>(refs.size());
  for (const ObjectRef& ref : refs) {
    WatchUntilSettled(&ownership(ref.owner), ref.id, state);
  }
  cluster_->fabric().reactor().BlockOn(state->done,
                                       NowNanos() + timeout_ms * 1'000'000);
  if (!state->done.is_set()) {
    return Status::DeadlineExceeded("Wait timed out");
  }
  MutexLock lock(state->mu);
  return state->error;
}

Status SkadiRuntime::Release(const ObjectRef& ref) {
  auto removed = ownership(ref.owner).DecRef(ref.id);
  if (!removed.ok()) {
    return removed.status();
  }
  if (*removed) {
    (void)cluster_->cache().Delete(ref.id);  // best effort; may be uncached
    TaskSpecPtr dropped;  // destroyed (with its inline args) after the unlock
    MutexLock lock(mu_);
    auto it = object_owner_.find(ref.id);
    if (it == object_owner_.end()) {
      return Status::Ok();
    }
    const TaskId producer = it->second.producer;
    object_owner_.erase(it);
    auto lit = lineage_.find(producer);
    if (lit != lineage_.end() && --lit->second.live_returns == 0) {
      dropped = std::move(lit->second.spec);
      lineage_.erase(lit);
      lineage_entries_->Set(static_cast<int64_t>(lineage_.size()));
    }
  }
  return Status::Ok();
}

Result<ActorId> SkadiRuntime::CreateActor(NodeId node, std::shared_ptr<void> initial_state) {
  Raylet* r = raylet(node);
  if (r == nullptr) {
    return Status::NotFound("no raylet on " + node.ToString());
  }
  ActorId actor = ActorId::Next();
  ControlMessage(cluster_->head(), node);
  SKADI_RETURN_IF_ERROR(r->CreateActor(actor, std::move(initial_state)));
  MutexLock lock(mu_);
  actor_homes_[actor] = node;
  return actor;
}

Result<std::vector<ObjectRef>> SkadiRuntime::SubmitActorTask(ActorId actor, TaskSpec spec) {
  NodeId home;
  {
    MutexLock lock(mu_);
    auto it = actor_homes_.find(actor);
    if (it == actor_homes_.end()) {
      return Status::NotFound("actor " + actor.ToString() + " unknown");
    }
    home = it->second;
  }
  spec.actor = actor;
  spec.pinned_node = home;
  return Submit(std::move(spec));
}

Status SkadiRuntime::KillNode(NodeId node) {
  Raylet* r = raylet(node);
  if (r == nullptr) {
    return Status::NotFound("no raylet on " + node.ToString());
  }
  SKADI_LOG(kInfo) << "killing node " << node;
  nodes_killed_->Increment();

  // 1. Stop the node: raylet rejects work, fabric rejects messages.
  r->Kill();
  cluster_->fabric().MarkDead(node);

  // 2. Its store contents vanish.
  cluster_->cache().OnNodeFailure(node);

  // 3. Owners learn which objects lost their last copy.
  std::vector<ObjectId> lost;
  for (auto& [owner, table] : ownership_) {
    std::vector<ObjectId> l = table->OnNodeFailure(node);
    lost.insert(lost.end(), l.begin(), l.end());
  }

  // 4. Re-produce lost objects via lineage (before re-dispatching, so
  // re-dispatched consumers park on the re-armed objects instead of reading
  // kLost).
  OnObjectsLost(lost);

  // 5. Fail over in-flight tasks of the dead node.
  scheduler_->OnNodeFailure(node);
  return Status::Ok();
}

void SkadiRuntime::RecoverLostObjects(const std::vector<ObjectId>& lost) {
  // Transitive closure over lineage: a lost object's producing task may
  // consume other lost objects; re-arm and re-submit each producing task
  // once. Argument waits inside workers order the re-execution correctly.
  std::vector<ObjectId> frontier = lost;
  std::unordered_map<TaskId, TaskSpecPtr> to_resubmit;

  while (!frontier.empty()) {
    ObjectId oid = frontier.back();
    frontier.pop_back();

    TaskSpecPtr spec;
    {
      MutexLock lock(mu_);
      auto oit = object_owner_.find(oid);
      if (oit == object_owner_.end()) {
        continue;  // released: nothing left to recover it for
      }
      auto lit = lineage_.find(oit->second.producer);
      if (lit != lineage_.end()) {
        spec = lit->second.spec;
      }
    }
    if (spec == nullptr) {
      // Driver Put (no producer), so no lineage: leave kLost.
      unrecoverable_objects_->Increment();
      continue;
    }
    if (to_resubmit.count(spec->id) > 0) {
      continue;
    }

    // Re-arm every lost return of this producer.
    for (ObjectId ret : spec->returns) {
      // Only returns still recorded as lost re-arm; others were re-created.
      (void)ownership(spec->owner).MarkPendingForReconstruction(ret, spec->id);
    }

    // Any lost arguments must be re-produced first; enqueue them too.
    for (const TaskArg& arg : spec->args) {
      if (!arg.is_ref()) {
        continue;
      }
      auto reply = ownership(arg.ref().owner).Resolve(arg.ref().id);
      if (reply.ok() && reply->state == ObjectState::kLost) {
        frontier.push_back(arg.ref().id);
      }
    }
    to_resubmit.emplace(spec->id, std::move(spec));
  }

  for (auto& [task, spec] : to_resubmit) {
    lineage_reexecutions_->Increment();
    // The spec is immutable, so the re-execution shares the lineage copy.
    Status resubmitted = scheduler_->Submit(spec);
    if (!resubmitted.ok()) {
      SKADI_LOG(kWarn) << "lineage re-execution of " << task
                       << " failed: " << resubmitted.ToString();
      unrecoverable_objects_->Increment();
    }
  }
}

int64_t SkadiRuntime::control_hops() const { return control_hops_->value(); }

}  // namespace skadi
