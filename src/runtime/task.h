// Task model of the stateful serverless runtime: the "universal dynamic task
// execution API" (§1) on which data-parallel, task-parallel, and MPMD
// patterns are built. Functions exchange data by value (inline Buffer) or by
// reference (ObjectRef futures), exactly like the pseudo-code in Figure 2.
#ifndef SRC_RUNTIME_TASK_H_
#define SRC_RUNTIME_TASK_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/id.h"
#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/common/trace.h"
#include "src/hw/device.h"
#include "src/ownership/object_ref.h"

namespace skadi {

class SkadiRuntime;

// One task argument: an inline value or a future.
//
// Binding is zero-copy throughout: a Value arg carries a Buffer handle
// (refcounted storage, no payload copy), and a Ref arg resolves to a Buffer
// aliasing the object store entry's storage. The raylet pins ref-args in the
// local store for the duration of the body (Raylet::Callbacks::pin_arg);
// even without a pin, the resolved handle keeps the bytes alive across
// eviction — eviction drops the store entry, not the shared storage.
class TaskArg {
 public:
  static TaskArg Value(Buffer value) {
    TaskArg arg;
    arg.value_ = std::move(value);
    return arg;
  }
  static TaskArg Ref(ObjectRef ref) {
    TaskArg arg;
    arg.ref_ = ref;
    return arg;
  }

  bool is_ref() const { return ref_.has_value(); }
  const ObjectRef& ref() const { return *ref_; }
  const Buffer& value() const { return *value_; }

 private:
  std::optional<Buffer> value_;
  std::optional<ObjectRef> ref_;
};

// Execution-time context handed to the function body.
struct TaskContext {
  TaskId task;
  JobId job;
  NodeId node;
  DeviceSpec device;
  SkadiRuntime* runtime = nullptr;
  // Intra-task compute budget: how many threads the task body may hand to
  // morsel-parallel kernels (ComputeOptions::num_threads). Set by the raylet
  // from its worker-pool width; deliberately not a live load measure so task
  // results stay deterministic run to run.
  int compute_threads = 1;
  // Non-null for actor tasks: the actor's mutable state cell.
  std::shared_ptr<void>* actor_state = nullptr;
  // The executing task's span (child of the submit span); bodies that start
  // their own spans while the raylet's ScopedContext is installed parent
  // here automatically, this field is for explicit cross-hop hand-offs.
  trace::Context trace_ctx;
};

// A task body: consumes materialized argument buffers, returns output
// buffers (must produce exactly `num_returns`).
using TaskFunction =
    std::function<Result<std::vector<Buffer>>(TaskContext&, std::vector<Buffer>&)>;

// The full description of one task invocation. Specs are kept by the driver
// as lineage: re-submitting a spec re-produces its outputs (§2.1 failure
// handling option 1).
struct TaskSpec {
  TaskId id;
  JobId job;
  // Readable name for logs and errors. A spec that arrives at Submit with no
  // body names a registered process-lifetime function, which Submit resolves
  // into `body` once; the raylet only ever runs `body`.
  std::string function;
  // The code this task runs. Per-call code (a lowered vertex, an ML or
  // streaming step) builds its closure here directly, so nothing is
  // registered per query and lineage re-execution needs no name table.
  std::shared_ptr<const TaskFunction> body;
  std::vector<TaskArg> args;
  int num_returns = 1;
  // Pre-allocated output ids (the ownership protocol: the submitting owner
  // creates the ids before the task runs).
  std::vector<ObjectId> returns;
  // Owner node of the returned objects (normally the driver).
  NodeId owner;

  // Placement inputs.
  OpClass op_class = OpClass::kGeneric;
  // Restrict to a device kind (backend selection from graph lowering);
  // nullopt = any compute node.
  std::optional<DeviceKind> required_device;
  // Hard pin (actor tasks, explicit placement).
  std::optional<NodeId> pinned_node;

  // Gang scheduling (SPMD sub-graphs, §2.3): members of the same group are
  // dispatched atomically once `gang_size` of them are submitted and slots
  // exist for all.
  std::string gang_group;
  int gang_size = 0;

  // Actor task: runs serially against the actor's state on its home node.
  ActorId actor;

  // Modelled compute time override; <0 means "use the cost model with the
  // actual input bytes". Microbenchmark ops use this for exact durations.
  int64_t fixed_compute_nanos = -1;

  // Causal trace coordinates of the submitting span (DESIGN.md §12).
  // Stamped by SkadiRuntime::Submit, adopted by Raylet::RunTask — the leg of
  // span propagation that crosses the scheduler and fabric, so a task's
  // execution parents under its submission even on another node. Invalid
  // (all-zero) when tracing is off, which every span site treats as "no
  // parent".
  trace::Context trace_ctx;
};

// The one immutable copy of a submitted task. SkadiRuntime::Submit builds it
// once; lineage, the scheduler's queues and in-flight records, and the
// raylet's work queue all share it (DESIGN.md §5).
using TaskSpecPtr = std::shared_ptr<const TaskSpec>;

// Process-wide registry mapping names to the process-lifetime functions a
// caller may submit by name. Registered once at startup (all emulated nodes
// share the binary, as containers would share an image); per-call code puts
// its body on the spec instead.
class FunctionRegistry {
 public:
  Status Register(const std::string& name, TaskFunction fn) {
    MutexLock lock(mu_);
    auto [it, inserted] =
        functions_.emplace(name, std::make_shared<const TaskFunction>(std::move(fn)));
    if (!inserted) {
      return Status::AlreadyExists("function '" + name + "' already registered");
    }
    return Status::Ok();
  }

  Result<std::shared_ptr<const TaskFunction>> Lookup(const std::string& name) const {
    MutexLock lock(mu_);
    auto it = functions_.find(name);
    if (it == functions_.end()) {
      return Status::NotFound("function '" + name + "' not registered");
    }
    return it->second;
  }

 private:
  mutable Mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const TaskFunction>> functions_
      GUARDED_BY(mu_);
};

}  // namespace skadi

#endif  // SRC_RUNTIME_TASK_H_
