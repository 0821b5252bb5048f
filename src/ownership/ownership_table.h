// The heterogeneity-aware ownership table (Figure 3, item 2).
//
// Ray's ownership table maps each object to [ID, Owner, Value, ...]. Skadi
// extends every row with [Locations, DeviceID, DeviceHandle] so objects whose
// value lives in device HBM behind a DPU are first-class: the raylet on the
// DPU "also manages memory on its companion devices" through the recorded
// device handle.
//
// One OwnershipTable instance exists per owner node; the runtime exposes it
// to remote nodes through a fabric service, so every lookup/notification from
// another node is a counted, costed control message.
//
// Concurrency (DESIGN.md §13): the table is hash-partitioned by ObjectId into
// `num_shards` shards, each with its own mutex, records map, and watcher
// list. Single-object operations (StateOrWatch, MarkReady, DecRef, ...) touch
// only their shard; cross-shard operations (OnNodeFailure, size,
// ObjectsInState) iterate the shards one at a time without any global lock,
// so they see a per-shard-consistent (not globally atomic) snapshot — which
// is all their callers need. `num_shards == 1` degenerates to the old
// single-lock table and serves as the bench baseline.
#ifndef SRC_OWNERSHIP_OWNERSHIP_TABLE_H_
#define SRC_OWNERSHIP_OWNERSHIP_TABLE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/common/event.h"
#include "src/common/id.h"
#include "src/common/metrics.h"
#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/ownership/object_ref.h"

namespace skadi {

enum class ObjectState {
  kPending,  // producing task not finished
  kReady,    // value sealed somewhere (locations non-empty)
  kLost,     // every copy vanished (node failures)
};

// Where a consumer task will run; registered so the push protocol knows
// where to send the value the moment it is produced.
struct ConsumerRegistration {
  TaskId task;
  NodeId node;
  DeviceId device;
};

struct OwnershipRecord {
  ObjectId id;
  NodeId owner;
  ObjectState state = ObjectState::kPending;
  int64_t size_bytes = 0;
  // Nodes currently holding a sealed copy (mirrors the caching layer).
  std::set<NodeId> locations;
  // Device-awareness extension: the device whose memory holds the primary
  // copy, and an opaque handle for its communication driver.
  DeviceId device;
  uint64_t device_handle = 0;
  // Lineage: the task whose re-execution reproduces this object.
  TaskId produced_by;
  // Reference count (task args in flight + user handles).
  int64_t ref_count = 1;
  // Consumers to push the value to when it becomes ready.
  std::vector<ConsumerRegistration> pending_consumers;
  // Why a kLost object will never be produced (MarkLost); Ok when it was
  // lost with its copies and lineage may still re-produce it.
  Status failure;
};

class OwnershipTable {
 public:
  // Default shard count: enough to spread MarkReady/StateOrWatch storms from
  // a handful of driver + reactor threads without bloating small tables.
  static constexpr int kDefaultShards = 8;

  explicit OwnershipTable(NodeId owner, int num_shards = kDefaultShards);

  NodeId owner() const { return owner_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }

  // Wires watcher telemetry (ownership.* registrations/fires counters, the
  // live-watcher gauge, and the shard-lock contention counter). Wire before
  // concurrent use; not synchronized.
  void set_metrics(MetricsRegistry* registry);

  // Creates a pending record (called at task submission for each return).
  Status RegisterObject(ObjectId id, TaskId produced_by);

  // Marks the object ready at `location`; wakes waiters and returns the
  // consumers registered for push-mode resolution (caller pushes to them).
  Result<std::vector<ConsumerRegistration>> MarkReady(ObjectId id, NodeId location,
                                                      int64_t size_bytes,
                                                      DeviceId device = DeviceId(),
                                                      uint64_t device_handle = 0);

  // Records an additional replica location for a ready object.
  Status AddLocation(ObjectId id, NodeId location);

  // Drops `node` from every record's locations; records whose last location
  // vanished flip back to kLost. Returns the ids that became lost. Iterates
  // the shards one at a time (no global lock).
  std::vector<ObjectId> OnNodeFailure(NodeId node);
  // OnNodeFailure for one record: drops `node` from its locations and returns
  // true iff that flipped it from kReady to kLost. Concurrent with a sweep for
  // the same node, exactly one of the two loses the object.
  bool DropLocation(ObjectId id, NodeId node);

  // Explicitly marks an object lost. A non-Ok `failure` says it is lost for
  // good (its producing task failed terminally): StateOrWatch then
  // returns `failure` instead of kLost, so waiters complete
  // with the task's status rather than retrying recovery. MarkReady and
  // MarkPendingForReconstruction clear it.
  Status MarkLost(ObjectId id, Status failure = Status::Ok());

  // Re-arms a lost record as pending for lineage re-execution.
  Status MarkPendingForReconstruction(ObjectId id, TaskId new_task);

  // Registers a consumer for push-based resolution. If the object is already
  // ready the caller should push immediately; indicated by the return value.
  Result<bool> RegisterConsumer(ObjectId id, ConsumerRegistration consumer);

  // Pull protocol: current state + a location to fetch from (nullopt while
  // pending). This is the RPC the consumer-side raylet issues to the owner.
  struct ResolveReply {
    ObjectState state = ObjectState::kPending;
    std::optional<NodeId> location;
    int64_t size_bytes = 0;
    DeviceId device;
    uint64_t device_handle = 0;
  };
  Result<ResolveReply> Resolve(ObjectId id) const;

  // Non-blocking probe + watch: returns the current state (or the failure
  // status recorded by MarkLost), and — only when that state is kPending —
  // registers `watcher` to fire once the object next leaves kPending (ready,
  // lost, or released; re-probe to learn which). For any other state the
  // watcher is dropped unrun. Watchers fire at most once, inline on the
  // thread that flips the state (MarkReady, MarkLost, DecRef,
  // OnNodeFailure), after the shard lock is released and before that call
  // returns, so a watcher may call back into the table. No thread ever
  // parks on the table: waiters are watchers.
  Result<ObjectState> StateOrWatch(ObjectId id, Continuation watcher) const;

  // Lineage lookup for recovery.
  Result<TaskId> ProducedBy(ObjectId id) const;

  // Reference counting. DecRef returns true when the count hit zero and the
  // record was removed (the caller should then delete the value from the
  // caching layer).
  Status IncRef(ObjectId id);
  Result<bool> DecRef(ObjectId id);

  bool Contains(ObjectId id) const;
  size_t size() const;
  std::vector<ObjectId> ObjectsInState(ObjectState state) const;

 private:
  // One hash partition of the table. The shard mutex is terminal: nothing
  // else is acquired while it is held (watchers fire after unlock).
  struct Shard {
    mutable Mutex mu;
    std::unordered_map<ObjectId, OwnershipRecord> records GUARDED_BY(mu);
    // Watch continuations, keyed by object; entries exist only while the
    // object is kPending (side map so const probes can register watchers).
    mutable std::unordered_map<ObjectId, std::vector<Continuation>> watchers
        GUARDED_BY(mu);
  };

  Shard& shard(ObjectId id) const {
    return *shards_[std::hash<ObjectId>()(id) % shards_.size()];
  }

  // Detaches the watchers registered for `id` in `s`, if any.
  std::vector<Continuation> TakeWatchersLocked(Shard& s, ObjectId id) const
      REQUIRES(s.mu);
  // Runs detached watchers inline on the calling thread. Never called with a
  // shard mutex held.
  void FireWatchers(std::vector<Continuation> watchers) const;

  NodeId owner_;
  // Cached handles (null until set_metrics); the registry outlives the table.
  Counter* watch_registrations_ = nullptr;
  Counter* watcher_fires_ = nullptr;
  Counter* shard_lock_waits_ = nullptr;
  Gauge* watchers_gauge_ = nullptr;
  // Shards are heap-allocated so the table stays movable-free and shard
  // addresses are stable for the lifetime of the table. Immutable after
  // construction (only the shard *contents* mutate).
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace skadi

#endif  // SRC_OWNERSHIP_OWNERSHIP_TABLE_H_
