// The emulated data-center fabric.
//
// Every cross-node interaction in the reproduction — control-plane RPCs
// between raylets, ownership-table lookups, object transfers, durable-store
// reads — goes through one Fabric instance, which:
//   1. charges modelled time (topology latency + size/bandwidth) to the
//      cluster VirtualClock, optionally realizing it as actual delay, and
//   2. increments deterministic per-link-class counters (messages, bytes)
//      that the experiment harness reports.
//
// RPCs are synchronous: the handler runs on the caller's thread after the
// request cost is charged, and the response cost is charged on return.
// Concurrency comes from the runtime's many worker threads; handlers must be
// thread-safe.
#ifndef SRC_NET_FABRIC_H_
#define SRC_NET_FABRIC_H_

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/clock.h"
#include "src/common/id.h"
#include "src/common/metrics.h"
#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/hw/topology.h"
#include "src/net/reactor.h"

namespace skadi {

class Fabric {
 public:
  using Handler = std::function<Result<Buffer>(const Buffer& request)>;

  explicit Fabric(std::shared_ptr<Topology> topology);
  ~Fabric();

  Topology& topology() { return *topology_; }
  VirtualClock& clock() { return clock_; }
  MetricsRegistry& metrics() { return metrics_; }

  // The cluster's control-plane event loop: ownership-readiness
  // continuations, single-flight completions, Get timeouts, and modelled
  // fabric delays all resolve here instead of parking OS threads, and the
  // runtime's autoscaler ticks on its timer wheel. One driver thread is
  // started at construction; Start/Shrink adjust it.
  Reactor& reactor() { return reactor_; }

  // Fraction of modelled time realized as actual delay (see VirtualClock).
  void set_realize_fraction(double fraction) { clock_.set_realize_fraction(fraction); }

  // Registers the handler for `service` on `node`. One handler per
  // (node, service) pair; handlers are never removed.
  Status RegisterHandler(NodeId node, std::string_view service, Handler handler);

  // Synchronous RPC from src to dst. Charges request + response transfer
  // cost and counts one control round trip. Fails kUnavailable if the target
  // node is dead, kNotFound if it has no such service.
  Result<Buffer> Call(NodeId src, NodeId dst, std::string_view service, Buffer request);

  // One-way message: charges one transfer, runs the handler, discards the
  // reply. Used by the push-based future-resolution protocol.
  Status Send(NodeId src, NodeId dst, std::string_view service, Buffer request);

  // Bulk data-plane transfer accounting (no handler involved): charges the
  // modelled time for `bytes` between the two nodes and counts it. Returns
  // the charged nanoseconds. Never blocks: when a realize fraction is
  // configured, the realized delay lands on the reactor's timer wheel (see
  // TransferBytesAsync) instead of stalling the calling thread.
  int64_t TransferBytes(NodeId src, NodeId dst, int64_t bytes);

  // TransferBytes with a completion continuation: `done` runs after the
  // realized share of the modelled transfer time has elapsed on the timer
  // wheel — inline, before returning, when the realized delay is zero (the
  // default config), so the hot path never touches the reactor. Returns the
  // charged modelled nanoseconds.
  int64_t TransferBytesAsync(NodeId src, NodeId dst, int64_t bytes, Continuation done);

  // Failure injection: a dead node rejects calls and sends. While no node is
  // dead, IsDead (and the checks in Call/Send/TransferBytesAsync) read one
  // atomic and take no lock.
  void MarkDead(NodeId node);
  void Revive(NodeId node);
  bool IsDead(NodeId node) const;

  // Deterministic counters, aggregated over all link classes.
  int64_t total_messages() const;
  int64_t total_bytes() const;
  // Per-link-class counters (see LinkClassName for naming).
  int64_t messages(LinkClass link_class) const;
  int64_t bytes(LinkClass link_class) const;

 private:
  // Registered handlers live in an insert-only open-addressed table that
  // Call and Send probe without a lock. Entries never move or die before the
  // fabric; RegisterHandler inserts under mu_, and a table more than half
  // full is replaced by one twice its size (readers of the old one still
  // find every entry it held).
  struct HandlerEntry {
    NodeId node;
    std::string service;
    Handler handler;
  };
  struct HandlerTable {
    explicit HandlerTable(size_t n) : slots(n) {}
    std::vector<std::atomic<const HandlerEntry*>> slots;  // size: power of two
  };
  static const HandlerEntry* Find(const HandlerTable* table, NodeId node,
                                  std::string_view service);
  static void Insert(HandlerTable& table, const HandlerEntry* entry);

  // The handler for (dst, service), or the status Call and Send fail with.
  Result<const Handler*> LookupHandler(NodeId dst, std::string_view service) const;

  void Charge(NodeId src, NodeId dst, int64_t bytes, bool is_control);

  std::shared_ptr<Topology> topology_;
  VirtualClock clock_;
  MetricsRegistry metrics_;
  Reactor reactor_;

  // Metric handles, resolved once at construction (DESIGN.md §12). The
  // per-link-class families are indexed by LinkClass, so charging a message
  // builds no name and takes no registry lock.
  std::array<Counter*, kNumLinkClasses> messages_by_class_{};
  std::array<Counter*, kNumLinkClasses> bytes_by_class_{};
  Counter* control_messages_ = nullptr;
  Counter* data_transfers_ = nullptr;
  Counter* data_bytes_ = nullptr;

  std::atomic<HandlerTable*> handler_table_{nullptr};
  // Size of dead_nodes_, readable without mu_.
  std::atomic<size_t> dead_count_{0};

  mutable Mutex mu_;
  std::vector<std::unique_ptr<HandlerEntry>> handler_entries_ GUARDED_BY(mu_);
  // Every table published; only the last is current.
  std::vector<std::unique_ptr<HandlerTable>> handler_tables_ GUARDED_BY(mu_);
  std::unordered_set<NodeId> dead_nodes_ GUARDED_BY(mu_);
};

}  // namespace skadi

#endif  // SRC_NET_FABRIC_H_
