#include "src/net/fabric.h"

#include "src/common/hash.h"
#include "src/common/metric_names.h"
#include "src/common/trace.h"

namespace skadi {

namespace {
size_t HandlerSlot(NodeId node, std::string_view service) {
  return static_cast<size_t>(HashCombine(MixU64(node.value()), HashString(service)));
}
}  // namespace

Fabric::Fabric(std::shared_ptr<Topology> topology)
    : topology_(std::move(topology)), reactor_("fabric-reactor") {
  Reactor::MetricsHooks hooks;
  hooks.dispatches = &metrics_.GetCounter(names::kFabricReactorDispatches);
  hooks.dispatch_nanos = &metrics_.GetHistogram(names::kFabricReactorDispatchNanos);
  hooks.timer_lag_nanos = &metrics_.GetHistogram(names::kFabricReactorTimerLagNanos);
  hooks.ready_depth = &metrics_.GetGauge(names::kFabricReactorReadyDepth);
  reactor_.WireMetrics(hooks);
  for (size_t i = 0; i < kNumLinkClasses; ++i) {
    const std::string_view link = LinkClassName(static_cast<LinkClass>(i));
    messages_by_class_[i] =
        &metrics_.GetCounter(names::kFabricMessagesPrefix + std::string(link));
    bytes_by_class_[i] = &metrics_.GetCounter(names::kFabricBytesPrefix + std::string(link));
  }
  control_messages_ = &metrics_.GetCounter(names::kFabricControlMessages);
  data_transfers_ = &metrics_.GetCounter(names::kFabricDataTransfers);
  data_bytes_ = &metrics_.GetCounter(names::kFabricDataBytes);
  reactor_.Start(1);
}

Fabric::~Fabric() { reactor_.Shutdown(); }

Status Fabric::RegisterHandler(NodeId node, std::string_view service, Handler handler) {
  MutexLock lock(mu_);
  HandlerTable* table = handler_table_.load(std::memory_order_relaxed);
  if (Find(table, node, service) != nullptr) {
    return Status::AlreadyExists("service '" + std::string(service) +
                                 "' already registered on " + node.ToString());
  }
  handler_entries_.push_back(std::make_unique<HandlerEntry>(
      HandlerEntry{node, std::string(service), std::move(handler)}));
  if (table != nullptr && 2 * handler_entries_.size() <= table->slots.size()) {
    Insert(*table, handler_entries_.back().get());
    return Status::Ok();
  }
  size_t slots = 16;
  while (slots < 4 * handler_entries_.size()) {
    slots *= 2;
  }
  auto grown = std::make_unique<HandlerTable>(slots);
  for (const auto& entry : handler_entries_) {
    Insert(*grown, entry.get());
  }
  handler_table_.store(grown.get(), std::memory_order_release);
  handler_tables_.push_back(std::move(grown));
  return Status::Ok();
}

const Fabric::HandlerEntry* Fabric::Find(const HandlerTable* table, NodeId node,
                                         std::string_view service) {
  if (table == nullptr) {
    return nullptr;
  }
  // Never more than half full, so the probe always reaches an empty slot.
  const size_t mask = table->slots.size() - 1;
  for (size_t i = HandlerSlot(node, service) & mask;; i = (i + 1) & mask) {
    const HandlerEntry* entry = table->slots[i].load(std::memory_order_acquire);
    if (entry == nullptr) {
      return nullptr;
    }
    if (entry->node == node && entry->service == service) {
      return entry;
    }
  }
}

void Fabric::Insert(HandlerTable& table, const HandlerEntry* entry) {
  const size_t mask = table.slots.size() - 1;
  size_t i = HandlerSlot(entry->node, entry->service) & mask;
  while (table.slots[i].load(std::memory_order_relaxed) != nullptr) {
    i = (i + 1) & mask;
  }
  // Release: a reader that sees the pointer sees the whole entry.
  table.slots[i].store(entry, std::memory_order_release);
}

Result<const Fabric::Handler*> Fabric::LookupHandler(NodeId dst,
                                                     std::string_view service) const {
  if (IsDead(dst)) {
    return Status::Unavailable("node " + dst.ToString() + " is dead");
  }
  const HandlerEntry* entry =
      Find(handler_table_.load(std::memory_order_acquire), dst, service);
  if (entry == nullptr) {
    return Status::NotFound("service '" + std::string(service) + "' not found on " +
                            dst.ToString());
  }
  return &entry->handler;
}

void Fabric::Charge(NodeId src, NodeId dst, int64_t bytes, bool is_control) {
  const auto c = static_cast<size_t>(topology_->Classify(src, dst));
  messages_by_class_[c]->Increment();
  bytes_by_class_[c]->Add(bytes);
  if (is_control) {
    control_messages_->Increment();
  }
  // Pure accounting — control-plane messages never stall the calling thread
  // on modelled time (the realized share, if configured, applies to bulk
  // transfers via the timer wheel, not to RPC metadata).
  clock_.Account(topology_->TransferNanos(src, dst, bytes));
}

Result<Buffer> Fabric::Call(NodeId src, NodeId dst, std::string_view service,
                            Buffer request) {
  SKADI_ASSIGN_OR_RETURN(const Handler* handler, LookupHandler(dst, service));
  // Synchronous RPC on the caller's thread: the caller's thread-local trace
  // context flows into the handler for free, so this span brackets both the
  // request charge and the handler body (arg = request bytes).
  trace::TraceSpan call_span(names::kSpanFabricCall,
                             static_cast<int64_t>(request.size()), "bytes");
  Charge(src, dst, static_cast<int64_t>(request.size()), /*is_control=*/true);
  Result<Buffer> response = (*handler)(request);
  if (!response.ok()) {
    Charge(dst, src, 0, /*is_control=*/true);
    return response.status();
  }
  Charge(dst, src, static_cast<int64_t>(response->size()), /*is_control=*/true);
  return response;
}

Status Fabric::Send(NodeId src, NodeId dst, std::string_view service, Buffer request) {
  SKADI_ASSIGN_OR_RETURN(const Handler* handler, LookupHandler(dst, service));
  Charge(src, dst, static_cast<int64_t>(request.size()), /*is_control=*/true);
  Result<Buffer> response = (*handler)(request);
  return response.status();
}

int64_t Fabric::TransferBytes(NodeId src, NodeId dst, int64_t bytes) {
  return TransferBytesAsync(src, dst, bytes, Continuation());
}

int64_t Fabric::TransferBytesAsync(NodeId src, NodeId dst, int64_t bytes,
                                   Continuation done) {
  // A transfer from/to a dead node silently accounts nothing; callers check
  // liveness before initiating transfers, this is a backstop.
  if (IsDead(src) || IsDead(dst)) {
    if (done) {
      done();
    }
    return 0;
  }
  const auto c = static_cast<size_t>(topology_->Classify(src, dst));
  bytes_by_class_[c]->Add(bytes);
  messages_by_class_[c]->Increment();
  data_transfers_->Increment();
  data_bytes_->Add(bytes);
  // The transfer span covers modelled-time accounting; the completion's own
  // trace context is captured by ScheduleAfter below, which is what carries
  // the causal chain across the (possibly realized) delay.
  trace::TraceSpan transfer_span(names::kSpanFabricTransfer, bytes, "bytes");
  int64_t nanos = topology_->TransferNanos(src, dst, bytes);
  // What used to be VirtualClock::RealizeDelay (a spin/sleep on this thread)
  // is now a timer-wheel completion: the realized share of the modelled
  // transfer time delays `done`, not the caller.
  const int64_t realized = clock_.Account(nanos);
  if (done) {
    if (realized <= 0 || reactor_.ScheduleAfter(realized, done) == 0) {
      done();
    }
  }
  return nanos;
}

void Fabric::MarkDead(NodeId node) {
  MutexLock lock(mu_);
  dead_nodes_.insert(node);
  dead_count_.store(dead_nodes_.size(), std::memory_order_release);
}

void Fabric::Revive(NodeId node) {
  MutexLock lock(mu_);
  dead_nodes_.erase(node);
  dead_count_.store(dead_nodes_.size(), std::memory_order_release);
}

bool Fabric::IsDead(NodeId node) const {
  if (dead_count_.load(std::memory_order_acquire) == 0) {
    return false;
  }
  MutexLock lock(mu_);
  return dead_nodes_.count(node) > 0;
}

int64_t Fabric::total_messages() const {
  int64_t total = 0;
  for (const Counter* c : messages_by_class_) {
    total += c->value();
  }
  return total;
}

int64_t Fabric::total_bytes() const {
  int64_t total = 0;
  for (const Counter* c : bytes_by_class_) {
    total += c->value();
  }
  return total;
}

int64_t Fabric::messages(LinkClass link_class) const {
  return messages_by_class_[static_cast<size_t>(link_class)]->value();
}

int64_t Fabric::bytes(LinkClass link_class) const {
  return bytes_by_class_[static_cast<size_t>(link_class)]->value();
}

}  // namespace skadi
