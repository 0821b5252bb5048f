#include "src/cache/caching_layer.h"

#include <algorithm>
#include <limits>

#include "src/common/logging.h"
#include "src/common/metric_names.h"
#include "src/common/trace.h"

namespace skadi {

CachingLayer::CachingLayer(Fabric* fabric, CachingLayerOptions options)
    : fabric_(fabric),
      options_(options),
      local_hits_(&fabric->metrics().GetCounter(names::kCacheLocalHits)),
      misses_(&fabric->metrics().GetCounter(names::kCacheMisses)),
      remote_fetches_(&fabric->metrics().GetCounter(names::kCacheRemoteFetches)),
      coalesced_fetches_(&fabric->metrics().GetCounter(names::kCacheCoalescedFetches)),
      ec_reconstructs_(&fabric->metrics().GetCounter(names::kCacheEcReconstructs)),
      spill_bytes_(&fabric->metrics().GetCounter(names::kCacheSpillBytes)) {}

void CachingLayer::RegisterStore(NodeId node, std::shared_ptr<LocalObjectStore> store,
                                 bool is_memory_blade) {
  MutexLock lock(mu_);
  stores_[node] = std::move(store);
  if (is_memory_blade) {
    blades_.insert(node);
  }
}

void CachingLayer::RegisterDurableNode(NodeId node) {
  MutexLock lock(mu_);
  durable_node_ = node;
}

LocalObjectStore* CachingLayer::StoreOf(NodeId node) const {
  MutexLock lock(mu_);
  auto it = stores_.find(node);
  return it == stores_.end() ? nullptr : it->second.get();
}

std::vector<NodeId> CachingLayer::PickReplicaTargetsLocked(NodeId primary,
                                                           int count) const {
  std::vector<NodeId> targets;
  if (count <= 0) {
    return targets;
  }
  for (const auto& [node, store] : stores_) {
    if (node == primary || blades_.count(node) > 0 || fabric_->IsDead(node)) {
      continue;
    }
    targets.push_back(node);
    if (static_cast<int>(targets.size()) >= count) {
      break;
    }
  }
  return targets;
}

Status CachingLayer::Put(ObjectId id, Buffer data, NodeId at) {
  MutexLock lock(mu_);
  auto sit = stores_.find(at);
  if (sit == stores_.end()) {
    return Status::NotFound("no store registered for " + at.ToString());
  }
  auto existing = directory_.find(id);
  if (existing != directory_.end()) {
    // Re-putting an object whose every copy died restores it in place
    // (lineage re-execution produces the same object id, §2.1).
    bool any_live = false;
    for (NodeId node : existing->second.locations) {
      if (!fabric_->IsDead(node)) {
        any_live = true;
        break;
      }
    }
    if (!any_live && existing->second.ec != nullptr) {
      int alive = 0;
      const EcInfo& ec = *existing->second.ec;
      for (size_t i = 0; i < ec.shards.size(); ++i) {
        if (ec.shard_alive[i] && !fabric_->IsDead(ec.shards[i].first)) {
          ++alive;
        }
      }
      any_live = alive >= ec.config.data_shards;
    }
    if (any_live) {
      return Status::AlreadyExists("object " + id.ToString() +
                                   " already in caching layer");
    }
    directory_.erase(existing);
  }
  std::vector<NodeId> replicas =
      PickReplicaTargetsLocked(at, options_.replication_factor - 1);
  LocalObjectStore* primary_store = sit->second.get();

  DirEntry entry;
  entry.size = static_cast<int64_t>(data.size());
  lock.Unlock();

  SKADI_RETURN_IF_ERROR(primary_store->Put(id, data));
  entry.locations.insert(at);

  for (NodeId replica : replicas) {
    LocalObjectStore* store = StoreOf(replica);
    if (store == nullptr) {
      continue;
    }
    fabric_->TransferBytes(at, replica, static_cast<int64_t>(data.size()));
    Status st = store->Put(id, data);
    if (st.ok()) {
      entry.locations.insert(replica);
    } else {
      SKADI_LOG(kWarn) << "replica put of " << id << " on " << replica
                       << " failed: " << st.ToString();
    }
  }

  lock.Lock();
  directory_[id] = std::move(entry);
  return Status::Ok();
}

Result<Buffer> CachingLayer::FlightResult(const std::shared_ptr<Flight>& flight) {
  MutexLock flock(flight->mu);
  if (!flight->status.ok()) {
    return flight->status;
  }
  return flight->data;  // shares storage with the leader's copy
}

Result<Buffer> CachingLayer::Get(ObjectId id, NodeId at, bool cache_locally) {
  auto ev = std::make_shared<Event>();
  auto result = std::make_shared<Result<Buffer>>(
      Status::Internal("cache get never completed"));
  GetAsync(id, at, cache_locally, [ev, result](Result<Buffer> r) {
    *result = std::move(r);
    ev->Set();
  });
  fabric_->reactor().BlockOn(*ev);
  return std::move(*result);
}

void CachingLayer::GetAsync(ObjectId id, NodeId at, bool cache_locally,
                            std::function<void(Result<Buffer>)> done) {
  // The get span closes when `done` runs, which for a coalesced follower is
  // on the leader's thread — hence the handle (BeginSpan/EndSpan) rather
  // than a stack-scoped span.
  trace::SpanHandle get_span =
      trace::BeginSpan(names::kSpanCacheGet, trace::CurrentContext());
  done = [get_span, inner = std::move(done)](Result<Buffer> r) mutable {
    trace::EndSpan(get_span, r.ok() ? 1 : 0, "ok");
    trace::ScopedContext adopt(get_span.ctx);
    inner(std::move(r));
  };
  trace::ScopedContext in_get(get_span.ctx);
  MutexLock lock(mu_);
  auto it = directory_.find(id);
  if (it == directory_.end()) {
    lock.Unlock();
    done(Status::NotFound("object " + id.ToString() + " not in caching layer"));
    return;
  }
  DirEntry& entry = it->second;

  // Prefer a local copy, then the topologically closest live location.
  NodeId source;
  if (entry.locations.count(at) > 0 && !fabric_->IsDead(at)) {
    source = at;
  } else {
    int best_rank = std::numeric_limits<int>::max();
    for (NodeId candidate : entry.locations) {
      if (fabric_->IsDead(candidate)) {
        continue;
      }
      int rank = static_cast<int>(fabric_->topology().Classify(candidate, at));
      if (rank < best_rank) {
        best_rank = rank;
        source = candidate;
      }
    }
  }

  if (!source.valid()) {
    // No live replica: attempt EC reconstruction. Snapshot the shard map
    // under mu_ and decode unlocked so we never call into a store while
    // holding the directory lock.
    if (entry.ec != nullptr) {
      EcFetchPlan plan = SnapshotEcLocked(entry);
      lock.Unlock();
      misses_->Increment();
      ec_reconstructs_->Increment();
      done(TryEcReconstruct(plan, id, at));
      return;
    }
    lock.Unlock();
    misses_->Increment();
    done(Status::DataLoss("object " + id.ToString() +
                          " has no live copies and no EC shards"));
    return;
  }

  LocalObjectStore* src_store = stores_.at(source).get();

  if (source == at) {
    // Local hit: no fabric transfer, no coalescing needed. The returned
    // Buffer shares the store entry's refcounted storage.
    lock.Unlock();
    local_hits_->Increment();
    done(src_store->Get(id));
    return;
  }

  misses_->Increment();
  // Remote fetch: single-flight per (at, id). A fetch already in flight
  // makes this call a follower — it inherits the leader's result instead
  // of paying a second fabric transfer for the same bytes.
  const std::pair<NodeId, ObjectId> key(at, id);
  auto fit = inflight_.find(key);
  if (fit != inflight_.end()) {
    std::shared_ptr<Flight> flight = fit->second;
    lock.Unlock();
    coalesced_fetches_->Add(1);
    {
      MutexLock flock(flight->mu);
      if (!flight->done) {
        // Continuation on the flight entry: runs on the leader's thread
        // when it publishes. No parked follower thread.
        flight->waiters.push_back(
            [flight, done] { done(FlightResult(flight)); });
        return;
      }
    }
    done(FlightResult(flight));
    return;
  }

  auto flight = std::make_shared<Flight>();
  inflight_[key] = flight;
  lock.Unlock();

  Result<Buffer> fetched = FetchRemote(id, source, at, src_store, cache_locally);

  // Publish the result to followers, then retire the flight. Both steps take
  // exactly one lock at a time (flight->mu, then mu_), so no ordering edge
  // against store locks is created. Follower continuations run unlocked,
  // after the flight has been retired.
  std::vector<Continuation> waiters;
  {
    MutexLock flock(flight->mu);
    if (fetched.ok()) {
      flight->data = *fetched;
    } else {
      flight->status = fetched.status();
    }
    flight->done = true;
    waiters.swap(flight->waiters);
  }
  {
    MutexLock relock(mu_);
    inflight_.erase(key);
  }
  for (Continuation& w : waiters) {
    w();
  }
  done(fetched);
}

Result<Buffer> CachingLayer::FetchRemote(ObjectId id, NodeId source, NodeId at,
                                         LocalObjectStore* src_store,
                                         bool cache_locally) {
  trace::TraceSpan fetch_span(names::kSpanCacheFetchRemote);
  SKADI_ASSIGN_OR_RETURN(Buffer data, src_store->Get(id));
  fabric_->TransferBytes(source, at, static_cast<int64_t>(data.size()));
  remote_fetches_->Add(1);
  if (cache_locally) {
    LocalObjectStore* dst_store = StoreOf(at);
    if (dst_store != nullptr && dst_store->Put(id, data).ok()) {
      MutexLock relock(mu_);
      auto dit = directory_.find(id);
      if (dit != directory_.end()) {
        dit->second.locations.insert(at);
      }
    }
  }
  return data;
}

CachingLayer::EcFetchPlan CachingLayer::SnapshotEcLocked(const DirEntry& entry) const {
  const EcInfo& ec = *entry.ec;
  EcFetchPlan plan;
  plan.config = ec.config;
  plan.original_size = ec.original_size;
  plan.shards = ec.shards;
  plan.shard_alive = ec.shard_alive;
  plan.shard_stores.resize(ec.shards.size());
  for (size_t i = 0; i < ec.shards.size(); ++i) {
    auto sit = stores_.find(ec.shards[i].first);
    if (sit != stores_.end()) {
      plan.shard_stores[i] = sit->second;
    }
  }
  return plan;
}

Result<Buffer> CachingLayer::TryEcReconstruct(const EcFetchPlan& plan, ObjectId /*id*/,
                                              NodeId at) {
  std::vector<std::optional<Buffer>> shards(plan.shards.size());
  int found = 0;
  for (size_t i = 0; i < plan.shards.size() && found < plan.config.data_shards; ++i) {
    if (!plan.shard_alive[i] || plan.shard_stores[i] == nullptr) {
      continue;
    }
    auto [node, shard_id] = plan.shards[i];
    if (fabric_->IsDead(node)) {
      continue;
    }
    Result<Buffer> shard = plan.shard_stores[i]->Get(shard_id);
    if (!shard.ok()) {
      continue;
    }
    fabric_->TransferBytes(node, at, static_cast<int64_t>(shard->size()));
    shards[i] = std::move(shard).value();
    ++found;
  }
  SKADI_ASSIGN_OR_RETURN(Buffer data,
                         EcDecode(shards, plan.config, plan.original_size));
  return data;
}

Status CachingLayer::Delete(ObjectId id) {
  MutexLock lock(mu_);
  auto it = directory_.find(id);
  if (it == directory_.end()) {
    return Status::NotFound("object " + id.ToString() + " not in caching layer");
  }
  DirEntry entry = std::move(it->second);
  directory_.erase(it);

  // Collect the per-store deletions under mu_, execute them after releasing
  // it: store locks are ordered before mu_ (spill handlers lock mu_ while
  // their store's lock is held).
  std::vector<std::pair<std::shared_ptr<LocalObjectStore>, ObjectId>> drops;
  for (NodeId node : entry.locations) {
    auto sit = stores_.find(node);
    if (sit != stores_.end()) {
      drops.emplace_back(sit->second, id);
    }
  }
  if (entry.ec != nullptr) {
    for (size_t i = 0; i < entry.ec->shards.size(); ++i) {
      auto [node, shard_id] = entry.ec->shards[i];
      auto sit = stores_.find(node);
      if (sit != stores_.end()) {
        drops.emplace_back(sit->second, shard_id);
      }
    }
  }
  lock.Unlock();

  for (auto& [store, victim] : drops) {
    (void)store->Delete(victim);  // best effort; store may have evicted it
  }
  return Status::Ok();
}

bool CachingLayer::Exists(ObjectId id) const {
  MutexLock lock(mu_);
  return directory_.count(id) > 0;
}

Result<int64_t> CachingLayer::SizeOf(ObjectId id) const {
  MutexLock lock(mu_);
  auto it = directory_.find(id);
  if (it == directory_.end()) {
    return Status::NotFound("object " + id.ToString() + " not in caching layer");
  }
  return it->second.size;
}

std::vector<NodeId> CachingLayer::Locations(ObjectId id) const {
  MutexLock lock(mu_);
  auto it = directory_.find(id);
  if (it == directory_.end()) {
    return {};
  }
  return std::vector<NodeId>(it->second.locations.begin(), it->second.locations.end());
}

Status CachingLayer::Migrate(ObjectId id, NodeId to) {
  SKADI_ASSIGN_OR_RETURN(Buffer data, Get(id, to, /*cache_locally=*/false));
  LocalObjectStore* dst = StoreOf(to);
  if (dst == nullptr) {
    return Status::NotFound("no store registered for " + to.ToString());
  }
  MutexLock lock(mu_);
  auto it = directory_.find(id);
  if (it == directory_.end()) {
    return Status::NotFound("object " + id.ToString() + " vanished during migration");
  }
  if (it->second.locations.count(to) > 0) {
    return Status::Ok();  // already there
  }
  std::set<NodeId> old_locations = it->second.locations;
  lock.Unlock();

  SKADI_RETURN_IF_ERROR(dst->Put(id, data));
  for (NodeId node : old_locations) {
    LocalObjectStore* store = StoreOf(node);
    if (store != nullptr) {
      (void)store->Delete(id);  // best effort; the copy may already be gone
    }
  }

  lock.Lock();
  it = directory_.find(id);
  if (it != directory_.end()) {
    it->second.locations.clear();
    it->second.locations.insert(to);
  }
  return Status::Ok();
}

Status CachingLayer::PutEc(ObjectId id, Buffer data, const EcConfig& config) {
  SKADI_ASSIGN_OR_RETURN(std::vector<Buffer> shards, EcEncode(data, config));

  MutexLock lock(mu_);
  if (directory_.count(id) > 0) {
    return Status::AlreadyExists("object " + id.ToString() + " already in caching layer");
  }
  // Distinct nodes, round-robin over every registered store (blades welcome:
  // EC shards are cold by construction).
  std::vector<NodeId> nodes;
  for (const auto& [node, store] : stores_) {
    if (!fabric_->IsDead(node)) {
      nodes.push_back(node);
    }
  }
  if (static_cast<int>(nodes.size()) < config.total_shards()) {
    return Status::FailedPrecondition(
        "EC(" + std::to_string(config.data_shards) + "," +
        std::to_string(config.parity_shards) + ") needs " +
        std::to_string(config.total_shards()) + " nodes, have " +
        std::to_string(nodes.size()));
  }

  auto ec = std::make_unique<EcInfo>();
  ec->config = config;
  ec->original_size = data.size();
  ec->shard_alive.assign(shards.size(), true);

  std::vector<std::pair<NodeId, std::pair<ObjectId, Buffer>>> placements;
  for (size_t i = 0; i < shards.size(); ++i) {
    NodeId node = nodes[i % nodes.size()];
    ObjectId shard_id = ObjectId::Next();
    ec->shards.emplace_back(node, shard_id);
    placements.emplace_back(node, std::make_pair(shard_id, std::move(shards[i])));
  }

  DirEntry entry;
  entry.size = static_cast<int64_t>(data.size());
  entry.ec = std::move(ec);
  directory_[id] = std::move(entry);
  lock.Unlock();

  for (auto& [node, shard] : placements) {
    LocalObjectStore* store = StoreOf(node);
    if (store == nullptr) {
      continue;
    }
    fabric_->TransferBytes(NodeId(), node, static_cast<int64_t>(shard.second.size()));
    SKADI_RETURN_IF_ERROR(store->Put(shard.first, std::move(shard.second)));
  }
  return Status::Ok();
}

Status CachingLayer::PutDurable(const std::string& key, Buffer data, NodeId from) {
  NodeId durable;
  {
    MutexLock lock(mu_);
    durable = durable_node_;
  }
  if (!durable.valid()) {
    return Status::FailedPrecondition("no durable storage node registered");
  }
  fabric_->TransferBytes(from, durable, static_cast<int64_t>(data.size()));
  MutexLock lock(mu_);
  durable_contents_[key] = std::move(data);
  return Status::Ok();
}

Result<Buffer> CachingLayer::GetDurable(const std::string& key, NodeId to) {
  Buffer data;
  NodeId durable;
  {
    MutexLock lock(mu_);
    durable = durable_node_;
    if (!durable.valid()) {
      return Status::FailedPrecondition("no durable storage node registered");
    }
    auto it = durable_contents_.find(key);
    if (it == durable_contents_.end()) {
      return Status::NotFound("durable key '" + key + "' not found");
    }
    data = it->second;
  }
  fabric_->TransferBytes(durable, to, static_cast<int64_t>(data.size()));
  return data;
}

Status CachingLayer::EnableSpillToBlade(NodeId node) {
  MutexLock lock(mu_);
  auto sit = stores_.find(node);
  if (sit == stores_.end()) {
    return Status::NotFound("no store registered for " + node.ToString());
  }
  if (blades_.empty()) {
    return Status::FailedPrecondition("no memory blades registered");
  }
  LocalObjectStore* store = sit->second.get();
  lock.Unlock();

  store->set_spill_handler([this, node](ObjectId id, const Buffer& data) {
    // Runs with the spilling store's lock held, so mu_ may be taken here but
    // no store method may be called while mu_ is held. Snapshot the live
    // blades under mu_, then query their occupancy unlocked.
    std::vector<std::pair<NodeId, std::shared_ptr<LocalObjectStore>>> candidates;
    {
      MutexLock lock2(mu_);
      for (NodeId blade : blades_) {
        if (fabric_->IsDead(blade)) {
          continue;
        }
        auto it = stores_.find(blade);
        if (it != stores_.end()) {
          candidates.emplace_back(blade, it->second);
        }
      }
    }
    // Pick the blade with the most free space.
    NodeId best_blade;
    std::shared_ptr<LocalObjectStore> blade_store;
    int64_t best_free = -1;
    for (auto& [blade, blade_candidate] : candidates) {
      int64_t free =
          blade_candidate->capacity_bytes() - blade_candidate->used_bytes();
      if (free > best_free) {
        best_free = free;
        best_blade = blade;
        blade_store = blade_candidate;
      }
    }
    if (!best_blade.valid() || best_free < static_cast<int64_t>(data.size())) {
      return false;
    }
    fabric_->TransferBytes(node, best_blade, static_cast<int64_t>(data.size()));
    spill_bytes_->Add(static_cast<int64_t>(data.size()));
    if (!blade_store->Put(id, data).ok()) {
      return false;
    }
    MutexLock lock2(mu_);
    auto dit = directory_.find(id);
    if (dit != directory_.end()) {
      dit->second.locations.erase(node);
      dit->second.locations.insert(best_blade);
    }
    return true;
  });
  return Status::Ok();
}

void CachingLayer::OnNodeFailure(NodeId node) {
  std::shared_ptr<LocalObjectStore> dead_store;
  {
    MutexLock lock(mu_);
    auto sit = stores_.find(node);
    if (sit != stores_.end()) {
      dead_store = sit->second;
    }
    for (auto& [id, entry] : directory_) {
      entry.locations.erase(node);
      if (entry.ec != nullptr) {
        for (size_t i = 0; i < entry.ec->shards.size(); ++i) {
          if (entry.ec->shards[i].first == node) {
            entry.ec->shard_alive[i] = false;
          }
        }
      }
    }
  }
  // Clear outside mu_: store locks order before the directory lock.
  if (dead_store != nullptr) {
    dead_store->Clear();
  }
}

std::vector<ObjectId> CachingLayer::LostObjects() const {
  MutexLock lock(mu_);
  std::vector<ObjectId> lost;
  for (const auto& [id, entry] : directory_) {
    bool has_copy = false;
    for (NodeId node : entry.locations) {
      if (!fabric_->IsDead(node)) {
        has_copy = true;
        break;
      }
    }
    if (has_copy) {
      continue;
    }
    if (entry.ec != nullptr) {
      int alive = 0;
      for (size_t i = 0; i < entry.ec->shards.size(); ++i) {
        if (entry.ec->shard_alive[i] && !fabric_->IsDead(entry.ec->shards[i].first)) {
          ++alive;
        }
      }
      if (alive >= entry.ec->config.data_shards) {
        continue;
      }
    }
    lost.push_back(id);
  }
  return lost;
}

}  // namespace skadi
