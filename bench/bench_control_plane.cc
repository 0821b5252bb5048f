// Sharded control plane benchmark (DESIGN.md §13): many-client open-loop
// load against the partitioned ownership table, the per-raylet scheduler
// queues, and the push batcher.
//
//  * BM_OwnershipOpenLoop/shards:S/threads:T — T client threads drive full
//    object lifecycles (RegisterObject -> MarkReady -> Resolve -> DecRef)
//    against one table. shards:1 is the single-lock baseline the acceptance
//    claim compares against; reports ops_per_sec and p50/p99 per-lifecycle
//    latency, plus the ownership.shard_lock_waits contention counter.
//    On a single-core host these rows converge (there is no parallelism to
//    recover; the sleeping mutex is virtually never contended), so the
//    scaling claim rides on the modelled rows below — the same convention
//    the fabric uses for network costs (VirtualClock, DESIGN.md §3).
//  * BM_OwnershipShardSerialization/shards:S — measures every lifecycle
//    op's real cost single-threaded, assigns it to its hash shard, and
//    models the makespan of >= S concurrent clients as the busiest shard's
//    serial sum (each shard lock is the serializing resource; Amdahl on
//    measured costs). modelled_ops_per_sec at shards:1 is the single-lock
//    ceiling — every op serializes behind one mutex no matter how many
//    cores — and the shards:8 row is the acceptance number; the speedup is
//    hash-balance-limited, not assumed.
//  * BM_SchedulerOpenLoop/nodes:N/threads:T — T submitters push no-dep tasks
//    through Submit -> per-raylet queue -> dispatch while a completer thread
//    retires them (exercising the work-steal probe). Reports tasks_per_sec,
//    p50/p99 submit->dispatch latency, and scheduler.steal_count.
//  * BM_PushBatchingDelta/batch:B — a fan-in dispatch (64 ready ref args,
//    one consumer) with the batcher off (B=0, per-object messages) vs on
//    (B=1, coalesced per destination). Reports fabric control_messages and
//    the derived messages saved — the per-object-traffic reduction claim.
//
// SKADI_BENCH_SMOKE=1 shrinks op counts and runs one iteration per
// benchmark (tools/check.sh sanitizer smoke).
#include "bench/bench_util.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "src/ownership/ownership_table.h"
#include "src/runtime/scheduler.h"

namespace skadi {
namespace {

bool SmokeMode() { return std::getenv("SKADI_BENCH_SMOKE") != nullptr; }

// Merges per-thread latency samples and reports p50/p99 in microseconds.
void ReportLatency(benchmark::State& state,
                   std::vector<std::vector<int64_t>>& samples) {
  std::vector<int64_t> all;
  for (auto& s : samples) {
    all.insert(all.end(), s.begin(), s.end());
  }
  if (all.empty()) {
    return;
  }
  std::sort(all.begin(), all.end());
  state.counters["p50_us"] =
      static_cast<double>(all[all.size() / 2]) / 1e3;
  state.counters["p99_us"] =
      static_cast<double>(all[all.size() - 1 - all.size() / 100]) / 1e3;
}

void BM_OwnershipOpenLoop(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  const int ops = SmokeMode() ? 64 : 4000;  // lifecycles per thread
  MetricsRegistry metrics;
  int64_t total_ops = 0;
  std::vector<std::vector<int64_t>> latency(static_cast<size_t>(threads));
  for (auto _ : state) {
    OwnershipTable table(NodeId(1), shards);
    table.set_metrics(&metrics);
    std::atomic<int> start_gate{0};
    auto client = [&](int tid) {
      auto& lat = latency[static_cast<size_t>(tid)];
      lat.clear();
      lat.reserve(static_cast<size_t>(ops));
      start_gate.fetch_add(1);
      while (start_gate.load() < threads) {
      }
      NodeId where(100 + tid);
      for (int i = 0; i < ops; ++i) {
        const int64_t t0 = NowNanos();
        ObjectId id = ObjectId::Next();
        (void)table.RegisterObject(id, TaskId::Next());
        (void)table.MarkReady(id, where, 64);
        (void)table.Resolve(id);
        (void)table.DecRef(id);
        lat.push_back(NowNanos() - t0);
      }
    };
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back(client, t);
    }
    for (auto& t : pool) {
      t.join();
    }
    total_ops += static_cast<int64_t>(threads) * ops;
  }
  state.SetItemsProcessed(total_ops);
  state.counters["ops_per_sec"] =
      benchmark::Counter(static_cast<double>(total_ops), benchmark::Counter::kIsRate);
  state.counters["lock_waits"] = static_cast<double>(
      metrics.GetCounter("ownership.shard_lock_waits").value());
  ReportLatency(state, latency);
}

void BM_OwnershipShardSerialization(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  const int ops = SmokeMode() ? 512 : 32000;
  MetricsRegistry metrics;
  double modelled_ops_per_sec = 0;
  double balance = 0;
  std::vector<int64_t> lat;
  for (auto _ : state) {
    OwnershipTable table(NodeId(1), shards);
    table.set_metrics(&metrics);
    std::vector<int64_t> shard_nanos(static_cast<size_t>(shards), 0);
    lat.clear();
    lat.reserve(static_cast<size_t>(ops));
    for (int i = 0; i < ops; ++i) {
      ObjectId id = ObjectId::Next();
      const size_t shard =
          std::hash<ObjectId>()(id) % static_cast<size_t>(shards);
      const int64_t t0 = NowNanos();
      (void)table.RegisterObject(id, TaskId::Next());
      (void)table.MarkReady(id, NodeId(100), 64);
      (void)table.Resolve(id);
      (void)table.DecRef(id);
      const int64_t dt = NowNanos() - t0;
      shard_nanos[shard] += dt;
      lat.push_back(dt);
    }
    // Makespan with >= `shards` concurrent clients: every shard's ops
    // serialize behind that shard's mutex; shards drain in parallel, so the
    // busiest shard is the critical path. shards:1 degenerates to the full
    // serial sum — the single-lock ceiling.
    int64_t makespan = 0;
    int64_t total = 0;
    for (int64_t n : shard_nanos) {
      makespan = std::max(makespan, n);
      total += n;
    }
    modelled_ops_per_sec = static_cast<double>(ops) / (static_cast<double>(makespan) / 1e9);
    balance = static_cast<double>(total) /
              (static_cast<double>(makespan) * static_cast<double>(shards));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * ops);
  state.counters["modelled_ops_per_sec"] = modelled_ops_per_sec;
  state.counters["shard_balance"] = balance;  // 1.0 = perfectly even hash
  std::sort(lat.begin(), lat.end());
  if (!lat.empty()) {
    state.counters["op_p50_us"] =
        static_cast<double>(lat[lat.size() / 2]) / 1e3;
    state.counters["op_p99_us"] =
        static_cast<double>(lat[lat.size() - 1 - lat.size() / 100]) / 1e3;
  }
}

void BM_SchedulerOpenLoop(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  const int tasks = SmokeMode() ? 64 : 2000;  // submissions per thread
  std::shared_ptr<Topology> topo = std::make_shared<Topology>();
  std::vector<NodeId> node_ids;
  for (int i = 0; i < nodes; ++i) {
    NodeInfo info;
    info.id = NodeId::Next();
    info.role = NodeRole::kServer;
    info.rack = i / 4;
    (void)topo->AddNode(info);
    node_ids.push_back(info.id);
  }
  Fabric fabric(topo);
  CachingLayer cache(&fabric);
  for (NodeId n : node_ids) {
    cache.RegisterStore(n, std::make_shared<LocalObjectStore>(DeviceId::Next(),
                                                              1LL << 30));
  }
  MetricsRegistry metrics;
  int64_t total_tasks = 0;
  std::vector<std::vector<int64_t>> latency(static_cast<size_t>(threads));
  for (auto _ : state) {
    // Dispatch is a no-op sink feeding the completer; submit->dispatch
    // latency rides in the spec's submit timestamp (scheduling_hint abuse
    // avoided: we time around Submit instead, which includes the queue).
    Mutex mu;
    std::vector<std::pair<TaskId, NodeId>> done;
    Scheduler scheduler(
        &cache, &metrics, SchedulingPolicy::kLoadAware,
        [&](const TaskSpecPtr& spec, NodeId target) {
          MutexLock lock(mu);
          done.emplace_back(spec->id, target);
          return Status::Ok();
        });
    std::vector<SchedulableNode> sched_nodes;
    for (NodeId n : node_ids) {
      sched_nodes.push_back(SchedulableNode{n, DeviceKind::kCpu, NodeId(), 2});
    }
    scheduler.SetNodes(std::move(sched_nodes));

    std::atomic<bool> stop{false};
    std::thread completer([&] {
      while (!stop.load()) {
        std::vector<std::pair<TaskId, NodeId>> batch;
        {
          MutexLock lock(mu);
          batch.swap(done);
        }
        for (const auto& [id, node] : batch) {
          if (scheduler.ClaimTask(id, node)) {
            scheduler.ReleaseSlot(node);
          }
        }
        std::this_thread::yield();
      }
    });
    auto submitter = [&](int tid) {
      auto& lat = latency[static_cast<size_t>(tid)];
      lat.clear();
      lat.reserve(static_cast<size_t>(tasks));
      for (int i = 0; i < tasks; ++i) {
        TaskSpec spec;
        spec.id = TaskId::Next();
        spec.function = "noop";
        const int64_t t0 = NowNanos();
        (void)scheduler.Submit(std::move(spec));
        lat.push_back(NowNanos() - t0);
      }
    };
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back(submitter, t);
    }
    for (auto& t : pool) {
      t.join();
    }
    stop.store(true);
    completer.join();
    total_tasks += static_cast<int64_t>(threads) * tasks;
  }
  state.SetItemsProcessed(total_tasks);
  state.counters["tasks_per_sec"] =
      benchmark::Counter(static_cast<double>(total_tasks), benchmark::Counter::kIsRate);
  state.counters["steals"] =
      static_cast<double>(metrics.GetCounter("scheduler.steal_count").value());
  ReportLatency(state, latency);
}

void BM_PushBatchingDelta(benchmark::State& state) {
  const bool batch = state.range(0) != 0;
  const int fan_in = SmokeMode() ? 16 : 64;
  ClusterConfig config;
  config.racks = 1;
  config.servers_per_rack = 4;
  config.workers_per_server = 2;
  RuntimeOptions options;
  options.futures = FutureProtocol::kPush;
  options.policy = SchedulingPolicy::kRoundRobin;
  options.batch_pushes = batch;
  int64_t control_messages = 0;
  int64_t entries = 0;
  int64_t batches = 0;
  for (auto _ : state) {
    auto cluster = Cluster::Create(config);
    FunctionRegistry registry;
    RegisterBenchFunctions(registry);
    SkadiRuntime runtime(cluster.get(), &registry, options);
    const int64_t msgs_before =
        cluster->fabric().metrics().GetCounter("fabric.control_messages").value();
    // fan_in producers, then one consumer whose dispatch registers every
    // (ready) output at once — the per-object vs per-destination case.
    std::vector<TaskArg> args;
    std::vector<ObjectRef> outs;
    for (int i = 0; i < fan_in; ++i) {
      TaskSpec spec;
      spec.function = "bench.echo";
      spec.num_returns = 1;
      spec.args.push_back(TaskArg::Value(BenchI64Buffer(i)));
      auto refs = runtime.Submit(std::move(spec));
      if (!refs.ok()) {
        state.SkipWithError(refs.status().ToString().c_str());
        return;
      }
      args.push_back(TaskArg::Ref((*refs)[0]));
      outs.push_back((*refs)[0]);
    }
    (void)runtime.Wait(outs, 30000);
    // Pin the sink off the owner (head) node so every push crosses the
    // fabric; on the owner the transfer is in-process and uncounted.
    NodeId sink_node;
    for (const ClusterNode& node : cluster->nodes()) {
      if (node.is_compute() && node.id != cluster->head()) {
        sink_node = node.id;
        break;
      }
    }
    TaskSpec sink;
    sink.function = "bench.echo";
    sink.num_returns = 1;
    sink.args = std::move(args);
    sink.pinned_node = sink_node;
    auto sink_refs = runtime.Submit(std::move(sink));
    if (!sink_refs.ok()) {
      state.SkipWithError(sink_refs.status().ToString().c_str());
      return;
    }
    auto result = runtime.Get((*sink_refs)[0], 30000);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    control_messages +=
        cluster->fabric().metrics().GetCounter("fabric.control_messages").value() -
        msgs_before;
    entries += runtime.metrics().GetCounter("runtime.push_batched_entries").value();
    batches += runtime.metrics().GetCounter("runtime.push_batches").value();
  }
  const double iters = static_cast<double>(state.iterations());
  state.counters["control_messages"] =
      static_cast<double>(control_messages) / iters;
  state.counters["push_entries"] = static_cast<double>(entries) / iters;
  state.counters["push_batches"] = static_cast<double>(batches) / iters;
  // Messages the batcher removed vs the per-object protocol (0 with the
  // batcher off — the baseline row's control_messages carries the cost).
  state.counters["messages_saved"] =
      static_cast<double>(entries - batches) / iters;
}

BENCHMARK(BM_OwnershipOpenLoop)
    ->ArgNames({"shards", "threads"})
    ->Args({1, 8})
    ->Args({2, 8})
    ->Args({4, 8})
    ->Args({8, 8})
    ->Args({16, 8})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

BENCHMARK(BM_OwnershipShardSerialization)
    ->ArgNames({"shards"})
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_SchedulerOpenLoop)
    ->ArgNames({"nodes", "threads"})
    ->Args({2, 4})
    ->Args({4, 4})
    ->Args({8, 4})
    ->Args({16, 4})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

BENCHMARK(BM_PushBatchingDelta)
    ->ArgNames({"batch"})
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace skadi

BENCHMARK_MAIN();
