// skadi_perfbench: runs one workload of the end-to-end benchmark and prints
// its metrics as the last line of stdout.
//
//   skadi_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--smoke]
//
// Both modes set up the workload at least kSetups times and for at least
// kSetupSeconds (setup_s is the median), warm up until round throughput
// levels off, and then measure in segments
// of at most kSegmentSeconds, each on a freshly set-up instance after a
// short untimed settle run. Segments bound memory: Skadi::Sql releases none
// of a query's intermediate objects, so one instance of a SQL workload
// grows by hundreds of MB per second. End-to-end figures come from the
// quiet chunks of the segments (see QuietChunks).
//
// --trace 0 measures --seconds with tracing off and reports the end-to-end
// metrics.
// --trace 1 measures --seconds/2 untraced (counter deltas, process probes,
// the workload's own timers), calibrates the trace sample on one segment,
// measures --seconds/2 traced (self time per span), and reports the
// per-layer metrics.
// --smoke shrinks every input so a run takes about a second.
//
// Exit status: 0 when every output matched its reference, 1 when one did
// not (the metrics line is still printed), 2 on a usage or set-up error
// (nothing printed on stdout).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <thread>
#include <utility>

#include "perfbench/perfbench.h"
#include "src/common/metric_names.h"
#include "src/common/trace.h"

#ifndef SKADI_BUILD_TYPE
#define SKADI_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace names = skadi::names;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool smoke = false;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value);
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0 && (args.trace == 0 || args.trace == 1);
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "sql_dashboard") return MakeSqlDashboard();
  if (name == "sql_analytic") return MakeSqlAnalytic();
  if (name == "task_actor") return MakeTaskActor();
  if (name == "spill_pipeline") return MakeSpillPipeline();
  return nullptr;
}

// Ordered metric list, printed as {"name": {"value": v, "unit": u}, ...}.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  std::string ToJson() const {
    std::ostringstream os;
    os << "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char number[64];
      std::snprintf(number, sizeof(number), "%.17g", entries_[i].value);
      os << (i == 0 ? "" : ", ") << "\"" << entries_[i].name << "\": {\"value\": " << number
         << ", \"unit\": \"" << entries_[i].unit << "\"}";
    }
    os << "}";
    return os.str();
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

constexpr double kSegmentSeconds = 2.0;
constexpr double kSettleSeconds = 0.2;
constexpr int kSetups = 31;
constexpr double kSetupSeconds = 1.0;
constexpr int kMaxSetups = 1001;
// One 10 ms tick of steal on one CPU of four, over a 0.1 s chunk.
constexpr double kStealMargin = 0.025;
constexpr double kRingSlots = 8192;  // per-thread span ring of src/common/trace.cc

// Counter values and store occupancy of one Skadi instance, or the
// difference of two snapshots.
struct Counters {
  std::map<std::string, int64_t> counters;
  std::map<skadi::LinkClass, int64_t> link_bytes;
  int64_t fabric_messages = 0;
  int64_t store_evictions = 0;

  double Get(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  }
  // this += (after - before)
  void AddDelta(const Counters& after, const Counters& before) {
    for (const auto& [name, v] : after.counters) {
      auto it = before.counters.find(name);
      counters[name] += v - (it == before.counters.end() ? 0 : it->second);
    }
    for (const auto& [lc, v] : after.link_bytes) {
      link_bytes[lc] += v - before.link_bytes.at(lc);
    }
    fabric_messages += after.fabric_messages - before.fabric_messages;
    store_evictions += after.store_evictions - before.store_evictions;
  }
};

constexpr skadi::LinkClass kLinkClasses[] = {
    skadi::LinkClass::kLocal, skadi::LinkClass::kIntraNode, skadi::LinkClass::kIntraRack,
    skadi::LinkClass::kInterRack, skadi::LinkClass::kDurable};

Counters Snapshot(skadi::Skadi& skadi) {
  Counters s;
  for (const auto& [name, value] : skadi.runtime().metrics().SnapshotCounters()) {
    s.counters[name] = value;
  }
  skadi::Fabric& fabric = skadi.cluster().fabric();
  for (skadi::LinkClass lc : kLinkClasses) {
    s.link_bytes[lc] = fabric.bytes(lc);
  }
  s.fabric_messages = fabric.total_messages();
  for (const skadi::ClusterNode& node : skadi.cluster().nodes()) {
    if (node.store != nullptr) {
      s.store_evictions += node.store->evictions();
    }
  }
  return s;
}

int64_t StoreUsedBytes(skadi::Skadi& skadi) {
  int64_t used = 0;
  for (const skadi::ClusterNode& node : skadi.cluster().nodes()) {
    if (node.store != nullptr) {
      used += node.store->used_bytes();
    }
  }
  return used;
}

int64_t OkOps(const PhaseResult& r) { return r.attempted - r.failed - r.wrong; }

double OkRate(const PhaseResult& r) {
  return r.wall_s > 0 ? static_cast<double>(OkOps(r)) / r.wall_s : 0.0;
}

// Calls `poll` every `period` on its own thread until Stop().
class Poller {
 public:
  Poller(std::chrono::microseconds period, std::function<void()> poll)
      : poll_(std::move(poll)), thread_([this, period] {
          while (!stop_.load()) {
            poll_();
            std::this_thread::sleep_for(period);
          }
          poll_();
        }) {}
  ~Poller() { Stop(); }
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) {
      thread_.join();
    }
  }

 private:
  std::function<void()> poll_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// Host CPU ticks sampled over a segment, to find the stretches in which the
// hypervisor gave this machine's CPUs to other guests.
struct TickSample {
  int64_t nanos = 0;
  CpuTicks ticks;
};

// Share of CPU time stolen in [from, to), from the samples bracketing it.
double StealRatio(const std::vector<TickSample>& samples, int64_t from, int64_t to) {
  if (samples.size() < 2) {
    return 0.0;
  }
  auto before = samples.begin();
  for (auto it = samples.begin(); it != samples.end() && it->nanos <= from; ++it) {
    before = it;
  }
  auto after = samples.end() - 1;
  for (auto it = samples.end() - 1; it != samples.begin() && it->nanos >= to; --it) {
    after = it;
  }
  const int64_t total = after->ticks.total - before->ticks.total;
  return total > 0 ? static_cast<double>(after->ticks.steal - before->ticks.steal) /
                         static_cast<double>(total)
                   : 0.0;
}

// One chunk of a timed segment: its length, the host's steal ratio over
// it, and the latencies of the correct operations that completed in it.
struct Chunk {
  double seconds = 0.0;
  double steal = 0.0;
  std::vector<double> latency_ms;
};

// Everything one measured phase collects, summed over its segments.
struct Measurement {
  PhaseResult r;
  std::vector<Chunk> chunks;
  Counters counters;
  double cpu_s = 0.0;
  int64_t rss_growth_bytes = 0;
  int threads = 0;
  int64_t depth_max = 0;
  double lag_p99_us = 0.0;
  int64_t store_used_end = 0;
};

// Splits segment `r`, which started at `start`, into equal chunks of about
// `chunk_seconds` and appends them to m.chunks.
void AddChunks(const PhaseResult& r, int64_t start, double chunk_seconds,
               const std::vector<TickSample>& ticks, Measurement& m) {
  if (r.wall_s <= 0) {
    return;
  }
  const int n = std::max(1, static_cast<int>(r.wall_s / chunk_seconds));
  const double chunk_s = r.wall_s / n;
  std::vector<Chunk> chunks(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    chunks[static_cast<size_t>(i)].seconds = chunk_s;
    chunks[static_cast<size_t>(i)].steal =
        StealRatio(ticks, start + static_cast<int64_t>(i * chunk_s * 1e9),
                   start + static_cast<int64_t>((i + 1) * chunk_s * 1e9));
  }
  for (int k = 0; k < 2; ++k) {
    for (size_t j = 0; j < r.latency_ms[k].size(); ++j) {
      int i = static_cast<int>(static_cast<double>(r.end_nanos[k][j] - start) / 1e9 / chunk_s);
      chunks[static_cast<size_t>(std::clamp(i, 0, n - 1))].latency_ms.push_back(
          r.latency_ms[k][j]);
    }
  }
  m.chunks.insert(m.chunks.end(), chunks.begin(), chunks.end());
}

// The chunks a run's end-to-end figures come from: those in which the host
// stole at most kStealMargin more of the CPU time than in the least-stolen
// chunk, or, when that leaves fewer than a tenth, the least-stolen tenth.
// Other guests take this host's CPUs for seconds to minutes, and a chunk
// with 20% steal has half the throughput; even then a tenth of the chunks
// see little steal.
std::vector<Chunk> QuietChunks(std::vector<Chunk> chunks) {
  std::stable_sort(chunks.begin(), chunks.end(),
                   [](const Chunk& a, const Chunk& b) { return a.steal < b.steal; });
  size_t keep = (chunks.size() + 9) / 10;
  while (keep < chunks.size() && chunks[keep].steal <= chunks[0].steal + kStealMargin) {
    ++keep;
  }
  chunks.resize(keep);
  return chunks;
}

class Harness {
 public:
  Harness(Workload& w, bool smoke) : w_(w), smoke_(smoke) {}

  // Tears down the current instance and sets up a fresh one; `timed` adds
  // the set-up's duration to the setup_s samples.
  bool Setup(bool timed) {
    w_.Teardown();
    int64_t t0 = NowNanos();
    skadi::Status st = w_.Setup();
    if (timed) {
      setups_.push_back(static_cast<double>(NowNanos() - t0) / 1e9);
    }
    if (!st.ok()) {
      std::cerr << "setup failed: " << st.ToString() << "\n";
    }
    return st.ok();
  }

  // Untimed rounds until throughput levels off: the last three rounds
  // within 10% of each other, or the time cap.
  void WarmUp(double round_s, double cap_s) {
    std::vector<double> rates;
    const int64_t stop = NowNanos() + static_cast<int64_t>(cap_s * 1e9);
    while (NowNanos() < stop) {
      PhaseResult r = w_.Run(round_s);
      wrong_ += r.wrong;
      rates.push_back(OkRate(r));
      if (rates.size() >= 3) {
        auto [lo, hi] = std::minmax_element(rates.end() - 3, rates.end());
        if (*lo > 0 && *hi / *lo < 1.10) {
          break;
        }
      }
    }
  }

  // Measures `seconds` of operations in segments on fresh instances.
  // `probes` adds the per-layer probes (counters, process, reactors);
  // `traced` turns the trace plane on around each timed segment.
  bool Measure(double seconds, bool probes, bool traced, Measurement& m) {
    double remaining = seconds;
    while (remaining > 1e-6) {
      double seg = std::min(kSegmentSeconds, remaining);
      if (remaining - seg < 0.5 * kSegmentSeconds) {
        seg = remaining;  // no short tail segment
      }
      remaining -= seg;
      if (!Setup(/*timed=*/false)) {
        return false;
      }
      PhaseResult settle = w_.Run(smoke_ ? 0.05 : kSettleSeconds);
      wrong_ += settle.wrong;
      (void)w_.TakeLayerFigures();
      skadi::Skadi& skadi = w_.skadi();
      skadi::MetricsRegistry& registry = skadi.runtime().metrics();
      skadi::Histogram& raylet_lag = registry.GetHistogram(names::kRayletReactorDispatchNanos);
      skadi::Histogram& fabric_lag = registry.GetHistogram(names::kFabricReactorDispatchNanos);
      raylet_lag.Reset();
      fabric_lag.Reset();
      Counters before = Snapshot(skadi);
      ProcessSample p0 = SampleProcess();
      std::vector<TickSample> ticks;
      Poller tick_poller(std::chrono::milliseconds(10),
                         [&ticks] { ticks.push_back({NowNanos(), SampleCpuTicks()}); });
      std::unique_ptr<Poller> depth_poller;
      if (probes) {
        depth_poller = std::make_unique<Poller>(
            std::chrono::milliseconds(1),
            [&m, raylet = &registry.GetGauge(names::kRayletReactorReadyDepth),
             fabric = &registry.GetGauge(names::kFabricReactorReadyDepth)] {
              m.depth_max = std::max({m.depth_max, raylet->value(), fabric->value()});
            });
      }
      skadi::trace::SetEnabled(traced);
      const int64_t start = NowNanos();
      PhaseResult r = w_.Run(seg);
      skadi::trace::SetEnabled(false);
      tick_poller.Stop();
      if (depth_poller != nullptr) {
        depth_poller->Stop();
      }
      ProcessSample p1 = SampleProcess();
      Counters after = Snapshot(skadi);
      AddChunks(r, start, w_.chunk_seconds(), ticks, m);
      m.counters.AddDelta(after, before);
      m.cpu_s += p1.cpu_s - p0.cpu_s;
      m.rss_growth_bytes += p1.rss_bytes - p0.rss_bytes;
      m.threads = p1.threads;
      m.lag_p99_us = std::max(
          m.lag_p99_us, static_cast<double>(std::max(raylet_lag.QuantileNanos(0.99),
                                                     fabric_lag.QuantileNanos(0.99))) /
                            1e3);
      m.store_used_end = StoreUsedBytes(skadi);
      m.r.Merge(r);
      wrong_ += r.wrong;
    }
    return true;
  }

  double setup_s() const { return Quantile(setups_, 0.5); }
  int64_t wrong() const { return wrong_; }

 private:
  Workload& w_;
  const bool smoke_;
  std::vector<double> setups_;
  int64_t wrong_ = 0;
};

// Spans in src/common/metric_names.h whose self time is reported per op.
constexpr const char* kSpans[] = {
    names::kSpanRuntimeSubmit,       names::kSpanRuntimeGet,
    names::kSpanRuntimeResolveArg,   names::kSpanRuntimeCompleteTask,
    names::kSpanSchedulerDispatch,   names::kSpanRayletRunTask,
    names::kSpanRayletCompute,       names::kSpanCacheGet,
    names::kSpanCacheFetchRemote,    names::kSpanFabricCall,
    names::kSpanFabricTransfer};
constexpr const char* kModules[] = {"runtime", "scheduler", "raylet", "cache", "fabric"};

// Throughput and latency over the quiet chunks of the run.
void AddEndToEnd(Metrics& m, double setup_s, const Measurement& x) {
  double seconds = 0.0;
  std::vector<double> lat;
  for (const Chunk& c : QuietChunks(x.chunks)) {
    seconds += c.seconds;
    lat.insert(lat.end(), c.latency_ms.begin(), c.latency_ms.end());
  }
  m.Add("setup_s", setup_s, "s");
  m.Add("ops_per_s", seconds > 0 ? static_cast<double>(lat.size()) / seconds : 0.0, "1/s");
  m.Add("op_p50_ms", Quantile(lat, 0.50), "ms");
}

// The per-layer metrics of a --trace 1 run: `x` is the untraced phase, `t`
// the traced one.
void AddPerLayer(Metrics& m, OpKind kind, const Measurement& x,
                 const std::map<std::string, double>& timed, const Measurement& t,
                 const TraceBreakdown& tb, uint32_t sample_every,
                 const std::map<std::string, double>& offline) {
  const PhaseResult& r = x.r;
  const Counters& c = x.counters;
  const double ops = static_cast<double>(std::max<int64_t>(1, r.attempted));
  const double ok = static_cast<double>(std::max<int64_t>(1, OkOps(r)));
  const double tasks = c.Get(names::kRuntimeTasksSubmitted);
  auto only = [&](OpKind k, double v) { return kind == k ? v : 0.0; };
  const std::vector<double>& main_lat = r.latency_ms[0];
  const std::vector<double>& actor_lat = r.latency_ms[1];
  auto figure = [](const std::map<std::string, double>& from, const char* name) {
    auto it = from.find(name);
    return it == from.end() ? 0.0 : it->second;
  };

  // End-to-end figures of the untraced phase, split by workload.
  m.Add("failed_ops_ratio", static_cast<double>(r.failed + r.wrong) / ops, "ratio");
  m.Add("retained_bytes_per_op", static_cast<double>(x.rss_growth_bytes) / ok, "B");
  m.Add("tasks_per_s", c.Get(names::kRuntimeTasksCompleted) / r.wall_s, "1/s");
  m.Add("queries_per_s", only(OpKind::kQuery, OkRate(r)), "1/s");
  m.Add("query_p50_ms", only(OpKind::kQuery, Quantile(main_lat, 0.50)), "ms");
  m.Add("query_p90_ms", only(OpKind::kQuery, Quantile(main_lat, 0.90)), "ms");
  m.Add("query_p99_ms", only(OpKind::kQuery, Quantile(main_lat, 0.99)), "ms");
  m.Add("task_p50_us", only(OpKind::kTask, Quantile(main_lat, 0.50) * 1e3), "us");
  m.Add("task_p99_us", only(OpKind::kTask, Quantile(main_lat, 0.99) * 1e3), "us");
  m.Add("actor_call_p50_us", only(OpKind::kTask, Quantile(actor_lat, 0.50) * 1e3), "us");
  m.Add("actor_call_p99_us", only(OpKind::kTask, Quantile(actor_lat, 0.99) * 1e3), "us");
  m.Add("pipeline_mib_per_s",
        only(OpKind::kChain, static_cast<double>(r.payload_bytes) / (1 << 20) / r.wall_s),
        "MiB/s");
  m.Add("chain_p50_ms", only(OpKind::kChain, Quantile(main_lat, 0.50)), "ms");
  m.Add("chain_p99_ms", only(OpKind::kChain, Quantile(main_lat, 0.99)), "ms");

  // Access layer, graph and kernels (SQL workloads).
  const double front_us = figure(offline, "access.parse_us") +
                          figure(offline, "access.plan_us") +
                          figure(offline, "graph.optimize_us") + figure(offline, "graph.lower_us");
  for (const char* name : {"access.parse_us", "access.plan_us", "graph.optimize_us",
                           "graph.lower_us"}) {
    m.Add(name, figure(offline, name), "us");
  }
  m.Add("graph.tasks_per_query", tasks / ops, "count/op");
  m.Add("graph.execute_ms", only(OpKind::kQuery, Mean(main_lat) - front_us / 1e3), "ms");
  for (const char* name : {"format.groupby_ms", "format.join_ms", "format.filter_ms"}) {
    m.Add(name, figure(offline, name), "ms");
  }

  // Runtime, scheduler, ownership, reactors.
  m.Add("runtime.submit_us", figure(timed, "runtime.submit_us"), "us");
  m.Add("runtime.actor_submit_us", figure(timed, "runtime.actor_submit_us"), "us");
  m.Add("actor.order_violations", figure(timed, "actor.order_violations"), "count");
  const double ktasks = std::max(1.0, tasks) / 1000.0;
  m.Add("scheduler.steals_per_ktask", c.Get(names::kSchedulerStealCount) / ktasks,
        "count/ktask");
  m.Add("scheduler.dispatch_retries", c.Get(names::kSchedulerDispatchRetries) / ktasks,
        "count/ktask");
  m.Add("ownership.shard_lock_waits_per_kop",
        c.Get(names::kOwnershipShardLockWaits) / (ops / 1000.0), "count/kop");
  m.Add("reactor.dispatch_lag_p99_us", x.lag_p99_us, "us");
  m.Add("reactor.ready_depth_max", static_cast<double>(x.depth_max), "count");

  // Fabric.
  m.Add("fabric.messages_per_op", static_cast<double>(c.fabric_messages) / ops, "count/op");
  m.Add("control_hops_per_op", c.Get(names::kRuntimeControlHops) / ops, "count/op");
  for (skadi::LinkClass lc : kLinkClasses) {
    auto it = c.link_bytes.find(lc);
    m.Add("fabric.bytes_per_op." + std::string(skadi::LinkClassName(lc)),
          it == c.link_bytes.end() ? 0.0 : static_cast<double>(it->second) / ops, "B/op");
  }

  // Caching layer and object stores.
  const double hits = c.Get(names::kCacheLocalHits);
  const double misses = c.Get(names::kCacheMisses);
  m.Add("cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  m.Add("cache.remote_fetches_per_op", c.Get(names::kCacheRemoteFetches) / ops, "count/op");
  m.Add("cache.coalesced_fetches", c.Get(names::kCacheCoalescedFetches) / ops, "count/op");
  m.Add("cache.spill_bytes_per_chain", c.Get(names::kCacheSpillBytes) / ops, "B/op");
  m.Add("objectstore.evictions_per_chain", static_cast<double>(c.store_evictions) / ops,
        "count/op");
  m.Add("objectstore.used_mib_end", static_cast<double>(x.store_used_end) / (1 << 20), "MiB");

  // Process.
  m.Add("process.threads", x.threads, "count");
  m.Add("process.cpu_s_per_op", x.cpu_s / ok, "s/op");

  // Traced phase: self time per span and per module, per sampled operation.
  const double sampled = static_cast<double>(std::max<int64_t>(1, tb.sampled_ops));
  auto self = [&](const std::string& name) {
    auto it = tb.self_us.find(name);
    return it == tb.self_us.end() ? 0.0 : it->second;
  };
  double layers_us = 0.0;
  std::map<std::string, double> module_us;
  for (const auto& [name, us] : tb.self_us) {
    if (name != kOpSpan) {
      layers_us += us;
      module_us[ModuleOf(name)] += us;
    }
  }
  for (const char* span : kSpans) {
    m.Add(std::string(span) + "_self_us", self(span) / sampled, "us");
  }
  for (const char* module : kModules) {
    m.Add(std::string("trace.") + module + "_self_us", module_us[module] / sampled, "us");
  }
  m.Add("raylet.queue_wait_us", tb.queue_wait_us, "us");
  const double wall = std::max(1e-9, tb.root_wall_us);
  m.Add("trace.coverage_ratio", layers_us / wall, "ratio");
  m.Add("trace.wall_covered_ratio", tb.covered_wall_us / wall, "ratio");
  m.Add("trace.unattributed_us", (tb.root_wall_us - tb.covered_wall_us) / sampled, "us");
  const double traced_rate = OkRate(t.r);
  m.Add("trace.overhead_ratio", traced_rate > 0 ? OkRate(r) / traced_rate : 0.0, "ratio");
  m.Add("trace.sampled_ops", static_cast<double>(tb.sampled_ops), "count");
  m.Add("trace.sample_every", sample_every, "count");
  m.Add("trace.ring_fill_ratio", static_cast<double>(tb.max_events_per_thread) / kRingSlots,
        "ratio");
}

void PrintRunRecord(const Args& args) {
  std::cout << "# run {\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
            << ", \"seconds\": " << args.seconds << ", \"trace\": " << args.trace
            << ", \"smoke\": " << (args.smoke ? "true" : "false")
            << ", \"nproc\": " << std::thread::hardware_concurrency() << ", \"cluster\": \""
            << ClusterShape() << "\", \"skadi_build_type\": \"" << SKADI_BUILD_TYPE << "\"}"
            << std::endl;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::cerr << "usage: skadi_perfbench --workload <sql_dashboard|sql_analytic|task_actor|"
                 "spill_pipeline> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n";
    return 2;
  }
  std::unique_ptr<Workload> w = MakeWorkload(args.workload);
  if (w == nullptr) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  PrintRunRecord(args);
  const CpuTicks ticks0 = SampleCpuTicks();
  w->Prepare(args.seed, args.smoke);

  // setup_s samples only these set-ups, made before any load: set-ups
  // between segments follow the teardown of a loaded instance and pay for
  // the memory it gave back, which depends on how much work it did.
  // They are spread over kSetupSeconds so that one burst of host CPU
  // steal does not decide the median.
  Harness h(*w, args.smoke);
  const int64_t setup_stop = NowNanos() + static_cast<int64_t>(kSetupSeconds * 1e9);
  for (int i = 0; i < (args.smoke ? 1 : kMaxSetups); ++i) {
    if (!h.Setup(/*timed=*/true)) {
      return 2;
    }
    if (!args.smoke && i + 1 >= kSetups && NowNanos() >= setup_stop) {
      break;
    }
  }
  const double round_s = args.smoke ? 0.1 : (w->op_kind() == OpKind::kQuery ? 0.5 : 0.25);
  h.WarmUp(round_s, args.smoke ? 0.3 : 3.0);

  Metrics m;
  PhaseResult all;
  size_t chunks = 0;
  size_t quiet_chunks = 0;
  if (args.trace == 0) {
    Measurement x;
    if (!h.Measure(args.seconds, /*probes=*/false, /*traced=*/false, x)) {
      return 2;
    }
    AddEndToEnd(m, h.setup_s(), x);
    chunks = x.chunks.size();
    quiet_chunks = QuietChunks(x.chunks).size();
    all = x.r;
  } else {
    const double half = args.seconds / 2;
    Measurement x;
    if (!h.Measure(half, /*probes=*/true, /*traced=*/false, x)) {
      return 2;
    }
    std::map<std::string, double> timed = w->TakeLayerFigures();

    // Calibration: trace ~16 operations to learn the most spans one thread
    // records per sampled operation, then sample so the traced phase fills
    // at most half of any thread's ring.
    const double rate = static_cast<double>(x.r.attempted) / x.r.wall_s;
    const double calib_s = std::min(half, kSettleSeconds * 2);
    skadi::trace::Reset();
    skadi::trace::SetSampleEvery(
        static_cast<uint32_t>(std::max(1.0, std::ceil(rate * calib_s / 16))));
    Measurement calib;
    if (!h.Measure(calib_s, /*probes=*/false, /*traced=*/true, calib)) {
      return 2;
    }
    TraceBreakdown probe = AnalyzeTrace();
    const double per_op = static_cast<double>(probe.max_events_per_thread) /
                          static_cast<double>(std::max<int64_t>(1, probe.sampled_ops));
    const uint32_t sample_every = static_cast<uint32_t>(
        std::max(1.0, std::ceil(rate * half * per_op / (kRingSlots / 2))));
    skadi::trace::Reset();
    skadi::trace::SetSampleEvery(sample_every);
    Measurement t;
    if (!h.Measure(half, /*probes=*/false, /*traced=*/true, t)) {
      return 2;
    }
    TraceBreakdown tb = AnalyzeTrace();

    std::map<std::string, double> offline = w->OfflineLayers();
    AddPerLayer(m, w->op_kind(), x, timed, t, tb, sample_every, offline);
    all = x.r;
    all.Merge(calib.r);
    all.Merge(t.r);
  }
  w->Teardown();

  // Share of the host's CPU time that went to other guests during the run:
  // context for a slow run, not a metric of the program.
  const CpuTicks ticks1 = SampleCpuTicks();
  const double steal = static_cast<double>(ticks1.steal - ticks0.steal) /
                       static_cast<double>(std::max<int64_t>(1, ticks1.total - ticks0.total));
  std::cout << "# host {\"cpu_steal_ratio\": " << steal << ", \"chunks\": " << chunks
            << ", \"quiet_chunks\": " << quiet_chunks << "}" << std::endl;
  std::cout << "{\"correct\": " << (h.wrong() == 0 ? "true" : "false")
            << ", \"attempted\": " << std::max<int64_t>(all.attempted, 1)
            << ", \"failed\": " << all.failed + all.wrong << ", \"metrics\": " << m.ToJson()
            << "}" << std::endl;
  return h.wrong() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
