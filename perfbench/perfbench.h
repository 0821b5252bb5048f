// End-to-end benchmark of the Skadi runtime: shared types for the workload
// drivers (sql_workloads.cc, task_actor.cc, spill_pipeline.cc) and the
// harness that times them (main.cc, common.cc, trace_breakdown.cc).
//
// Every workload runs on the same emulated cluster (BaseOptions below):
// 2 racks x 1 server x 2 workers, realize_fraction = 0, default
// RuntimeOptions. A workload generates its inputs and reference results from
// the seed, builds a fresh Skadi instance in Setup(), and runs a closed loop
// of operations in Run(). Run() checks every output it receives against the
// reference; a wrong output is counted apart from failed (error / timeout)
// operations.
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/trace.h"
#include "src/core/skadi.h"

namespace perfbench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Name of the benchmark's own root span: one per operation, so every span
// the runtime records for that operation lands in one trace.
inline constexpr char kOpSpan[] = "perfbench.op";

// The cluster every workload runs on; workloads only change store and blade
// sizes.
skadi::SkadiOptions BaseOptions();
std::string ClusterShape();

// Outcome of one timed closed-loop phase.
struct PhaseResult {
  double wall_s = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;  // error status or deadline exceeded
  int64_t wrong = 0;   // completed, but the output differs from the reference
  // Latency in milliseconds and completion time of each correct operation;
  // kind 0 is the workload's main operation (query, echo task, chain),
  // kind 1 an actor call.
  std::vector<double> latency_ms[2];
  std::vector<int64_t> end_nanos[2];
  // Payload bytes the completed operations pushed through the pipeline.
  int64_t payload_bytes = 0;

  void Record(int kind, int64_t start_nanos, int64_t end) {
    latency_ms[kind].push_back(static_cast<double>(end - start_nanos) / 1e6);
    end_nanos[kind].push_back(end);
  }
  void Merge(const PhaseResult& other);
};

// What one operation of a workload is.
enum class OpKind { kQuery, kTask, kChain };

class Workload {
 public:
  virtual ~Workload() = default;

  virtual OpKind op_kind() const = 0;
  // Length of the chunks a timed segment is split into to find the quiet
  // stretches (see QuietChunks in main.cc): short enough to fit between the
  // host's bursts of CPU steal, long enough to hold tens of operations.
  virtual double chunk_seconds() const { return 0.1; }

  // Generates inputs and reference results from `seed` (untimed). `smoke`
  // selects small inputs.
  virtual void Prepare(uint64_t seed, bool smoke) = 0;
  // Builds a fresh Skadi instance and loads the workload's state (tables,
  // actors, functions) so the first operation can run. Replaces the previous
  // instance.
  virtual skadi::Status Setup() = 0;
  // Destroys the Skadi instance, if any.
  virtual void Teardown() = 0;
  // Runs the closed loop for about `seconds`, draining every operation it
  // started before returning. Opens a kOpSpan root around each operation.
  virtual PhaseResult Run(double seconds) = 0;
  // Per-layer figures the workload timed itself during the Run calls since
  // the last call (submit latency, actor order violations); clears them.
  virtual std::map<std::string, double> TakeLayerFigures() { return {}; }
  // Per-layer figures measured outside the timed phases (SQL front end,
  // kernels on the workload's own data). Runs after the phases.
  virtual std::map<std::string, double> OfflineLayers() { return {}; }
  virtual skadi::Skadi& skadi() = 0;
};

// --- closed loop over asynchronous operations (common.cc) ---

// Outcome of one asynchronous operation, posted from whichever thread runs
// its GetAsync continuation.
struct Completion {
  int slot = 0;
  bool ok = false;     // resolved without error
  bool right = false;  // the value matched the reference
  int64_t end_nanos = 0;
};

class CompletionQueue {
 public:
  void Post(const Completion& c);
  // Moves all posted completions into `out`, waiting up to `timeout_ms` for
  // the first; false when none arrived in time.
  bool Take(std::vector<Completion>& out, int64_t timeout_ms);

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Completion> done_;
};

// Starts the operation in `slot`; its continuation must Post exactly one
// Completion for that slot to `queue`. Returns the latency kind (0 or 1),
// or -1 when the operation failed to start.
using StartFn = std::function<int(int slot, const std::shared_ptr<CompletionQueue>& queue)>;
// Runs on the driver thread once the slot's operation completed.
using FinishFn = std::function<void(int slot)>;

// Keeps `window` operations in flight for `seconds`, then drains them.
// Latency is from the start call to the completion. An operation whose
// completion does not arrive within `drain_timeout_ms` counts as failed.
PhaseResult RunWindow(int window, double seconds, int64_t drain_timeout_ms,
                      const StartFn& start, const FinishFn& finish);

// Root span of one asynchronous operation. Install `ctx` around the calls
// that start the operation and pass `root` to EndSpan on completion. An
// unsampled root still marks the flow, so the runtime's spans under it do
// not start roots of their own.
struct OpTrace {
  skadi::trace::SpanHandle root;
  skadi::trace::Context ctx;
};
OpTrace BeginOpTrace();

std::unique_ptr<Workload> MakeSqlDashboard();
std::unique_ptr<Workload> MakeSqlAnalytic();
std::unique_ptr<Workload> MakeTaskActor();
std::unique_ptr<Workload> MakeSpillPipeline();

// --- statistics and process probes (common.cc) ---

// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

struct ProcessSample {
  int64_t rss_bytes = 0;
  double cpu_s = 0.0;
  int threads = 0;
};
ProcessSample SampleProcess();

// Host-wide CPU time from /proc/stat: all of it, and the part the
// hypervisor gave to other guests (steal).
struct CpuTicks {
  int64_t total = 0;
  int64_t steal = 0;
};
CpuTicks SampleCpuTicks();

// --- trace breakdown (trace_breakdown.cc) ---

struct TraceBreakdown {
  int64_t sampled_ops = 0;
  // Sum of kOpSpan root durations over sampled operations.
  double root_wall_us = 0.0;
  // The part of root_wall_us during which at least one other span of the
  // operation was open, on any thread.
  double covered_wall_us = 0.0;
  // Self time (span duration minus the part its child spans cover), summed
  // per span name over sampled operations; the root's own self time is
  // under kOpSpan.
  std::map<std::string, double> self_us;
  // Mean time from the end of a task's last scheduler.dispatch to the start
  // of its raylet.run_task (siblings under one runtime.submit).
  double queue_wait_us = 0.0;
  int64_t queue_wait_samples = 0;
  // Largest event count any one thread's ring held; equal to the ring size
  // means the ring may have wrapped.
  int64_t max_events_per_thread = 0;
};

TraceBreakdown AnalyzeTrace();

// Module a span name belongs to: the text before the first dot.
std::string ModuleOf(const std::string& span_name);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
