// Splits the recorded spans of sampled operations into self time per span
// name. Only traces rooted at the benchmark's kOpSpan count: those hold
// every span the runtime recorded for one operation, on any thread.
#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "perfbench/perfbench.h"
#include "src/common/metric_names.h"
#include "src/common/trace.h"

namespace perfbench {

std::string ModuleOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

namespace {

using skadi::trace::TraceEvent;

// Length of [start, end) covered by the union of `children` clipped to it.
int64_t CoveredNanos(int64_t start, int64_t end,
                     std::vector<std::pair<int64_t, int64_t>>& children) {
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  int64_t cursor = start;
  for (auto [s, e] : children) {
    s = std::max(s, cursor);
    e = std::min(e, end);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

}  // namespace

TraceBreakdown AnalyzeTrace() {
  std::vector<TraceEvent> events = skadi::trace::Snapshot();
  TraceBreakdown out;

  std::unordered_map<uint32_t, int64_t> per_thread;
  std::unordered_set<uint64_t> op_traces;  // trace ids rooted at kOpSpan
  for (const TraceEvent& e : events) {
    per_thread[e.tid]++;
    if (e.phase == 0 && e.parent_id == 0 && std::string(e.name) == kOpSpan) {
      op_traces.insert(e.trace_id);
    }
  }
  for (const auto& [tid, n] : per_thread) {
    out.max_events_per_thread = std::max(out.max_events_per_thread, n);
  }

  // Children intervals per parent span, within sampled operation traces.
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  std::unordered_map<uint64_t, std::vector<const TraceEvent*>> by_parent;
  std::vector<const TraceEvent*> spans;
  for (const TraceEvent& e : events) {
    if (e.phase != 0 || op_traces.count(e.trace_id) == 0) {
      continue;
    }
    spans.push_back(&e);
    if (e.parent_id != 0) {
      children[e.parent_id].emplace_back(e.start_nanos, e.start_nanos + e.duration_nanos);
      by_parent[e.parent_id].push_back(&e);
    }
  }

  // Per trace: the root and every other span's interval.
  std::unordered_map<uint64_t, const TraceEvent*> roots;
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> in_trace;
  for (const TraceEvent* e : spans) {
    if (e->parent_id == 0) {
      roots[e->trace_id] = e;
    } else {
      in_trace[e->trace_id].emplace_back(e->start_nanos, e->start_nanos + e->duration_nanos);
    }
  }
  for (auto& [trace_id, root] : roots) {
    out.sampled_ops++;
    out.root_wall_us += static_cast<double>(root->duration_nanos) / 1000.0;
    const int64_t end = root->start_nanos + root->duration_nanos;
    out.covered_wall_us +=
        static_cast<double>(CoveredNanos(root->start_nanos, end, in_trace[trace_id])) / 1000.0;
  }

  double wait_sum_us = 0.0;
  for (const TraceEvent* e : spans) {
    const int64_t end = e->start_nanos + e->duration_nanos;
    auto it = children.find(e->span_id);
    int64_t covered = it == children.end()
                          ? 0
                          : CoveredNanos(e->start_nanos, end, it->second);
    out.self_us[e->name] += static_cast<double>(e->duration_nanos - covered) / 1000.0;
    if (std::string(e->name) != skadi::names::kSpanRuntimeSubmit) {
      continue;
    }
    // A submit span parents its task's dispatch(es) and its execution.
    const TraceEvent* run = nullptr;
    for (const TraceEvent* c : by_parent[e->span_id]) {
      if (std::string(c->name) == skadi::names::kSpanRayletRunTask &&
          (run == nullptr || c->start_nanos < run->start_nanos)) {
        run = c;
      }
    }
    if (run == nullptr) {
      continue;
    }
    // The dispatch that handed the task over is the last one to start before
    // the run; a worker may pick the task up before that dispatch returns.
    const TraceEvent* dispatch = nullptr;
    for (const TraceEvent* c : by_parent[e->span_id]) {
      if (std::string(c->name) == skadi::names::kSpanSchedulerDispatch &&
          c->start_nanos <= run->start_nanos &&
          (dispatch == nullptr || c->start_nanos > dispatch->start_nanos)) {
        dispatch = c;
      }
    }
    if (dispatch != nullptr) {
      int64_t dispatch_end = dispatch->start_nanos + dispatch->duration_nanos;
      wait_sum_us +=
          static_cast<double>(std::max<int64_t>(0, run->start_nanos - dispatch_end)) / 1000.0;
      out.queue_wait_samples++;
    }
  }
  if (out.queue_wait_samples > 0) {
    out.queue_wait_us = wait_sum_us / static_cast<double>(out.queue_wait_samples);
  }
  return out;
}

}  // namespace perfbench
