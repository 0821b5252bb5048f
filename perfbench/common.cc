#include <time.h>

#include <algorithm>
#include <fstream>
#include <numeric>
#include <sstream>

#include "perfbench/perfbench.h"

namespace perfbench {

skadi::SkadiOptions BaseOptions() {
  skadi::SkadiOptions options;
  options.cluster.racks = 2;
  options.cluster.servers_per_rack = 1;
  options.cluster.workers_per_server = 2;
  options.cluster.realize_fraction = 0.0;
  return options;
}

std::string ClusterShape() {
  skadi::SkadiOptions o = BaseOptions();
  std::ostringstream os;
  os << o.cluster.racks << "x" << o.cluster.servers_per_rack << "x"
     << o.cluster.workers_per_server;
  return os.str();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

ProcessSample SampleProcess() {
  ProcessSample s;
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      s.rss_bytes = std::stoll(line.substr(6)) * 1024;
    } else if (line.rfind("Threads:", 0) == 0) {
      s.threads = std::stoi(line.substr(8));
    }
  }
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  s.cpu_s = static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
  return s;
}

CpuTicks SampleCpuTicks() {
  CpuTicks t;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  int64_t v = 0;
  stat >> cpu;
  for (int field = 0; field < 8 && stat >> v; ++field) {
    t.total += v;
    if (field == 7) {
      t.steal = v;
    }
  }
  return t;
}

void PhaseResult::Merge(const PhaseResult& other) {
  wall_s += other.wall_s;
  attempted += other.attempted;
  failed += other.failed;
  wrong += other.wrong;
  for (int k = 0; k < 2; ++k) {
    latency_ms[k].insert(latency_ms[k].end(), other.latency_ms[k].begin(),
                         other.latency_ms[k].end());
    end_nanos[k].insert(end_nanos[k].end(), other.end_nanos[k].begin(),
                        other.end_nanos[k].end());
  }
  payload_bytes += other.payload_bytes;
}

void CompletionQueue::Post(const Completion& c) {
  std::lock_guard<std::mutex> lock(mu_);
  done_.push_back(c);
  cv_.notify_one();
}

bool CompletionQueue::Take(std::vector<Completion>& out, int64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                    [this] { return !done_.empty(); })) {
    return false;
  }
  out.swap(done_);
  return true;
}

PhaseResult RunWindow(int window, double seconds, int64_t drain_timeout_ms,
                      const StartFn& start, const FinishFn& finish) {
  struct Slot {
    int kind = 0;
    int64_t start = 0;
  };
  PhaseResult out;
  // Shared with the continuations, so one that fires after a drain timeout
  // still posts into live memory.
  auto queue = std::make_shared<CompletionQueue>();
  std::vector<Slot> slots(static_cast<size_t>(window));
  std::vector<int> free_slots;
  for (int i = window - 1; i >= 0; --i) {
    free_slots.push_back(i);
  }
  const int64_t begin = NowNanos();
  const int64_t deadline = begin + static_cast<int64_t>(seconds * 1e9);
  int in_flight = 0;
  std::vector<Completion> batch;
  while (true) {
    while (!free_slots.empty() && NowNanos() < deadline) {
      const int s = free_slots.back();
      Slot& slot = slots[static_cast<size_t>(s)];
      out.attempted++;
      slot.start = NowNanos();
      slot.kind = start(s, queue);
      if (slot.kind < 0) {
        out.failed++;
        continue;
      }
      free_slots.pop_back();
      in_flight++;
    }
    if (in_flight == 0) {
      if (NowNanos() >= deadline) {
        break;
      }
      continue;
    }
    if (!queue->Take(batch, drain_timeout_ms)) {
      out.failed += in_flight;
      break;
    }
    for (const Completion& c : batch) {
      const Slot& slot = slots[static_cast<size_t>(c.slot)];
      if (!c.ok) {
        out.failed++;
      } else if (!c.right) {
        out.wrong++;
      } else {
        out.Record(slot.kind, slot.start, c.end_nanos);
      }
      finish(c.slot);
      free_slots.push_back(c.slot);
      in_flight--;
    }
    batch.clear();
  }
  out.wall_s = static_cast<double>(NowNanos() - begin) / 1e9;
  return out;
}

OpTrace BeginOpTrace() {
  namespace trace = skadi::trace;
  OpTrace op;
  op.root = trace::BeginSpan(kOpSpan, trace::Context{});
  if (op.root.active) {
    op.ctx = op.root.ctx;
  } else if (trace::Enabled()) {
    op.ctx.trace_id = trace::Context::kUnsampledTraceId;
  }
  return op;
}

}  // namespace perfbench
