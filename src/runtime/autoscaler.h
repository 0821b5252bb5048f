// Worker autoscaler: the pay-as-you-go half of the serverless principle.
// Periodically samples each raylet's queue depth and grows/shrinks its
// worker pool within [min, max]; integrates worker-time so experiments can
// report the cost side (worker-seconds) next to the latency side.
#ifndef SRC_RUNTIME_AUTOSCALER_H_
#define SRC_RUNTIME_AUTOSCALER_H_

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/mutex.h"
#include "src/runtime/raylet.h"

namespace skadi {

struct AutoscalerOptions {
  bool enabled = false;
  size_t min_workers = 1;
  size_t max_workers = 8;
  // Scale up when queued tasks per worker exceed this.
  double scale_up_queue_per_worker = 2.0;
  // Scale down when the queue has been empty for this many consecutive ticks.
  int idle_ticks_before_scale_down = 3;
  int tick_interval_ms = 5;
};

class Autoscaler {
 public:
  Autoscaler(AutoscalerOptions options, MetricsRegistry* metrics);

  ~Autoscaler() { Stop(); }

  void Register(Raylet* raylet) {
    MutexLock lock(mu_);
    tracked_.push_back(TrackedRaylet{raylet, 0});
  }

  void Start();
  void Stop();

  int64_t scale_ups() const { return scale_ups_.load(); }
  int64_t scale_downs() const { return scale_downs_.load(); }
  // Integrated worker occupancy: sum over ticks of (workers * tick length).
  int64_t worker_nanos() const { return worker_nanos_.load(); }

 private:
  struct TrackedRaylet {
    Raylet* raylet;
    int idle_ticks;
  };

  void Tick();

  AutoscalerOptions options_;
  // Metric handles, resolved once at construction.
  Counter* scale_ups_ctr_;
  Counter* scale_downs_ctr_;

  Mutex mu_;
  std::vector<TrackedRaylet> tracked_ GUARDED_BY(mu_);

  std::atomic<bool> running_{false};
  std::thread thread_;
  std::atomic<int64_t> scale_ups_{0};
  std::atomic<int64_t> scale_downs_{0};
  std::atomic<int64_t> worker_nanos_{0};
};

}  // namespace skadi

#endif  // SRC_RUNTIME_AUTOSCALER_H_
