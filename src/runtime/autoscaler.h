// Worker autoscaler: the pay-as-you-go half of the serverless principle.
// A self-re-arming timer on a reactor the autoscaler does not own (the
// runtime passes the fabric reactor) samples each raylet's queue depth and
// grows/shrinks its worker pool within [min, max]; integrates worker-time so
// experiments can report the cost side (worker-seconds) next to the latency
// side.
#ifndef SRC_RUNTIME_AUTOSCALER_H_
#define SRC_RUNTIME_AUTOSCALER_H_

#include <atomic>
#include <memory>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/mutex.h"
#include "src/net/reactor.h"
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
  // Ticks run on `reactor`, which must outlive the autoscaler.
  Autoscaler(AutoscalerOptions options, MetricsRegistry* metrics, Reactor* reactor);

  ~Autoscaler() { Stop(); }

  void Register(Raylet* raylet) {
    MutexLock lock(mu_);
    tracked_.push_back(TrackedRaylet{raylet, 0});
  }

  // Arms the first tick; a no-op when disabled or already started.
  void Start();
  // Cancels the armed tick and waits out one that is already running, so no
  // Tick runs after Stop returns. Idempotent; Start may follow.
  void Stop();

  int64_t scale_ups() const { return scale_ups_.load(); }
  int64_t scale_downs() const { return scale_downs_.load(); }
  // Integrated worker occupancy: sum over ticks of (workers * measured time
  // since the previous tick).
  int64_t worker_nanos() const { return worker_nanos_.load(); }

 private:
  struct TrackedRaylet {
    Raylet* raylet;
    int idle_ticks;
  };
  // The armed tick holds only a weak_ptr to this (DESIGN.md §14).
  struct TickGate {
    Autoscaler* self;
  };

  void Tick();
  // Arms the next tick for `deadline_nanos` (NowNanos time).
  void ArmLocked(int64_t deadline_nanos) REQUIRES(mu_);

  AutoscalerOptions options_;
  Reactor* reactor_;
  // Metric handles, resolved once at construction.
  Counter* scale_ups_ctr_;
  Counter* scale_downs_ctr_;

  Mutex mu_;
  std::vector<TrackedRaylet> tracked_ GUARDED_BY(mu_);
  // Non-null while started; Stop revokes it.
  std::shared_ptr<TickGate> gate_ GUARDED_BY(mu_);
  TimerId timer_ GUARDED_BY(mu_) = 0;
  // Deadline of the armed tick. Each tick is due one interval after the
  // previous deadline, not after the previous tick ran, so the wheel's
  // round-up to its next 1 ms tick does not lengthen every interval.
  int64_t next_tick_nanos_ GUARDED_BY(mu_) = 0;
  int64_t last_tick_nanos_ GUARDED_BY(mu_) = 0;

  std::atomic<int64_t> scale_ups_{0};
  std::atomic<int64_t> scale_downs_{0};
  std::atomic<int64_t> worker_nanos_{0};
};

}  // namespace skadi

#endif  // SRC_RUNTIME_AUTOSCALER_H_
