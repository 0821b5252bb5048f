#include "src/runtime/autoscaler.h"

#include <chrono>

#include "src/common/metric_names.h"

namespace skadi {

Autoscaler::Autoscaler(AutoscalerOptions options, MetricsRegistry* metrics)
    : options_(options),
      scale_ups_ctr_(&metrics->GetCounter(names::kAutoscalerScaleUps)),
      scale_downs_ctr_(&metrics->GetCounter(names::kAutoscalerScaleDowns)) {}

void Autoscaler::Start() {
  if (!options_.enabled || running_.exchange(true)) {
    return;
  }
  thread_ = std::thread([this] {
    while (running_.load()) {
      Tick();
      std::this_thread::sleep_for(std::chrono::milliseconds(options_.tick_interval_ms));
    }
  });
}

void Autoscaler::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  if (thread_.joinable()) {
    thread_.join();
  }
}

void Autoscaler::Tick() {
  MutexLock lock(mu_);
  const int64_t tick_nanos = static_cast<int64_t>(options_.tick_interval_ms) * 1000000;
  for (TrackedRaylet& tracked : tracked_) {
    Raylet* raylet = tracked.raylet;
    if (raylet->dead()) {
      continue;
    }
    size_t workers = raylet->num_workers();
    size_t queued = raylet->queue_depth();
    worker_nanos_.fetch_add(static_cast<int64_t>(workers) * tick_nanos);

    if (queued > 0 &&
        static_cast<double>(queued) >
            options_.scale_up_queue_per_worker * static_cast<double>(workers) &&
        workers < options_.max_workers) {
      size_t grow = std::min(options_.max_workers - workers,
                             queued / static_cast<size_t>(options_.scale_up_queue_per_worker));
      if (grow == 0) {
        grow = 1;
      }
      raylet->GrowWorkers(grow);
      scale_ups_.fetch_add(static_cast<int64_t>(grow));
      scale_ups_ctr_->Add(static_cast<int64_t>(grow));
      tracked.idle_ticks = 0;
      continue;
    }

    if (queued == 0) {
      ++tracked.idle_ticks;
      if (tracked.idle_ticks >= options_.idle_ticks_before_scale_down &&
          workers > options_.min_workers) {
        raylet->ShrinkWorkers(1);
        scale_downs_.fetch_add(1);
        scale_downs_ctr_->Increment();
        tracked.idle_ticks = 0;
      }
    } else {
      tracked.idle_ticks = 0;
    }
  }
}

}  // namespace skadi
