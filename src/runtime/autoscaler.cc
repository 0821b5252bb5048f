#include "src/runtime/autoscaler.h"

#include <algorithm>
#include <thread>

#include "src/common/metric_names.h"

namespace skadi {

Autoscaler::Autoscaler(AutoscalerOptions options, MetricsRegistry* metrics,
                       Reactor* reactor)
    : options_(options),
      reactor_(reactor),
      scale_ups_ctr_(&metrics->GetCounter(names::kAutoscalerScaleUps)),
      scale_downs_ctr_(&metrics->GetCounter(names::kAutoscalerScaleDowns)) {}

void Autoscaler::Start() {
  MutexLock lock(mu_);
  if (!options_.enabled || gate_ != nullptr) {
    return;
  }
  gate_ = std::make_shared<TickGate>(TickGate{this});
  last_tick_nanos_ = NowNanos();
  ArmLocked(last_tick_nanos_);  // the first tick runs at once
}

void Autoscaler::Stop() {
  std::weak_ptr<TickGate> gone;
  {
    MutexLock lock(mu_);
    if (gate_ == nullptr) {
      return;
    }
    reactor_->Cancel(timer_);  // may have fired
    timer_ = 0;
    gone = gate_;
    gate_.reset();
  }
  // A tick that fired before the Cancel holds the gate until it returns;
  // it finds gate_ reset under mu_ and does nothing.
  while (!gone.expired()) {
    std::this_thread::yield();
  }
}

void Autoscaler::ArmLocked(int64_t deadline_nanos) {
  next_tick_nanos_ = deadline_nanos;
  std::weak_ptr<TickGate> gate = gate_;
  // A stopped reactor returns 0: no further ticks, and Stop's Cancel(0) is
  // a no-op.
  timer_ = reactor_->ScheduleAfter(deadline_nanos - NowNanos(), [gate] {
    std::shared_ptr<TickGate> live = gate.lock();
    if (live != nullptr) {
      live->self->Tick();
    }
  });
}

void Autoscaler::Tick() {
  MutexLock lock(mu_);
  if (gate_ == nullptr) {
    return;  // stopped after this tick fired
  }
  // A wheel timer fires on the first reactor tick at or after its deadline,
  // so real intervals vary around the nominal one: integrate what elapsed.
  const int64_t now = NowNanos();
  const int64_t elapsed_nanos = now - last_tick_nanos_;
  last_tick_nanos_ = now;
  for (TrackedRaylet& tracked : tracked_) {
    Raylet* raylet = tracked.raylet;
    if (raylet->dead()) {
      continue;
    }
    size_t workers = raylet->num_workers();
    size_t queued = raylet->queue_depth();
    worker_nanos_.fetch_add(static_cast<int64_t>(workers) * elapsed_nanos);

    if (queued > 0 &&
        static_cast<double>(queued) >
            options_.scale_up_queue_per_worker * static_cast<double>(workers) &&
        workers < options_.max_workers) {
      size_t grow = std::min(options_.max_workers - workers,
                             queued / static_cast<size_t>(options_.scale_up_queue_per_worker));
      if (grow == 0) {
        grow = 1;
      }
      // Count before resizing, so whoever sees the new pool size also sees
      // the step that made it.
      scale_ups_.fetch_add(static_cast<int64_t>(grow));
      scale_ups_ctr_->Add(static_cast<int64_t>(grow));
      raylet->GrowWorkers(grow);
      tracked.idle_ticks = 0;
      continue;
    }

    if (queued == 0) {
      ++tracked.idle_ticks;
      if (tracked.idle_ticks >= options_.idle_ticks_before_scale_down &&
          workers > options_.min_workers) {
        scale_downs_.fetch_add(1);
        scale_downs_ctr_->Increment();
        raylet->ShrinkWorkers(1);
        tracked.idle_ticks = 0;
      }
    } else {
      tracked.idle_ticks = 0;
    }
  }
  // A tick that ran more than an interval late does not fire a catch-up
  // burst.
  ArmLocked(std::max(next_tick_nanos_ +
                         static_cast<int64_t>(options_.tick_interval_ms) * 1'000'000,
                     now));
}

}  // namespace skadi
