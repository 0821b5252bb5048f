// Direct tests of the autoscaler against a real raylet.
#include "src/runtime/autoscaler.h"

#include <gtest/gtest.h>

#include "tests/runtime/runtime_test_util.h"

namespace skadi {
namespace {

class AutoscalerTest : public ::testing::Test {
 protected:
  AutoscalerTest() {
    reactor_.Start(1);
    node_.id = NodeId::Next();
    node_.role = NodeRole::kServer;
    node_.device = MakeCpuDevice("as-test");
    node_.store = std::make_shared<LocalObjectStore>(node_.device.id, 1 << 20);
    EXPECT_TRUE(registry_.Register("hold", [this](TaskContext&, std::vector<Buffer>&)
                                   -> Result<std::vector<Buffer>> {
      while (hold_.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return std::vector<Buffer>{Buffer()};
    }).ok());

    Raylet::Callbacks callbacks;
    callbacks.resolve_arg = [](const ObjectRef&, const TaskSpec&) -> Result<Buffer> {
      return Buffer();
    };
    callbacks.complete = [this](const TaskSpec&, std::vector<Buffer>) {
      done_.fetch_add(1);
      return Status::Ok();
    };
    callbacks.fail = [this](const TaskSpec&, const Status&, NodeId) { done_.fetch_add(1); };
    raylet_ = std::make_unique<Raylet>(node_, &registry_, &clock_, callbacks, 1);
  }

  void EnqueueHolds(int n) {
    for (int i = 0; i < n; ++i) {
      TaskSpec spec = Call("hold", {});
      spec.id = TaskId::Next();
      ASSERT_TRUE(raylet_->Enqueue(std::make_shared<const TaskSpec>(spec)).ok());
    }
  }

  // Runs the autoscaler's ticks, as the fabric reactor does in a runtime.
  Reactor reactor_{"as-test"};
  ClusterNode node_;
  FunctionRegistry registry_;
  VirtualClock clock_;
  MetricsRegistry metrics_;
  std::unique_ptr<Raylet> raylet_;
  std::atomic<bool> hold_{true};
  std::atomic<int> done_{0};
};

TEST_F(AutoscalerTest, DisabledDoesNothing) {
  AutoscalerOptions options;
  options.enabled = false;
  Autoscaler autoscaler(options, &metrics_, &reactor_);
  autoscaler.Register(raylet_.get());
  autoscaler.Start();  // no-op
  EnqueueHolds(10);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(autoscaler.scale_ups(), 0);
  EXPECT_EQ(raylet_->num_workers(), 1u);
  hold_.store(false);
  raylet_->Shutdown();
}

TEST_F(AutoscalerTest, GrowsUnderBacklogShrinksWhenIdle) {
  AutoscalerOptions options;
  options.enabled = true;
  options.min_workers = 1;
  options.max_workers = 6;
  options.tick_interval_ms = 2;
  options.idle_ticks_before_scale_down = 2;
  Autoscaler autoscaler(options, &metrics_, &reactor_);
  autoscaler.Register(raylet_.get());
  autoscaler.Start();

  EnqueueHolds(12);
  // Wait for scale-up.
  for (int i = 0; i < 200 && raylet_->num_workers() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(autoscaler.scale_ups(), 0);
  size_t peak = raylet_->num_workers();
  EXPECT_GT(peak, 1u);
  EXPECT_LE(peak, options.max_workers);

  // Release the tasks; queue drains; scale-down follows.
  hold_.store(false);
  for (int i = 0; i < 500 && done_.load() < 12; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(done_.load(), 12);
  for (int i = 0; i < 500 && autoscaler.scale_downs() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(autoscaler.scale_downs(), 0);
  EXPECT_GE(raylet_->num_workers(), options.min_workers);

  autoscaler.Stop();
  raylet_->Shutdown();
}

TEST_F(AutoscalerTest, TracksWorkerTime) {
  AutoscalerOptions options;
  options.enabled = true;
  options.tick_interval_ms = 2;
  Autoscaler autoscaler(options, &metrics_, &reactor_);
  autoscaler.Register(raylet_.get());
  // One worker throughout (nothing queued, and min_workers is 1), so worker
  // time is the measured time from Start to the last tick before Stop, which
  // lands at most a few ms before Stop. Wheel timers fire up to a reactor
  // tick late, so counting the nominal 2 ms per tick would drift from it.
  const int64_t start = NowNanos();
  autoscaler.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  autoscaler.Stop();
  const int64_t wall = NowNanos() - start;
  EXPECT_GE(autoscaler.worker_nanos(), wall * 8 / 10);
  EXPECT_LE(autoscaler.worker_nanos(), wall);
  hold_.store(false);
  raylet_->Shutdown();
}

TEST_F(AutoscalerTest, RespectsMaxWorkers) {
  AutoscalerOptions options;
  options.enabled = true;
  options.min_workers = 1;
  options.max_workers = 3;
  options.tick_interval_ms = 1;
  Autoscaler autoscaler(options, &metrics_, &reactor_);
  autoscaler.Register(raylet_.get());
  autoscaler.Start();
  EnqueueHolds(50);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LE(raylet_->num_workers(), 3u);
  hold_.store(false);
  autoscaler.Stop();
  raylet_->Shutdown();
}

TEST_F(AutoscalerTest, ShrinksToMinWorkersAndNoLower) {
  AutoscalerOptions options;
  options.enabled = true;
  options.min_workers = 2;
  options.max_workers = 6;
  options.tick_interval_ms = 1;
  options.idle_ticks_before_scale_down = 1;
  Autoscaler autoscaler(options, &metrics_, &reactor_);
  autoscaler.Register(raylet_.get());
  autoscaler.Start();

  EnqueueHolds(12);
  for (int i = 0; i < 500 && raylet_->num_workers() <= 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(raylet_->num_workers(), 2u);

  hold_.store(false);
  for (int i = 0; i < 500 && done_.load() < 12; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(done_.load(), 12);
  for (int i = 0; i < 500 && raylet_->num_workers() > 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(raylet_->num_workers(), 2u);
  // Idle ticks keep coming; none may take the pool under min_workers.
  const int64_t downs = autoscaler.scale_downs();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(raylet_->num_workers(), 2u);
  EXPECT_EQ(autoscaler.scale_downs(), downs);

  autoscaler.Stop();
  raylet_->Shutdown();
}

TEST_F(AutoscalerTest, StoppedReactorArmsNoTick) {
  // A reactor that is already shut down refuses the first tick, so Start
  // arms nothing and Stop returns at once.
  reactor_.Shutdown();
  AutoscalerOptions options;
  options.enabled = true;
  options.tick_interval_ms = 1;
  Autoscaler autoscaler(options, &metrics_, &reactor_);
  autoscaler.Register(raylet_.get());
  autoscaler.Start();
  EnqueueHolds(10);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  autoscaler.Stop();
  EXPECT_EQ(autoscaler.worker_nanos(), 0);
  EXPECT_EQ(autoscaler.scale_ups(), 0);
  EXPECT_EQ(raylet_->num_workers(), 1u);
  EXPECT_EQ(reactor_.pending_timers(), 0u);
  hold_.store(false);
  raylet_->Shutdown();
}

}  // namespace
}  // namespace skadi
