// ISSUE 8 acceptance: with tracing on, a cross-node Submit -> schedule ->
// run -> Get flow reconstructs as ONE connected span tree — parent links
// survive the scheduler hop, the fabric hop to the executing raylet, and
// the watcher and fetch continuations that resolve the future.
//
// The test also writes the observability artifacts other tooling consumes:
//   trace_plane.trace.json   — Chrome-trace JSON (tools/trace.py validates
//                              it in tools/check.sh; CI uploads it)
//   trace_plane.metrics.json — MetricsRegistry dump
// and on ANY assertion failure dumps both (suffixed .fail) for triage.
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/metric_names.h"
#include "src/common/trace.h"

#include "tests/runtime/runtime_test_util.h"

namespace skadi {
namespace {

class TracePlaneTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::Reset();
    trace::SetSampleEvery(1);
    trace::SetEnabled(true);
    ClusterConfig config;
    config.racks = 2;
    config.servers_per_rack = 3;
    config.workers_per_server = 2;
    cluster_ = Cluster::Create(config);
    RegisterTestFunctions(registry_);
    runtime_ = std::make_unique<SkadiRuntime>(cluster_.get(), &registry_, RuntimeOptions{});
  }

  void TearDown() override {
    trace::SetEnabled(false);
    if (HasFailure() && runtime_ != nullptr) {
      // Failure triage dump: the full trace and metrics surface at the
      // moment the assertion tripped.
      (void)trace::WriteChromeTraceFile("trace_plane.fail.trace.json");
      std::ofstream mf("trace_plane.fail.metrics.json");
      if (mf) {
        mf << runtime_->metrics().ToJson();
      }
    }
    runtime_.reset();
    cluster_.reset();
    trace::Reset();
  }

  std::unique_ptr<Cluster> cluster_;
  FunctionRegistry registry_;
  std::unique_ptr<SkadiRuntime> runtime_;
};

bool Named(const trace::TraceEvent& e, const char* name) {
  return e.name != nullptr && std::strcmp(e.name, name) == 0;
}

TEST_F(TracePlaneTest, CrossNodeSubmitRunGetIsOneConnectedSpanTree) {
  // One driver-side root brackets the whole flow, exactly as an application
  // would trace a job: Submit and Get both parent under it, so the chain
  // has a single root to hang from.
  uint64_t driver_trace = 0;
  {
    trace::TraceSpan driver("test.driver.job");
    ASSERT_TRUE(driver.active());
    driver_trace = driver.context().trace_id;

    // A dependency chain forces scheduling, argument resolution through the
    // ownership/caching layers, and fabric transfers between nodes.
    ObjectRef current;
    for (int i = 0; i < 4; ++i) {
      TaskSpec spec = Call("inc_i64", {i == 0 ? TaskArg::Value(I64Buffer(100))
                                              : TaskArg::Ref(current)});
      auto refs = runtime_->Submit(std::move(spec));
      ASSERT_TRUE(refs.ok()) << refs.status().ToString();
      current = (*refs)[0];
    }
    auto result = runtime_->Get(current, 30000);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(I64Of(*result), 104);
  }
  // Get returns once the last output is ready, which can be before the
  // worker that produced it closes its raylet.run_task span. Drain the
  // raylets so every span is recorded before the snapshot.
  runtime_->Shutdown();

  std::vector<trace::TraceEvent> all = trace::Snapshot();

  // Restrict to the driver's trace and index its spans.
  std::map<uint64_t, trace::TraceEvent> spans;  // span_id -> event
  std::vector<trace::TraceEvent> in_trace;
  for (const trace::TraceEvent& e : all) {
    if (e.trace_id != driver_trace) {
      continue;
    }
    in_trace.push_back(e);
    if (e.phase == 0) {
      spans[e.span_id] = e;
    }
  }
  ASSERT_FALSE(in_trace.empty());

  // Every stage of the flow shows up in this one trace.
  for (const char* required :
       {names::kSpanRuntimeSubmit, names::kSpanSchedulerDispatch,
        names::kSpanRayletRunTask, names::kSpanRayletCompute,
        names::kSpanRuntimeGet}) {
    bool found = false;
    for (const trace::TraceEvent& e : in_trace) {
      if (Named(e, required)) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "span '" << required << "' missing from the trace";
  }

  // Connectivity: exactly one root, and every other event's parent is a
  // recorded span of the same trace — the links survived every hop.
  int roots = 0;
  for (const trace::TraceEvent& e : in_trace) {
    if (e.parent_id == 0) {
      ++roots;
      EXPECT_TRUE(Named(e, "test.driver.job"));
    } else {
      EXPECT_TRUE(spans.count(e.parent_id) > 0)
          << "event '" << e.name << "' has dangling parent " << e.parent_id;
    }
  }
  EXPECT_EQ(roots, 1);

  // The tree genuinely crossed threads (driver, scheduler path, raylet
  // workers, reactor drivers).
  std::set<uint32_t> tids;
  for (const trace::TraceEvent& e : in_trace) {
    tids.insert(e.tid);
  }
  EXPECT_GE(tids.size(), 2u);

  // Export the artifacts for tools/trace.py (check.sh) and CI upload.
  Status st = trace::WriteChromeTraceFile("trace_plane.trace.json");
  EXPECT_TRUE(st.ok()) << st.ToString();
  std::ofstream mf("trace_plane.metrics.json");
  ASSERT_TRUE(mf.good());
  mf << runtime_->metrics().ToJson();
}

TEST_F(TracePlaneTest, RuntimeStatsSurfaceCoversHotSubsystems) {
  // Drive a little traffic, then check the registry actually surfaces the
  // per-subsystem series the tentpole wired up.
  ObjectRef current;
  for (int i = 0; i < 3; ++i) {
    TaskSpec spec = Call("inc_i64", {i == 0 ? TaskArg::Value(I64Buffer(0))
                                            : TaskArg::Ref(current)});
    auto refs = runtime_->Submit(std::move(spec));
    ASSERT_TRUE(refs.ok());
    current = (*refs)[0];
  }
  ASSERT_TRUE(runtime_->Get(current, 30000).ok());
  runtime_->Shutdown();  // the last task's raylet.task_nanos sample lands after Get

  MetricsRegistry& m = runtime_->metrics();
  EXPECT_EQ(m.GetCounter(names::kRuntimeTasksSubmitted).value(), 3);
  EXPECT_GE(m.GetCounter(names::kSchedulerDispatched).value(), 3);
  EXPECT_GE(m.GetHistogram(names::kRayletTaskNanos).count(), 3);
  EXPECT_GE(m.GetHistogram(names::kRuntimeGetNanos).count(), 1);
  // The chain parks dependents until their input is ready: watcher telemetry
  // must have seen registrations, and the gauge must drain back.
  EXPECT_GE(m.GetCounter(names::kOwnershipWatchRegistrations).value(), 0);
  std::string json = m.ToJson();
  for (const char* key : {"counters", "gauges", "histograms"}) {
    EXPECT_NE(json.find("\"" + std::string(key) + "\""), std::string::npos);
  }
}

}  // namespace
}  // namespace skadi
