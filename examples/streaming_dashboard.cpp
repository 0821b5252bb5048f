// Streaming: a live metrics "dashboard" fed by micro-batches of events.
// Each micro-batch is transformed by a hardware-agnostic IR function
// (filter bots, convert units), then folded into per-service running
// aggregates held in partitioned actor state — stateful serverless, no
// bounce through durable storage between batches.
#include <iomanip>
#include <iostream>

#include "src/access/streaming.h"
#include "src/ir/dialects.h"

using namespace skadi;

int main() {
  ClusterConfig config;
  config.racks = 2;
  config.servers_per_rack = 2;
  config.workers_per_server = 2;
  auto cluster = Cluster::Create(config);
  FunctionRegistry registry;
  SkadiRuntime runtime(cluster.get(), &registry);

  // Transform: drop bot traffic (service id < 0), convert micros -> millis.
  auto transform = std::make_shared<IrFunction>("clean");
  ValueId t = transform->AddParam(IrType::Table());
  ValueId real_traffic = EmitFilter(
      *transform, t, Expr::Binary(BinaryOp::kGe, Expr::Col("key"), Expr::Int(0)));
  ValueId in_millis = EmitProject(
      *transform, real_traffic,
      {{Expr::Col("key"), "key"},
       {Expr::Binary(BinaryOp::kDiv, Expr::Col("value"), Expr::Float(1000.0)), "value"}});
  transform->SetReturns({in_millis});

  StreamingOptions options;
  options.parallelism = 4;
  auto job = StreamingJob::Start(&runtime, transform, options);
  if (!job.ok()) {
    std::cerr << job.status().ToString() << "\n";
    return 1;
  }

  // Feed 20 micro-batches of latency samples for 5 services (+ bot noise).
  Rng rng(7);
  for (int batch = 0; batch < 20; ++batch) {
    ColumnBuilder keys(DataType::kInt64);
    ColumnBuilder values(DataType::kFloat64);
    for (int i = 0; i < 200; ++i) {
      bool bot = rng.NextBool(0.1);
      int64_t service = bot ? -1 : static_cast<int64_t>(rng.NextBounded(5));
      double latency_us = 1000.0 * (1 + service) + rng.NextGaussian() * 200.0;
      keys.AppendInt64(service);
      values.AppendFloat64(latency_us);
    }
    Schema schema({{"key", DataType::kInt64}, {"value", DataType::kFloat64}});
    auto events = RecordBatch::Make(schema, {keys.Finish(), values.Finish()});
    if (Status st = (*job)->PushBatch(*events); !st.ok()) {
      std::cerr << "push failed: " << st.ToString() << "\n";
      return 1;
    }
  }

  auto snapshot = (*job)->Snapshot();
  if (!snapshot.ok()) {
    std::cerr << snapshot.status().ToString() << "\n";
    return 1;
  }
  auto sorted = SortBatch(*snapshot, {{"key", true}});

  std::cout << "After " << (*job)->batches_processed()
            << " micro-batches (bot traffic filtered):\n";
  std::cout << "service  samples  mean latency (ms)\n";
  for (int64_t i = 0; i < sorted->num_rows(); ++i) {
    int64_t service = sorted->ColumnByName("key")->Int64At(i);
    int64_t count = sorted->ColumnByName("count")->Int64At(i);
    double mean = sorted->ColumnByName("sum")->Float64At(i) / static_cast<double>(count);
    std::cout << std::setw(7) << service << "  " << std::setw(7) << count << "  "
              << std::fixed << std::setprecision(3) << mean << "\n";
  }
  return 0;
}
