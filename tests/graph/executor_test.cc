// End-to-end: logical FlowGraph -> physical sharded graph -> tasks on the
// stateful serverless runtime (the full Figure 2 path).
#include "src/graph/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/format/serde.h"
#include "src/ir/dialects.h"

namespace skadi {
namespace {

class GraphExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterConfig config;
    config.racks = 2;
    config.servers_per_rack = 2;
    config.workers_per_server = 2;
    cluster_ = Cluster::Create(config);
    runtime_ = std::make_unique<SkadiRuntime>(cluster_.get(), &registry_);
  }

  RecordBatch NumbersBatch(int64_t from, int64_t to) {
    ColumnBuilder xs(DataType::kInt64);
    ColumnBuilder gs(DataType::kInt64);
    for (int64_t i = from; i < to; ++i) {
      xs.AppendInt64(i);
      gs.AppendInt64(i % 5);
    }
    Schema schema({{"x", DataType::kInt64}, {"g", DataType::kInt64}});
    auto batch = RecordBatch::Make(schema, {xs.Finish(), gs.Finish()});
    return std::move(batch).value();
  }

  ObjectRef PutBatch(const RecordBatch& batch) {
    auto ref = runtime_->Put(SerializeBatchIpc(batch));
    EXPECT_TRUE(ref.ok());
    return *ref;
  }

  Result<RecordBatch> GetBatch(const ObjectRef& ref) {
    SKADI_ASSIGN_OR_RETURN(Buffer buffer, runtime_->Get(ref));
    return DeserializeBatchIpc(buffer);
  }

  std::shared_ptr<IrFunction> FilterGt(int64_t threshold) {
    auto fn = std::make_shared<IrFunction>("flt");
    ValueId t = fn->AddParam(IrType::Table());
    ValueId f = EmitFilter(
        *fn, t, Expr::Binary(BinaryOp::kGt, Expr::Col("x"), Expr::Int(threshold)));
    fn->SetReturns({f});
    return fn;
  }

  std::shared_ptr<IrFunction> SumByG() {
    auto fn = std::make_shared<IrFunction>("agg");
    ValueId t = fn->AddParam(IrType::Table());
    ValueId a = EmitAggregate(*fn, t, {"g"}, {{AggKind::kSum, "x", "sum_x"}});
    fn->SetReturns({a});
    return fn;
  }

  std::shared_ptr<IrFunction> CountBy(const std::string& key) {
    auto fn = std::make_shared<IrFunction>("count_by_" + key);
    ValueId t = fn->AddParam(IrType::Table());
    ValueId a = EmitAggregate(*fn, t, {key}, {{AggKind::kCount, "*", "n"}});
    fn->SetReturns({a});
    return fn;
  }

  std::shared_ptr<IrFunction> Identity() {
    auto fn = std::make_shared<IrFunction>("id");
    ValueId t = fn->AddParam(IrType::Table());
    fn->SetReturns({t});
    return fn;
  }

  // Concatenates a sink's shard outputs, sorted by `key`.
  Result<RecordBatch> SinkSortedBy(const GraphRunResult& run, VertexId sink,
                                   const std::string& key) {
    std::vector<RecordBatch> pieces;
    for (const ObjectRef& ref : run.sink_outputs.at(sink)) {
      SKADI_ASSIGN_OR_RETURN(RecordBatch piece, GetBatch(ref));
      pieces.push_back(std::move(piece));
    }
    SKADI_ASSIGN_OR_RETURN(RecordBatch merged, ConcatBatches(pieces));
    return SortBatch(merged, {{key, true}});
  }

  std::unique_ptr<Cluster> cluster_;
  FunctionRegistry registry_;
  std::unique_ptr<SkadiRuntime> runtime_;
};

TEST_F(GraphExecTest, SingleVertexFilter) {
  FlowGraph g;
  VertexId v = g.AddIrVertex("filter", FilterGt(90), OpClass::kFilter);
  g.vertex(v)->parallelism_hint = 1;

  LoweringOptions options;
  auto physical = LowerToPhysical(g, options, &registry_);
  ASSERT_TRUE(physical.ok());

  GraphExecutor executor(runtime_.get());
  auto result = executor.RunToCompletion(*physical, {{v, {PutBatch(NumbersBatch(0, 100))}}});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->sink_outputs.size(), 1u);

  auto batch = GetBatch(result->sink_outputs.at(v)[0]);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->num_rows(), 9);  // 91..99
}

TEST_F(GraphExecTest, ShardedSourceRoundRobinCoversAllInput) {
  FlowGraph g;
  VertexId v = g.AddIrVertex("filter", FilterGt(-1), OpClass::kFilter);
  g.vertex(v)->parallelism_hint = 2;

  auto physical = LowerToPhysical(g, {}, &registry_);
  ASSERT_TRUE(physical.ok());

  // 4 input partitions over 2 shards.
  std::vector<ObjectRef> inputs;
  for (int p = 0; p < 4; ++p) {
    inputs.push_back(PutBatch(NumbersBatch(p * 10, p * 10 + 10)));
  }
  GraphExecutor executor(runtime_.get());
  auto result = executor.RunToCompletion(*physical, {{v, inputs}});
  ASSERT_TRUE(result.ok());

  int64_t total_rows = 0;
  for (const ObjectRef& ref : result->sink_outputs.at(v)) {
    auto batch = GetBatch(ref);
    ASSERT_TRUE(batch.ok());
    total_rows += batch->num_rows();
  }
  EXPECT_EQ(total_rows, 40);
}

TEST_F(GraphExecTest, ShuffleGroupByMatchesSingleNodeResult) {
  // filter -> shuffle(g) -> aggregate, sharded 2x2.
  FlowGraph g;
  VertexId f = g.AddIrVertex("filter", FilterGt(-1), OpClass::kFilter);
  VertexId a = g.AddIrVertex("agg", SumByG(), OpClass::kAggregate);
  g.vertex(f)->parallelism_hint = 2;
  g.vertex(a)->parallelism_hint = 2;
  ASSERT_TRUE(g.AddEdge(f, a, EdgeKind::kShuffle, {"g"}).ok());

  auto physical = LowerToPhysical(g, {}, &registry_);
  ASSERT_TRUE(physical.ok());

  RecordBatch input = NumbersBatch(0, 200);
  GraphExecutor executor(runtime_.get());
  auto result = executor.RunToCompletion(
      *physical, {{f, {PutBatch(input.Slice(0, 100)), PutBatch(input.Slice(100, 100))}}});
  ASSERT_TRUE(result.ok());
  // 2 filter shards write the shuffle themselves, then 2 aggregate shards.
  EXPECT_EQ(result->tasks_submitted, 4);

  // Merge the sharded aggregate outputs and compare with the single-node
  // reference aggregation.
  std::vector<RecordBatch> pieces;
  for (const ObjectRef& ref : result->sink_outputs.at(a)) {
    auto batch = GetBatch(ref);
    ASSERT_TRUE(batch.ok());
    pieces.push_back(std::move(batch).value());
  }
  auto merged = ConcatBatches(pieces);
  ASSERT_TRUE(merged.ok());
  auto reference = GroupAggregateBatch(input, {"g"}, {{AggKind::kSum, "x", "sum_x"}});
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(merged->num_rows(), reference->num_rows());

  auto sorted_merged = SortBatch(*merged, {{"g", true}});
  auto sorted_ref = SortBatch(*reference, {{"g", true}});
  for (int64_t i = 0; i < sorted_ref->num_rows(); ++i) {
    EXPECT_EQ(sorted_merged->ColumnByName("sum_x")->Int64At(i),
              sorted_ref->ColumnByName("sum_x")->Int64At(i));
  }
}

TEST_F(GraphExecTest, TwoShuffleOutEdgesPartitionByTheirOwnKeysAndWidths) {
  // One 2-shard source feeds two shuffles: by_g on g, by_k on k. Each
  // consumer must receive its own edge's partitions, at equal and at
  // different consumer widths.
  RecordBatch numbers = NumbersBatch(0, 200);
  ColumnBuilder ks(DataType::kInt64);
  for (int64_t i = 0; i < numbers.num_rows(); ++i) {
    ks.AppendInt64(i % 7);
  }
  auto input = RecordBatch::Make(
      Schema({{"x", DataType::kInt64}, {"g", DataType::kInt64}, {"k", DataType::kInt64}}),
      {numbers.column(0), numbers.column(1), ks.Finish()});
  ASSERT_TRUE(input.ok());

  for (int k_width : {4, 2}) {
    SCOPED_TRACE("by_k width " + std::to_string(k_width));
    FlowGraph g;
    VertexId src = g.AddIrVertex("src", FilterGt(-1), OpClass::kFilter);
    VertexId by_g = g.AddIrVertex("by_g", CountBy("g"), OpClass::kAggregate);
    VertexId by_k = g.AddIrVertex("by_k", CountBy("k"), OpClass::kAggregate);
    g.vertex(src)->parallelism_hint = 2;
    g.vertex(by_g)->parallelism_hint = 4;
    g.vertex(by_k)->parallelism_hint = k_width;
    ASSERT_TRUE(g.AddEdge(src, by_g, EdgeKind::kShuffle, {"g"}).ok());
    ASSERT_TRUE(g.AddEdge(src, by_k, EdgeKind::kShuffle, {"k"}).ok());

    auto physical = LowerToPhysical(g, {}, &registry_);
    ASSERT_TRUE(physical.ok());
    GraphExecutor executor(runtime_.get());
    auto result = executor.RunToCompletion(
        *physical,
        {{src, {PutBatch(input->Slice(0, 100)), PutBatch(input->Slice(100, 100))}}}, 10000);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->tasks_submitted, 2 + 4 + k_width);

    for (const auto& [sink, key] : {std::pair{by_g, "g"}, std::pair{by_k, "k"}}) {
      auto got = SinkSortedBy(*result, sink, key);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      auto want = GroupAggregateBatch(*input, {key}, {{AggKind::kCount, "*", "n"}});
      ASSERT_TRUE(want.ok());
      auto want_sorted = SortBatch(*want, {{key, true}});
      ASSERT_TRUE(want_sorted.ok());
      ASSERT_EQ(got->num_rows(), want_sorted->num_rows()) << key;
      for (int64_t i = 0; i < got->num_rows(); ++i) {
        EXPECT_EQ(got->ColumnByName(key)->Int64At(i), want_sorted->ColumnByName(key)->Int64At(i));
        EXPECT_EQ(got->ColumnByName("n")->Int64At(i), want_sorted->ColumnByName("n")->Int64At(i));
      }
    }
  }
}

TEST_F(GraphExecTest, IdentitySourceBoundPerShardRunsNoTask) {
  // A pass-through scan with one ref per shard hands those refs straight to
  // its consumer; with more refs than shards it runs to concatenate them.
  std::vector<ObjectRef> parts;
  for (int p = 0; p < 4; ++p) {
    parts.push_back(PutBatch(NumbersBatch(p * 10, p * 10 + 10)));
  }
  for (int scan_width : {4, 2}) {
    SCOPED_TRACE("scan width " + std::to_string(scan_width));
    FlowGraph g;
    VertexId scan = g.AddIrVertex("scan", Identity(), OpClass::kScan);
    VertexId f = g.AddIrVertex("filter", FilterGt(4), OpClass::kFilter);
    g.vertex(scan)->parallelism_hint = scan_width;
    g.vertex(f)->parallelism_hint = 1;
    ASSERT_TRUE(g.AddEdge(scan, f, EdgeKind::kBroadcast).ok());
    LoweringOptions options;
    options.run_ir_passes = false;
    auto physical = LowerToPhysical(g, options, &registry_);
    ASSERT_TRUE(physical.ok());
    GraphExecutor executor(runtime_.get());
    auto result = executor.RunToCompletion(*physical, {{scan, parts}});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->tasks_submitted, scan_width == 4 ? 1 : 3);
    auto got = SinkSortedBy(*result, f, "x");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->num_rows(), 35);  // 5..39
  }
}

TEST_F(GraphExecTest, BroadcastFansInAllShards) {
  // 2-shard filter -> broadcast -> 1-shard aggregate sees all rows.
  FlowGraph g;
  VertexId f = g.AddIrVertex("filter", FilterGt(-1), OpClass::kFilter);
  auto count_fn = std::make_shared<IrFunction>("count");
  ValueId t = count_fn->AddParam(IrType::Table());
  ValueId c = EmitAggregate(*count_fn, t, {}, {{AggKind::kCount, "*", "n"}});
  count_fn->SetReturns({c});
  VertexId agg = g.AddIrVertex("count", count_fn, OpClass::kAggregate);
  g.vertex(f)->parallelism_hint = 2;
  g.vertex(agg)->parallelism_hint = 1;
  ASSERT_TRUE(g.AddEdge(f, agg, EdgeKind::kBroadcast).ok());

  auto physical = LowerToPhysical(g, {}, &registry_);
  ASSERT_TRUE(physical.ok());
  GraphExecutor executor(runtime_.get());
  auto result = executor.RunToCompletion(
      *physical,
      {{f, {PutBatch(NumbersBatch(0, 30)), PutBatch(NumbersBatch(30, 80))}}});
  ASSERT_TRUE(result.ok());

  auto batch = GetBatch(result->sink_outputs.at(agg)[0]);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->ColumnByName("n")->Int64At(0), 80);
}

TEST_F(GraphExecTest, BuiltinVertexRuns) {
  ASSERT_TRUE(registry_.Register("double_rows", [](TaskContext&, std::vector<Buffer>& args)
                                        -> Result<std::vector<Buffer>> {
    SKADI_ASSIGN_OR_RETURN(RecordBatch batch, DeserializeBatchIpc(args[0]));
    SKADI_ASSIGN_OR_RETURN(
        RecordBatch out,
        ProjectBatch(batch, {{Expr::Binary(BinaryOp::kMul, Expr::Col("x"), Expr::Int(2)),
                              "x2"}}));
    return std::vector<Buffer>{SerializeBatchIpc(out)};
  }).ok());

  FlowGraph g;
  VertexId v = g.AddBuiltinVertex("doubler", "double_rows", OpClass::kProject);
  g.vertex(v)->parallelism_hint = 1;
  auto physical = LowerToPhysical(g, {}, &registry_);
  ASSERT_TRUE(physical.ok());

  GraphExecutor executor(runtime_.get());
  auto result = executor.RunToCompletion(*physical, {{v, {PutBatch(NumbersBatch(0, 5))}}});
  ASSERT_TRUE(result.ok());
  auto batch = GetBatch(result->sink_outputs.at(v)[0]);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->ColumnByName("x2")->Int64At(4), 8);
}

TEST_F(GraphExecTest, TensorVerticesFlow) {
  // matmul vertex -> relu vertex via forward edge, DOP 1.
  auto mm = std::make_shared<IrFunction>("mm");
  ValueId a = mm->AddParam(IrType::Tensor());
  ValueId b = mm->AddParam(IrType::Tensor());
  ValueId c = EmitMatmul(*mm, a, b);
  mm->SetReturns({c});

  auto act = std::make_shared<IrFunction>("act");
  ValueId x = act->AddParam(IrType::Tensor());
  ValueId r = EmitRelu(*act, x);
  act->SetReturns({r});

  FlowGraph g;
  VertexId vm = g.AddIrVertex("matmul", mm, OpClass::kMatmul);
  VertexId va = g.AddIrVertex("relu", act, OpClass::kElementwise);
  g.vertex(vm)->parallelism_hint = 1;
  g.vertex(va)->parallelism_hint = 1;
  ASSERT_TRUE(g.AddEdge(vm, va).ok());

  LoweringOptions options;
  options.run_ir_passes = false;  // keep the two-vertex structure
  auto physical = LowerToPhysical(g, options, &registry_);
  ASSERT_TRUE(physical.ok());

  auto at = Tensor::FromData({2, 2}, {1, -2, 3, -4});
  auto bt = Tensor::FromData({2, 2}, {1, 0, 0, 1});
  auto ra = runtime_->Put(SerializeTensor(*at));
  auto rb = runtime_->Put(SerializeTensor(*bt));

  GraphExecutor executor(runtime_.get());
  auto result = executor.RunToCompletion(*physical, {{vm, {*ra, *rb}}});
  ASSERT_TRUE(result.ok());

  auto buffer = runtime_->Get(result->sink_outputs.at(va)[0]);
  ASSERT_TRUE(buffer.ok());
  auto tensor = DeserializeTensor(*buffer);
  ASSERT_TRUE(tensor.ok());
  EXPECT_EQ(tensor->data(), (std::vector<double>{1, 0, 3, 0}));
}

TEST_F(GraphExecTest, MissingSourceInputRejected) {
  FlowGraph g;
  g.AddIrVertex("filter", FilterGt(0));
  auto physical = LowerToPhysical(g, {}, &registry_);
  ASSERT_TRUE(physical.ok());
  GraphExecutor executor(runtime_.get());
  auto result = executor.Run(*physical, {});
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(GraphExecTest, LoweringSelectsDeclaredBackends) {
  auto mm = std::make_shared<IrFunction>("mm2");
  ValueId a = mm->AddParam(IrType::Tensor());
  ValueId c = EmitMatmul(*mm, a, a);
  mm->SetReturns({c});

  FlowGraph g;
  VertexId v = g.AddIrVertex("matmul", mm, OpClass::kMatmul);
  LoweringOptions options;
  options.available_backends = {DeviceKind::kCpu, DeviceKind::kGpu};
  options.assumed_bytes = 64 << 20;
  auto physical = LowerToPhysical(g, options, &registry_);
  ASSERT_TRUE(physical.ok());
  EXPECT_EQ(physical->plan(v)->backend, DeviceKind::kGpu);
}

TEST_F(GraphExecTest, ForwardParallelismMismatchRejected) {
  FlowGraph g;
  VertexId a = g.AddIrVertex("f1", FilterGt(0));
  VertexId b = g.AddIrVertex("f2", FilterGt(1));
  g.vertex(a)->parallelism_hint = 2;
  g.vertex(b)->parallelism_hint = 3;
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  auto physical = LowerToPhysical(g, {}, &registry_);
  ASSERT_TRUE(physical.ok());
  GraphExecutor executor(runtime_.get());
  auto result = executor.Run(
      *physical, {{a, {PutBatch(NumbersBatch(0, 10)), PutBatch(NumbersBatch(10, 20))}}});
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// A lost intermediate is rebuilt from lineage: the resubmitted spec still
// carries its vertex body, so nothing is looked up by name again. The sink
// also reads a gated source, so it cannot run before the kill.
TEST_F(GraphExecTest, LostIntermediateReexecutesVertexBodyFromLineage) {
  // Two GPU nodes: the filter stage runs on one, the kill takes it, and the
  // re-execution lands on the other.
  runtime_.reset();
  ClusterConfig config;
  config.racks = 1;
  config.servers_per_rack = 2;
  config.device_complexes = 1;
  config.gpus_per_complex = 2;
  config.fpgas_per_complex = 0;
  cluster_ = Cluster::Create(config);
  runtime_ = std::make_unique<SkadiRuntime>(cluster_.get(), &registry_);

  std::atomic<bool> open{false};
  struct OpenOnExit {  // a failed ASSERT must not leave the gate task parked
    std::atomic<bool>* open;
    ~OpenOnExit() { open->store(true); }
  } open_on_exit{&open};
  ASSERT_TRUE(registry_.Register("gate", [this, &open](TaskContext&, std::vector<Buffer>&)
                                             -> Result<std::vector<Buffer>> {
    while (!open.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return std::vector<Buffer>{SerializeBatchIpc(NumbersBatch(0, 1))};
  }).ok());

  // sink(filtered, gate) = sum(x) by g over `filtered`; `gate` only orders.
  auto sink_fn = std::make_shared<IrFunction>("sum_after_gate");
  ValueId filtered = sink_fn->AddParam(IrType::Table());
  sink_fn->AddParam(IrType::Table());
  sink_fn->SetReturns(
      {EmitAggregate(*sink_fn, filtered, {"g"}, {{AggKind::kSum, "x", "sum_x"}})});

  FlowGraph g;
  VertexId f = g.AddIrVertex("filter", FilterGt(40), OpClass::kFilter);
  g.vertex(f)->backend_hint = DeviceKind::kGpu;
  VertexId gate = g.AddIrVertex("gate", Identity(), OpClass::kScan);
  VertexId sink = g.AddIrVertex("sink", sink_fn, OpClass::kAggregate);
  for (VertexId v : {f, gate, sink}) {
    g.vertex(v)->parallelism_hint = 1;
  }
  ASSERT_TRUE(g.AddEdge(f, sink).ok());
  ASSERT_TRUE(g.AddEdge(gate, sink).ok());
  LoweringOptions lowering;
  lowering.run_ir_passes = false;  // keep the sink's parameter order
  auto physical = LowerToPhysical(g, lowering, &registry_);
  ASSERT_TRUE(physical.ok()) << physical.status().ToString();
  GraphExecutor executor(runtime_.get());

  auto clean = executor.RunToCompletion(
      *physical, {{f, {PutBatch(NumbersBatch(0, 100))}},
                  {gate, {PutBatch(NumbersBatch(0, 1))}}});
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  auto expected = SinkSortedBy(*clean, sink, "g");
  ASSERT_TRUE(expected.ok());

  // runtime.tasks_completed counts a task only after its outputs are
  // published, so once it reaches n every counted output is ready and
  // placed (a ready sink alone does not mean its task finished counting).
  Counter& completed = runtime_->metrics().GetCounter("runtime.tasks_completed");
  auto await_completed = [&completed](int64_t n) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (completed.value() < n && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return completed.value();
  };
  const int64_t clean_tasks = clean->tasks_submitted;
  ASSERT_EQ(await_completed(clean_tasks), clean_tasks);

  const std::vector<NodeId> gpus = cluster_->NodesWithDevice(DeviceKind::kGpu);
  ASSERT_EQ(gpus.size(), 2u);
  std::map<NodeId, int64_t> gpu_tasks;
  for (NodeId gpu : gpus) {
    gpu_tasks[gpu] = runtime_->raylet(gpu)->tasks_executed();
  }
  Counter& reexecuted = runtime_->metrics().GetCounter("runtime.lineage_reexecutions");
  const int64_t reexecuted_before = reexecuted.value();

  TaskSpec gate_spec;
  gate_spec.function = "gate";
  gate_spec.pinned_node = cluster_->head();
  auto gate_ref = runtime_->Submit(std::move(gate_spec));
  ASSERT_TRUE(gate_ref.ok());
  auto run = executor.Run(*physical, {{f, {PutBatch(NumbersBatch(0, 100))}},
                                      {gate, {(*gate_ref)[0]}}});
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  // The filter task is the only one that can finish while the gate is shut.
  ASSERT_EQ(await_completed(clean_tasks + 1), clean_tasks + 1);
  NodeId victim;
  for (NodeId gpu : gpus) {
    if (runtime_->raylet(gpu)->tasks_executed() > gpu_tasks[gpu]) {
      victim = gpu;
    }
  }
  ASSERT_TRUE(victim.valid());
  ASSERT_TRUE(runtime_->KillNode(victim).ok());
  open.store(true);

  auto recovered = SinkSortedBy(*run, sink, "g");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(expected->num_rows(), 5);
  EXPECT_EQ(SerializeBatchIpc(*recovered).AsStringView(),
            SerializeBatchIpc(*expected).AsStringView());
  EXPECT_GE(reexecuted.value(), reexecuted_before + 1);
  // The re-execution ran on the surviving GPU (the clean run's filter output
  // may have been lost and rebuilt too, so count at least one).
  for (NodeId gpu : gpus) {
    if (gpu != victim) {
      EXPECT_GT(runtime_->raylet(gpu)->tasks_executed(), gpu_tasks[gpu]);
    }
  }
}

}  // namespace
}  // namespace skadi
