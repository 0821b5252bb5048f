#include "src/access/streaming.h"

#include <gtest/gtest.h>

#include "src/ir/dialects.h"

namespace skadi {
namespace {

class StreamingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterConfig config;
    config.racks = 2;
    config.servers_per_rack = 2;
    cluster_ = Cluster::Create(config);
    runtime_ = std::make_unique<SkadiRuntime>(cluster_.get(), &registry_);
  }

  RecordBatch MicroBatch(const std::vector<std::pair<int64_t, double>>& rows) {
    ColumnBuilder keys(DataType::kInt64);
    ColumnBuilder values(DataType::kFloat64);
    for (auto [k, v] : rows) {
      keys.AppendInt64(k);
      values.AppendFloat64(v);
    }
    Schema schema({{"key", DataType::kInt64}, {"value", DataType::kFloat64}});
    auto batch = RecordBatch::Make(schema, {keys.Finish(), values.Finish()});
    return std::move(batch).value();
  }

  std::map<int64_t, std::pair<double, int64_t>> SnapshotMap(StreamingJob& job) {
    auto snapshot = job.Snapshot();
    EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    std::map<int64_t, std::pair<double, int64_t>> out;
    for (int64_t i = 0; i < snapshot->num_rows(); ++i) {
      out[snapshot->ColumnByName("key")->Int64At(i)] = {
          snapshot->ColumnByName("sum")->Float64At(i),
          snapshot->ColumnByName("count")->Int64At(i)};
    }
    return out;
  }

  std::unique_ptr<Cluster> cluster_;
  FunctionRegistry registry_;
  std::unique_ptr<SkadiRuntime> runtime_;
};

TEST_F(StreamingTest, RunningAggregatesAccumulateAcrossBatches) {
  auto job = StreamingJob::Start(runtime_.get(), nullptr);
  ASSERT_TRUE(job.ok()) << job.status().ToString();

  ASSERT_TRUE((*job)->PushBatch(MicroBatch({{1, 10.0}, {2, 5.0}, {1, 2.0}})).ok());
  ASSERT_TRUE((*job)->PushBatch(MicroBatch({{2, 5.0}, {3, 1.0}})).ok());
  EXPECT_EQ((*job)->batches_processed(), 2);

  auto state = SnapshotMap(**job);
  ASSERT_EQ(state.size(), 3u);
  EXPECT_DOUBLE_EQ(state[1].first, 12.0);
  EXPECT_EQ(state[1].second, 2);
  EXPECT_DOUBLE_EQ(state[2].first, 10.0);
  EXPECT_EQ(state[2].second, 2);
  EXPECT_DOUBLE_EQ(state[3].first, 1.0);
}

TEST_F(StreamingTest, SnapshotMatchesBatchReference) {
  // Many random micro-batches: the streaming state must equal a batch
  // group-by over the concatenation.
  auto job = StreamingJob::Start(runtime_.get(), nullptr);
  ASSERT_TRUE(job.ok());

  Rng rng(77);
  std::map<int64_t, std::pair<double, int64_t>> reference;
  for (int b = 0; b < 10; ++b) {
    std::vector<std::pair<int64_t, double>> rows;
    for (int r = 0; r < 50; ++r) {
      int64_t k = static_cast<int64_t>(rng.NextBounded(8));
      double v = rng.NextDouble();
      rows.emplace_back(k, v);
      reference[k].first += v;
      reference[k].second += 1;
    }
    ASSERT_TRUE((*job)->PushBatch(MicroBatch(rows)).ok());
  }

  auto state = SnapshotMap(**job);
  ASSERT_EQ(state.size(), reference.size());
  for (const auto& [k, agg] : reference) {
    EXPECT_NEAR(state[k].first, agg.first, 1e-9) << "key " << k;
    EXPECT_EQ(state[k].second, agg.second) << "key " << k;
  }
}

TEST_F(StreamingTest, TransformAppliesBeforeStateUpdate) {
  // Transform doubles the value and filters out key 0.
  auto transform = std::make_shared<IrFunction>("xf");
  ValueId t = transform->AddParam(IrType::Table());
  ValueId filtered = EmitFilter(
      *transform, t, Expr::Binary(BinaryOp::kNe, Expr::Col("key"), Expr::Int(0)));
  ValueId projected = EmitProject(
      *transform, filtered,
      {{Expr::Col("key"), "key"},
       {Expr::Binary(BinaryOp::kMul, Expr::Col("value"), Expr::Float(2.0)), "value"}});
  transform->SetReturns({projected});

  auto job = StreamingJob::Start(runtime_.get(), transform);
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->PushBatch(MicroBatch({{0, 100.0}, {1, 3.0}})).ok());

  auto state = SnapshotMap(**job);
  ASSERT_EQ(state.size(), 1u);  // key 0 filtered out
  EXPECT_DOUBLE_EQ(state[1].first, 6.0);
}

TEST_F(StreamingTest, PartitionsSplitKeysDisjointly) {
  StreamingOptions options;
  options.parallelism = 4;
  auto job = StreamingJob::Start(runtime_.get(), nullptr, options);
  ASSERT_TRUE(job.ok());
  std::vector<std::pair<int64_t, double>> rows;
  for (int64_t k = 0; k < 32; ++k) {
    rows.emplace_back(k, 1.0);
  }
  ASSERT_TRUE((*job)->PushBatch(MicroBatch(rows)).ok());
  auto state = SnapshotMap(**job);
  // Every key present exactly once across the 4 partition snapshots.
  EXPECT_EQ(state.size(), 32u);
  for (auto& [k, agg] : state) {
    EXPECT_EQ(agg.second, 1);
  }
}

TEST_F(StreamingTest, EmptySnapshotBeforeData) {
  auto job = StreamingJob::Start(runtime_.get(), nullptr);
  ASSERT_TRUE(job.ok());
  auto snapshot = (*job)->Snapshot();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->num_rows(), 0);
}

TEST_F(StreamingTest, InvalidOptionsRejected) {
  StreamingOptions bad;
  bad.parallelism = 0;
  EXPECT_FALSE(StreamingJob::Start(runtime_.get(), nullptr, bad).ok());
}

TEST_F(StreamingTest, MissingKeyColumnFailsBatch) {
  auto job = StreamingJob::Start(runtime_.get(), nullptr);
  ASSERT_TRUE(job.ok());
  Schema schema({{"other", DataType::kInt64}});
  auto bad = RecordBatch::Make(schema, {Column::MakeInt64({1})});
  EXPECT_FALSE((*job)->PushBatch(std::move(bad).value()).ok());
}

}  // namespace
}  // namespace skadi
