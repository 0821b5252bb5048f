#include "src/format/compute.h"

#include <gtest/gtest.h>

#include "src/common/random.h"

namespace skadi {
namespace {

RecordBatch SalesBatch() {
  Schema schema({{"region", DataType::kString},
                 {"amount", DataType::kInt64},
                 {"price", DataType::kFloat64}});
  auto batch = RecordBatch::Make(
      schema,
      {Column::MakeString({"east", "west", "east", "north", "west", "east"}),
       Column::MakeInt64({10, 20, 30, 40, 50, 60}),
       Column::MakeFloat64({1.0, 2.0, 3.0, 4.0, 5.0, 6.0})});
  return std::move(batch).value();
}

TEST(FilterTest, KeepsMatchingRows) {
  auto pred = Expr::Binary(BinaryOp::kGt, Expr::Col("amount"), Expr::Int(25));
  auto r = FilterBatch(SalesBatch(), *pred);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 4);
  EXPECT_EQ(r->column(1).Int64At(0), 30);
}

TEST(FilterTest, NullPredicateRowsDrop) {
  Schema schema({{"v", DataType::kInt64}});
  auto batch = RecordBatch::Make(schema, {Column::MakeInt64({1, 2, 3}, {1, 0, 1})});
  auto pred = Expr::Binary(BinaryOp::kGt, Expr::Col("v"), Expr::Int(0));
  auto r = FilterBatch(std::move(batch).value(), *pred);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 2);  // the null row drops
}

TEST(FilterTest, NonBoolPredicateRejected) {
  auto r = FilterBatch(SalesBatch(), *Expr::Col("amount"));
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProjectTest, ComputesExpressions) {
  std::vector<ProjectionSpec> projections = {
      {Expr::Col("region"), "region"},
      {Expr::Binary(BinaryOp::kMul, Expr::Col("amount"), Expr::Col("price")), "total"}};
  auto r = ProjectBatch(SalesBatch(), projections);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_columns(), 2u);
  EXPECT_EQ(r->schema().field(1).name, "total");
  EXPECT_DOUBLE_EQ(r->column(1).Float64At(2), 90.0);
}

TEST(FilterProjectTest, MatchesFilterThenProject) {
  // The predicate reads a column (amount) no projection reads; the constant
  // projection reads none at all.
  auto pred = Expr::Binary(BinaryOp::kGt, Expr::Col("amount"), Expr::Int(25));
  for (const std::vector<ProjectionSpec>& projections :
       {std::vector<ProjectionSpec>{
            {Expr::Binary(BinaryOp::kMul, Expr::Col("price"), Expr::Int(2)), "p2"},
            {Expr::Col("region"), "region"}},
        std::vector<ProjectionSpec>{{Expr::Int(1), "one"}}}) {
    auto fused = FilterProjectBatch(SalesBatch(), *pred, projections);
    ASSERT_TRUE(fused.ok()) << fused.status().ToString();
    auto filtered = FilterBatch(SalesBatch(), *pred);
    ASSERT_TRUE(filtered.ok());
    auto want = ProjectBatch(*filtered, projections);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(fused->ToString(), want->ToString());
    EXPECT_EQ(fused->num_rows(), 4);
  }
}

TEST(ProjectTest, NullExprRejected) {
  auto r = ProjectBatch(SalesBatch(), {{nullptr, "x"}});
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(HashPartitionTest, PartitionsCoverAllRows) {
  auto r = HashPartitionBatch(SalesBatch(), {"region"}, 4);
  ASSERT_TRUE(r.ok());
  int64_t total = 0;
  for (const RecordBatch& p : *r) {
    total += p.num_rows();
  }
  EXPECT_EQ(total, 6);
}

TEST(HashPartitionTest, SameKeySamePartition) {
  auto r = HashPartitionBatch(SalesBatch(), {"region"}, 4);
  ASSERT_TRUE(r.ok());
  // All "east" rows must land in exactly one partition.
  int partitions_with_east = 0;
  for (const RecordBatch& p : *r) {
    bool has_east = false;
    for (int64_t i = 0; i < p.num_rows(); ++i) {
      if (p.column(0).StringAt(i) == "east") {
        has_east = true;
      }
    }
    partitions_with_east += has_east ? 1 : 0;
  }
  EXPECT_EQ(partitions_with_east, 1);
}

TEST(HashPartitionTest, ZeroPartitionsRejected) {
  auto r = HashPartitionBatch(SalesBatch(), {"region"}, 0);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(HashPartitionTest, UnknownKeyRejected) {
  auto r = HashPartitionBatch(SalesBatch(), {"nope"}, 2);
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

// Property: partitioning then concatenating preserves the multiset of rows
// and group-aggregate results (the shuffle correctness invariant).
TEST(HashPartitionTest, PartitionPreservesAggregates) {
  Rng rng(42);
  ColumnBuilder keys(DataType::kInt64);
  ColumnBuilder vals(DataType::kInt64);
  for (int i = 0; i < 1000; ++i) {
    keys.AppendInt64(static_cast<int64_t>(rng.NextBounded(20)));
    vals.AppendInt64(static_cast<int64_t>(rng.NextBounded(100)));
  }
  Schema schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}});
  auto batch = RecordBatch::Make(schema, {keys.Finish(), vals.Finish()});
  ASSERT_TRUE(batch.ok());

  auto whole = GroupAggregateBatch(*batch, {"k"}, {{AggKind::kSum, "v", "sum_v"}});
  ASSERT_TRUE(whole.ok());

  auto parts = HashPartitionBatch(*batch, {"k"}, 8);
  ASSERT_TRUE(parts.ok());
  std::vector<RecordBatch> partials;
  for (const RecordBatch& p : *parts) {
    auto agg = GroupAggregateBatch(p, {"k"}, {{AggKind::kSum, "v", "sum_v"}});
    ASSERT_TRUE(agg.ok());
    partials.push_back(std::move(agg).value());
  }
  auto merged = ConcatBatches(partials);
  ASSERT_TRUE(merged.ok());
  // Each key appears in exactly one partition, so merged partials == whole.
  EXPECT_EQ(merged->num_rows(), whole->num_rows());

  auto sorted_whole = SortBatch(*whole, {{"k", true}});
  auto sorted_merged = SortBatch(*merged, {{"k", true}});
  ASSERT_TRUE(sorted_whole.ok());
  ASSERT_TRUE(sorted_merged.ok());
  for (int64_t i = 0; i < sorted_whole->num_rows(); ++i) {
    EXPECT_EQ(sorted_whole->column(0).Int64At(i), sorted_merged->column(0).Int64At(i));
    EXPECT_EQ(sorted_whole->column(1).Int64At(i), sorted_merged->column(1).Int64At(i));
  }
}

TEST(GroupAggregateTest, GroupedSumCountMinMaxMean) {
  auto r = GroupAggregateBatch(SalesBatch(), {"region"},
                               {{AggKind::kSum, "amount", "sum_a"},
                                {AggKind::kCount, "*", "cnt"},
                                {AggKind::kMin, "amount", "min_a"},
                                {AggKind::kMax, "amount", "max_a"},
                                {AggKind::kMean, "price", "avg_p"}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 3);  // east, west, north
  auto sorted = SortBatch(*r, {{"region", true}});
  ASSERT_TRUE(sorted.ok());
  // Row 0: east (10+30+60).
  EXPECT_EQ(sorted->column(0).StringAt(0), "east");
  EXPECT_EQ(sorted->ColumnByName("sum_a")->Int64At(0), 100);
  EXPECT_EQ(sorted->ColumnByName("cnt")->Int64At(0), 3);
  EXPECT_EQ(sorted->ColumnByName("min_a")->Int64At(0), 10);
  EXPECT_EQ(sorted->ColumnByName("max_a")->Int64At(0), 60);
  EXPECT_NEAR(sorted->ColumnByName("avg_p")->Float64At(0), (1.0 + 3.0 + 6.0) / 3, 1e-9);
}

TEST(GroupAggregateTest, GlobalAggregationOneRow) {
  auto r = GroupAggregateBatch(SalesBatch(), {},
                               {{AggKind::kSum, "amount", "total"},
                                {AggKind::kCount, "*", "n"}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 1);
  EXPECT_EQ(r->ColumnByName("total")->Int64At(0), 210);
  EXPECT_EQ(r->ColumnByName("n")->Int64At(0), 6);
}

TEST(GroupAggregateTest, EmptyInputGlobalStillEmitsRow) {
  RecordBatch empty = RecordBatch::Empty(
      Schema({{"v", DataType::kInt64}}));
  auto r = GroupAggregateBatch(empty, {}, {{AggKind::kCount, "*", "n"}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 1);
  EXPECT_EQ(r->column(0).Int64At(0), 0);
}

TEST(GroupAggregateTest, NullsSkippedInAggregates) {
  Schema schema({{"g", DataType::kInt64}, {"v", DataType::kInt64}});
  auto batch = RecordBatch::Make(
      schema, {Column::MakeInt64({1, 1, 1}), Column::MakeInt64({5, 0, 7}, {1, 0, 1})});
  auto r = GroupAggregateBatch(std::move(batch).value(), {"g"},
                               {{AggKind::kSum, "v", "s"}, {AggKind::kCount, "v", "c"}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ColumnByName("s")->Int64At(0), 12);
  EXPECT_EQ(r->ColumnByName("c")->Int64At(0), 2);
}

TEST(GroupAggregateTest, MeanOverFloats) {
  auto r = GroupAggregateBatch(SalesBatch(), {}, {{AggKind::kMean, "price", "m"}});
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->column(0).Float64At(0), 3.5, 1e-9);
}

TEST(GroupAggregateTest, StringMinMax) {
  auto r = GroupAggregateBatch(SalesBatch(), {},
                               {{AggKind::kMin, "region", "first"},
                                {AggKind::kMax, "region", "last"}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->column(0).StringAt(0), "east");
  EXPECT_EQ(r->column(1).StringAt(0), "west");
}

TEST(SortTest, SingleKeyAscending) {
  auto r = SortBatch(SalesBatch(), {{"amount", false}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->column(1).Int64At(0), 60);
  EXPECT_EQ(r->column(1).Int64At(5), 10);
}

TEST(SortTest, MultiKeyWithTies) {
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}});
  auto batch = RecordBatch::Make(
      schema, {Column::MakeInt64({1, 1, 0, 0}), Column::MakeInt64({9, 3, 7, 1})});
  auto r = SortBatch(std::move(batch).value(), {{"a", true}, {"b", true}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->column(0).Int64At(0), 0);
  EXPECT_EQ(r->column(1).Int64At(0), 1);
  EXPECT_EQ(r->column(1).Int64At(1), 7);
  EXPECT_EQ(r->column(1).Int64At(2), 3);
  EXPECT_EQ(r->column(1).Int64At(3), 9);
}

TEST(SortTest, NullsFirstAscending) {
  Schema schema({{"v", DataType::kInt64}});
  auto batch = RecordBatch::Make(schema, {Column::MakeInt64({3, 0, 1}, {1, 0, 1})});
  auto r = SortBatch(std::move(batch).value(), {{"v", true}});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->column(0).IsNull(0));
  EXPECT_EQ(r->column(0).Int64At(1), 1);
  EXPECT_EQ(r->column(0).Int64At(2), 3);
}

TEST(SortTest, StableForEqualKeys) {
  Schema schema({{"k", DataType::kInt64}, {"ord", DataType::kInt64}});
  auto batch = RecordBatch::Make(
      schema, {Column::MakeInt64({1, 1, 1}), Column::MakeInt64({0, 1, 2})});
  auto r = SortBatch(std::move(batch).value(), {{"k", true}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->column(1).Int64At(0), 0);
  EXPECT_EQ(r->column(1).Int64At(2), 2);
}

RecordBatch RegionDimBatch() {
  Schema schema({{"region", DataType::kString}, {"manager", DataType::kString}});
  auto batch = RecordBatch::Make(
      schema, {Column::MakeString({"east", "west"}),
               Column::MakeString({"alice", "bruno"})});
  return std::move(batch).value();
}

TEST(HashJoinTest, InnerJoinMatchesKeys) {
  auto r = HashJoinBatch(SalesBatch(), RegionDimBatch(), {"region"}, {"region"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 5);  // north has no match
  const Column* manager = r->ColumnByName("manager");
  ASSERT_NE(manager, nullptr);
  for (int64_t i = 0; i < r->num_rows(); ++i) {
    std::string_view region = r->column(0).StringAt(i);
    std::string_view mgr = manager->StringAt(i);
    EXPECT_EQ(mgr, region == "east" ? "alice" : "bruno");
  }
}

TEST(HashJoinTest, DuplicateBuildKeysMultiply) {
  Schema schema({{"k", DataType::kInt64}, {"tag", DataType::kString}});
  auto right = RecordBatch::Make(
      schema, {Column::MakeInt64({1, 1}), Column::MakeString({"x", "y"})});
  Schema lschema({{"k", DataType::kInt64}});
  auto left = RecordBatch::Make(lschema, {Column::MakeInt64({1})});
  auto r = HashJoinBatch(std::move(left).value(), std::move(right).value(), {"k"}, {"k"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 2);
}

TEST(HashJoinTest, NullKeysNeverMatch) {
  Schema schema({{"k", DataType::kInt64}});
  auto left = RecordBatch::Make(schema, {Column::MakeInt64({1, 0}, {1, 0})});
  auto right = RecordBatch::Make(schema, {Column::MakeInt64({1, 0}, {1, 0})});
  auto r = HashJoinBatch(std::move(left).value(), std::move(right).value(), {"k"}, {"k"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 1);
}

TEST(HashJoinTest, NameClashGetsSuffix) {
  Schema schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}});
  auto left = RecordBatch::Make(
      schema, {Column::MakeInt64({1}), Column::MakeInt64({10})});
  auto right = RecordBatch::Make(
      schema, {Column::MakeInt64({1}), Column::MakeInt64({20})});
  auto r = HashJoinBatch(std::move(left).value(), std::move(right).value(), {"k"}, {"k"});
  ASSERT_TRUE(r.ok());
  ASSERT_NE(r->ColumnByName("v"), nullptr);
  ASSERT_NE(r->ColumnByName("v_r"), nullptr);
  EXPECT_EQ(r->ColumnByName("v")->Int64At(0), 10);
  EXPECT_EQ(r->ColumnByName("v_r")->Int64At(0), 20);
}

TEST(HashJoinTest, KeyTypeMismatchRejected) {
  Schema l({{"k", DataType::kInt64}});
  Schema rr({{"k", DataType::kString}});
  auto left = RecordBatch::Make(l, {Column::MakeInt64({1})});
  auto right = RecordBatch::Make(rr, {Column::MakeString({"1"})});
  auto r = HashJoinBatch(std::move(left).value(), std::move(right).value(), {"k"}, {"k"});
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(HashJoinTest, EmptyKeyListRejected) {
  auto r = HashJoinBatch(SalesBatch(), RegionDimBatch(), {}, {});
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(LimitTest, TakesPrefix) {
  RecordBatch r = LimitBatch(SalesBatch(), 2);
  EXPECT_EQ(r.num_rows(), 2);
  EXPECT_EQ(r.column(1).Int64At(1), 20);
}

TEST(LimitTest, OverLongLimitClamped) {
  EXPECT_EQ(LimitBatch(SalesBatch(), 100).num_rows(), 6);
}

}  // namespace
}  // namespace skadi
