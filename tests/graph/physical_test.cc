// Unit tests of logical -> physical lowering (no execution).
#include "src/graph/physical.h"

#include <gtest/gtest.h>

#include "src/ir/dialects.h"

namespace skadi {
namespace {

std::shared_ptr<IrFunction> Identity() {
  auto fn = std::make_shared<IrFunction>("id");
  ValueId t = fn->AddParam(IrType::Table());
  fn->SetReturns({t});
  return fn;
}

std::shared_ptr<IrFunction> TwoInput() {
  auto fn = std::make_shared<IrFunction>("two");
  ValueId a = fn->AddParam(IrType::Table());
  ValueId b = fn->AddParam(IrType::Table());
  ValueId j = EmitJoin(*fn, a, b, {"k"}, {"k"});
  fn->SetReturns({j});
  return fn;
}

TEST(PhysicalLoweringTest, DefaultParallelismApplied) {
  FlowGraph g;
  VertexId v = g.AddIrVertex("a", Identity());
  FunctionRegistry registry;
  LoweringOptions options;
  options.default_parallelism = 5;
  auto physical = LowerToPhysical(g, options, &registry);
  ASSERT_TRUE(physical.ok());
  EXPECT_EQ(physical->plan(v)->parallelism, 5);
}

TEST(PhysicalLoweringTest, HintOverridesDefault) {
  FlowGraph g;
  VertexId v = g.AddIrVertex("a", Identity());
  g.vertex(v)->parallelism_hint = 3;
  FunctionRegistry registry;
  auto physical = LowerToPhysical(g, {}, &registry);
  ASSERT_TRUE(physical.ok());
  EXPECT_EQ(physical->plan(v)->parallelism, 3);
}

TEST(PhysicalLoweringTest, NumInputsFromIrParams) {
  FlowGraph g;
  VertexId one = g.AddIrVertex("one", Identity());
  VertexId two = g.AddIrVertex("two", TwoInput());
  FunctionRegistry registry;
  auto physical = LowerToPhysical(g, {}, &registry);
  ASSERT_TRUE(physical.ok());
  EXPECT_EQ(physical->plan(one)->num_inputs, 1);
  EXPECT_EQ(physical->plan(two)->num_inputs, 2);
}

TEST(PhysicalLoweringTest, VertexFunctionsRegistered) {
  FlowGraph g;
  VertexId v = g.AddIrVertex("a", Identity());
  FunctionRegistry registry;
  auto physical = LowerToPhysical(g, {}, &registry);
  ASSERT_TRUE(physical.ok());
  EXPECT_TRUE(registry.Contains(physical->plan(v)->task_function));
}

TEST(PhysicalLoweringTest, ShuffleProducerReturnsOnePartitionPerConsumer) {
  // Only a shuffle reads `a`: its shards return 3 partitions and no output.
  FlowGraph g;
  VertexId a = g.AddIrVertex("a", Identity());
  VertexId b = g.AddIrVertex("b", Identity());
  g.vertex(b)->parallelism_hint = 3;
  ASSERT_TRUE(g.AddEdge(a, b, EdgeKind::kShuffle, {"k"}).ok());
  FunctionRegistry registry;
  auto physical = LowerToPhysical(g, {}, &registry);
  ASSERT_TRUE(physical.ok());
  ASSERT_EQ(physical->edges.size(), 1u);
  EXPECT_FALSE(physical->plan(a)->returns_output);
  EXPECT_EQ(physical->plan(a)->num_returns, 3);
  EXPECT_EQ(physical->edges[0].first_return, 0);
  EXPECT_FALSE(physical->plan(a)->identity);  // it must run to partition
  EXPECT_EQ(physical->plan(b)->num_returns, 1);  // the sink returns its output
  EXPECT_TRUE(physical->plan(b)->identity);
}

TEST(PhysicalLoweringTest, ShuffleOutEdgesFollowTheOutputInEdgeOrder) {
  // `a` feeds a forward edge (reads its output) and two shuffles of
  // different widths: returns are [output, 2 partitions, 4 partitions].
  FlowGraph g;
  VertexId a = g.AddIrVertex("a", Identity());
  VertexId fwd = g.AddIrVertex("fwd", Identity());
  VertexId s2 = g.AddIrVertex("s2", Identity());
  VertexId s4 = g.AddIrVertex("s4", Identity());
  g.vertex(s4)->parallelism_hint = 4;
  ASSERT_TRUE(g.AddEdge(a, s2, EdgeKind::kShuffle, {"k"}).ok());
  ASSERT_TRUE(g.AddEdge(a, fwd, EdgeKind::kForward).ok());
  ASSERT_TRUE(g.AddEdge(a, s4, EdgeKind::kShuffle, {"j"}).ok());
  FunctionRegistry registry;
  auto physical = LowerToPhysical(g, {}, &registry);
  ASSERT_TRUE(physical.ok());
  EXPECT_TRUE(physical->plan(a)->returns_output);
  EXPECT_EQ(physical->plan(a)->num_returns, 7);
  EXPECT_EQ(physical->edges[0].first_return, 1);
  EXPECT_EQ(physical->edges[2].first_return, 3);
}

TEST(PhysicalLoweringTest, ForwardEdgeReturnsOutputOnly) {
  FlowGraph g;
  VertexId a = g.AddIrVertex("a", Identity());
  VertexId b = g.AddIrVertex("b", Identity());
  ASSERT_TRUE(g.AddEdge(a, b, EdgeKind::kForward).ok());
  FunctionRegistry registry;
  auto physical = LowerToPhysical(g, {}, &registry);
  ASSERT_TRUE(physical.ok());
  EXPECT_TRUE(physical->plan(a)->returns_output);
  EXPECT_EQ(physical->plan(a)->num_returns, 1);
  EXPECT_TRUE(physical->plan(a)->identity);
}

TEST(PhysicalLoweringTest, MissingBuiltinRejected) {
  FlowGraph g;
  g.AddBuiltinVertex("v", "never_registered");
  FunctionRegistry registry;
  auto physical = LowerToPhysical(g, {}, &registry);
  EXPECT_EQ(physical.status().code(), StatusCode::kNotFound);
}

TEST(PhysicalLoweringTest, InvalidOptionsRejected) {
  FlowGraph g;
  g.AddIrVertex("a", Identity());
  FunctionRegistry registry;
  LoweringOptions bad;
  bad.default_parallelism = 0;
  EXPECT_FALSE(LowerToPhysical(g, bad, &registry).ok());
  LoweringOptions no_backends;
  no_backends.available_backends = {};
  EXPECT_FALSE(LowerToPhysical(g, no_backends, &registry).ok());
}

TEST(PhysicalLoweringTest, SinksComputed) {
  FlowGraph g;
  VertexId a = g.AddIrVertex("a", Identity());
  VertexId b = g.AddIrVertex("b", Identity());
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  FunctionRegistry registry;
  auto physical = LowerToPhysical(g, {}, &registry);
  ASSERT_TRUE(physical.ok());
  EXPECT_EQ(physical->Sinks(), std::vector<VertexId>{b});
}

TEST(PhysicalLoweringTest, ToStringShowsShardCounts) {
  FlowGraph g;
  VertexId v = g.AddIrVertex("vertexD", Identity());
  g.vertex(v)->parallelism_hint = 7;
  FunctionRegistry registry;
  auto physical = LowerToPhysical(g, {}, &registry);
  ASSERT_TRUE(physical.ok());
  std::string s = physical->ToString();
  EXPECT_NE(s.find("vertexD"), std::string::npos);
  EXPECT_NE(s.find("x7"), std::string::npos);
}

TEST(PhysicalLoweringTest, ArgHeaderRoundTrip) {
  Buffer header = MakeVertexArgHeader({2, 1, 3});
  BufferReader r(header);
  EXPECT_EQ(r.ReadU32(), 3u);
  EXPECT_EQ(r.ReadU32(), 2u);
  EXPECT_EQ(r.ReadU32(), 1u);
  EXPECT_EQ(r.ReadU32(), 3u);
}

}  // namespace
}  // namespace skadi
