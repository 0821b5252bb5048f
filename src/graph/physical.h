// Logical -> physical lowering (Figure 2, middle tier).
//
// Lowering (1) picks a hardware backend for every vertex (cost model over
// the vertex's op class, or the vertex's hint), (2) decides each vertex's
// degree of parallelism (hint or default — the subscripts in Figure 2), and
// (3) registers one executable task function per vertex (IR interpreter or
// builtin delegate). The producer writes its own shuffles: a shard's task
// returns its output only when a forward or broadcast edge, or the sink,
// reads it, and then one hash partition per consumer shard for each shuffle
// out-edge, in edge order.
#ifndef SRC_GRAPH_PHYSICAL_H_
#define SRC_GRAPH_PHYSICAL_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/graph/flow_graph.h"
#include "src/runtime/task.h"

namespace skadi {

struct PhysicalVertexPlan {
  VertexId logical;
  std::string name;
  int parallelism = 1;
  std::optional<DeviceKind> backend;
  OpClass op_class = OpClass::kGeneric;
  // Number of logical inputs (IR parameter count; 1 for builtin vertices).
  int num_inputs = 1;
  // Registered task function executing one shard of this vertex.
  std::string task_function;
  // A shard task returns its output first when `returns_output`, then each
  // shuffle out-edge's partitions (PhysicalEdgePlan::first_return).
  bool returns_output = true;
  int num_returns = 1;
  // No ops, returns its only parameter, no shuffle out-edge: as a source
  // bound to one ref per shard, those refs are its outputs and no task runs.
  bool identity = false;
};

struct PhysicalEdgePlan {
  VertexId src;
  VertexId dst;
  EdgeKind kind = EdgeKind::kForward;
  std::vector<std::string> keys;
  // Shuffle edges: index of this edge's first partition among the producer
  // shard's returns; consumer shard i reads return first_return + i.
  int first_return = 0;
};

struct PhysicalGraph {
  // Topologically ordered.
  std::vector<PhysicalVertexPlan> vertices;
  std::vector<PhysicalEdgePlan> edges;

  const PhysicalVertexPlan* plan(VertexId id) const;
  std::vector<PhysicalEdgePlan> InEdges(VertexId id) const;
  std::vector<VertexId> Sinks() const;

  std::string ToString() const;
};

struct LoweringOptions {
  // Used when a vertex has no parallelism hint.
  int default_parallelism = 2;
  // Backend candidates present in the target cluster.
  std::vector<DeviceKind> available_backends = {DeviceKind::kCpu};
  // Assumed per-op input bytes for cost-model backend selection.
  int64_t assumed_bytes = 1 << 20;
  // Run the standard IR pass pipeline on each vertex before lowering.
  bool run_ir_passes = true;
};

// Lowers the (validated) logical graph; registers the vertex task functions
// into `registry`. The graph's IR functions are shared (not
// copied), so pass effects persist.
Result<PhysicalGraph> LowerToPhysical(const FlowGraph& graph, const LoweringOptions& options,
                                      FunctionRegistry* registry);

// Builds the args[0] header a vertex task expects: one group per vertex
// input, `group_sizes[i]` buffers in group i.
Buffer MakeVertexArgHeader(const std::vector<uint32_t>& group_sizes);

}  // namespace skadi

#endif  // SRC_GRAPH_PHYSICAL_H_
