// Graph-analytics frontend: PageRank and label-propagation connected
// components as iterative relational dataflow — each iteration is a
// FlowGraph (broadcast-join ranks into edge partitions, partial aggregate,
// keyed shuffle, final aggregate + rank update), the Graph declaration path
// of Figure 2.
#ifndef SRC_ACCESS_GRAPH_ANALYTICS_H_
#define SRC_ACCESS_GRAPH_ANALYTICS_H_

#include <vector>

#include "src/format/record_batch.h"
#include "src/graph/executor.h"
#include "src/runtime/runtime.h"

namespace skadi {

struct PageRankOptions {
  int iterations = 10;
  double damping = 0.85;
  int parallelism = 2;
};

// Edge list: columns (src: int64, dst: int64). Returns (vertex, rank).
// `edge_partitions` are IPC-serialized batch refs already in the caching
// layer (one per partition).
Result<RecordBatch> PageRank(SkadiRuntime* runtime, const FunctionRegistry* registry,
                             const std::vector<ObjectRef>& edge_partitions,
                             const PageRankOptions& options);

struct ConnectedComponentsOptions {
  int max_iterations = 20;
  int parallelism = 2;
};

// Label propagation over an undirected interpretation of the edge list.
// Returns (vertex, component) where component is the minimum vertex id
// reachable. Converges when labels stop changing.
Result<RecordBatch> ConnectedComponents(SkadiRuntime* runtime, const FunctionRegistry* registry,
                                        const std::vector<ObjectRef>& edge_partitions,
                                        const ConnectedComponentsOptions& options);

}  // namespace skadi

#endif  // SRC_ACCESS_GRAPH_ANALYTICS_H_
