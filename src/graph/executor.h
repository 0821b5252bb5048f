// Physical-graph executor: launches one task per vertex shard on the
// stateful serverless runtime, wiring shard inputs according to edge kinds
// (forward / broadcast / shuffle, whose partitions the producer returns) and
// passing everything by reference — the futures pipeline of Figure 2's
// pseudo-code. Identity sources bound to one ref per shard run no task.
#ifndef SRC_GRAPH_EXECUTOR_H_
#define SRC_GRAPH_EXECUTOR_H_

#include <map>
#include <vector>

#include "src/graph/physical.h"
#include "src/runtime/runtime.h"

namespace skadi {

struct GraphRunResult {
  // Output refs of every sink vertex, per shard.
  std::map<VertexId, std::vector<ObjectRef>> sink_outputs;
  int64_t tasks_submitted = 0;

  // Convenience: all sink refs flattened.
  std::vector<ObjectRef> AllSinkRefs() const;
};

class GraphExecutor {
 public:
  explicit GraphExecutor(SkadiRuntime* runtime) : runtime_(runtime) {}

  // Runs the graph. `source_inputs` binds each source vertex to its input
  // objects (IPC-serialized batches/tensors in the caching layer); the refs
  // are distributed round-robin over the vertex's shards. Returns once every
  // task is *submitted*; callers Wait/Get on the sink refs.
  Result<GraphRunResult> Run(const PhysicalGraph& graph,
                             const std::map<VertexId, std::vector<ObjectRef>>& source_inputs);

  // Runs and blocks until all sink outputs are ready.
  Result<GraphRunResult> RunToCompletion(
      const PhysicalGraph& graph,
      const std::map<VertexId, std::vector<ObjectRef>>& source_inputs,
      int64_t timeout_ms = 60000);

 private:
  SkadiRuntime* runtime_;
};

}  // namespace skadi

#endif  // SRC_GRAPH_EXECUTOR_H_
