#include "src/graph/executor.h"

namespace skadi {

std::vector<ObjectRef> GraphRunResult::AllSinkRefs() const {
  std::vector<ObjectRef> out;
  for (const auto& [vid, refs] : sink_outputs) {
    out.insert(out.end(), refs.begin(), refs.end());
  }
  return out;
}

Result<GraphRunResult> GraphExecutor::Run(
    const PhysicalGraph& graph,
    const std::map<VertexId, std::vector<ObjectRef>>& source_inputs) {
  GraphRunResult result;

  // (vertex) -> per shard, that shard task's returns in the vertex plan's
  // return layout.
  std::map<VertexId, std::vector<std::vector<ObjectRef>>> returns;

  for (const PhysicalVertexPlan& plan : graph.vertices) {
    const int dop = plan.parallelism;
    std::vector<PhysicalEdgePlan> in_edges = graph.InEdges(plan.logical);
    std::vector<std::vector<ObjectRef>>& shard_returns = returns[plan.logical];

    const std::vector<ObjectRef>* bound = nullptr;
    if (in_edges.empty()) {
      auto it = source_inputs.find(plan.logical);
      if (it == source_inputs.end() || it->second.empty()) {
        return Status::InvalidArgument("source vertex '" + plan.name +
                                       "' has no bound inputs");
      }
      bound = &it->second;
      if (plan.identity && static_cast<int>(bound->size()) == dop) {
        for (const ObjectRef& ref : *bound) {
          shard_returns.push_back({ref});
        }
        continue;
      }
    }

    for (int shard = 0; shard < dop; ++shard) {
      // args[0] is the group header, set once the groups are known.
      TaskSpec spec;
      spec.args.push_back(TaskArg::Value(Buffer()));
      std::vector<uint32_t> group_sizes;

      if (bound != nullptr) {
        // Source vertex: bound inputs, distributed round-robin over shards.
        const std::vector<ObjectRef>& refs = *bound;
        if (plan.num_inputs > 1) {
          // Multi-input source (e.g. a tensor op over several operands):
          // exactly one bound ref per logical input, every shard sees all.
          if (static_cast<int>(refs.size()) != plan.num_inputs) {
            return Status::InvalidArgument(
                "source vertex '" + plan.name + "' has " +
                std::to_string(plan.num_inputs) + " inputs but " +
                std::to_string(refs.size()) + " bound refs");
          }
          for (const ObjectRef& ref : refs) {
            spec.args.push_back(TaskArg::Ref(ref));
            group_sizes.push_back(1);
          }
        } else {
          // A single bound ref is replicated into every shard.
          uint32_t count = 0;
          for (size_t i = 0; i < refs.size(); ++i) {
            if (refs.size() == 1 || static_cast<int>(i % static_cast<size_t>(dop)) == shard) {
              spec.args.push_back(TaskArg::Ref(refs[i]));
              ++count;
            }
          }
          if (count == 0) {
            return Status::InvalidArgument("source vertex '" + plan.name + "' shard " +
                                           std::to_string(shard) + " received no input");
          }
          group_sizes.push_back(count);
        }
      } else {
        for (const PhysicalEdgePlan& edge : in_edges) {
          const std::vector<std::vector<ObjectRef>>& src = returns.at(edge.src);
          switch (edge.kind) {
            case EdgeKind::kForward: {
              if (src.size() != 1 && static_cast<int>(src.size()) != dop) {
                return Status::InvalidArgument(
                    "forward edge parallelism mismatch into '" + plan.name + "': " +
                    std::to_string(src.size()) + " vs " + std::to_string(dop));
              }
              spec.args.push_back(
                  TaskArg::Ref(src[src.size() == 1 ? 0 : static_cast<size_t>(shard)][0]));
              group_sizes.push_back(1);
              break;
            }
            case EdgeKind::kBroadcast:
            case EdgeKind::kShuffle: {
              // Every producer shard feeds this shard: its whole output, or
              // its partition for this shard.
              const size_t index = edge.kind == EdgeKind::kShuffle
                                       ? static_cast<size_t>(edge.first_return + shard)
                                       : 0;
              for (const std::vector<ObjectRef>& src_shard : src) {
                spec.args.push_back(TaskArg::Ref(src_shard[index]));
              }
              group_sizes.push_back(static_cast<uint32_t>(src.size()));
              break;
            }
          }
        }
      }

      spec.args[0] = TaskArg::Value(MakeVertexArgHeader(group_sizes));
      spec.function = plan.name;
      spec.body = plan.body;
      spec.num_returns = plan.num_returns;
      spec.op_class = plan.op_class;
      spec.required_device = plan.backend;
      SKADI_ASSIGN_OR_RETURN(std::vector<ObjectRef> refs, runtime_->Submit(std::move(spec)));
      shard_returns.push_back(std::move(refs));
      ++result.tasks_submitted;
    }
  }

  for (VertexId sink : graph.Sinks()) {
    std::vector<ObjectRef>& out = result.sink_outputs[sink];
    for (const std::vector<ObjectRef>& shard : returns.at(sink)) {
      out.push_back(shard[0]);
    }
  }
  return result;
}

Result<GraphRunResult> GraphExecutor::RunToCompletion(
    const PhysicalGraph& graph,
    const std::map<VertexId, std::vector<ObjectRef>>& source_inputs, int64_t timeout_ms) {
  SKADI_ASSIGN_OR_RETURN(GraphRunResult result, Run(graph, source_inputs));
  SKADI_RETURN_IF_ERROR(runtime_->Wait(result.AllSinkRefs(), timeout_ms));
  return result;
}

}  // namespace skadi
