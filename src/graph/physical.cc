#include "src/graph/physical.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <sstream>

#include "src/format/serde.h"
#include "src/hw/cost_model.h"
#include "src/ir/dialects.h"
#include "src/ir/interp.h"
#include "src/ir/passes.h"

namespace skadi {

namespace {

std::atomic<uint64_t> g_lowering_counter{1};

Result<std::vector<std::vector<Buffer>>> SplitGroups(std::vector<Buffer>& args) {
  if (args.empty()) {
    return Status::InvalidArgument("vertex task needs a group header argument");
  }
  BufferReader header(args[0]);
  uint32_t num_groups = header.ReadU32();
  std::vector<std::vector<Buffer>> groups(num_groups);
  size_t cursor = 1;
  for (uint32_t g = 0; g < num_groups; ++g) {
    uint32_t size = header.ReadU32();
    for (uint32_t i = 0; i < size; ++i) {
      if (cursor >= args.size()) {
        return Status::InvalidArgument("vertex task argument underflow");
      }
      groups[g].push_back(args[cursor++]);
    }
  }
  return groups;
}

// Decodes a group of IPC batches into one batch. A single buffer decodes
// zero-copy (its views alias the producer's sealed buffer end to end);
// several are concatenated, reading column views straight out of the wire
// buffers so only the merged batch is new bytes.
Result<RecordBatch> ConcatGroup(const std::vector<Buffer>& group) {
  if (group.size() == 1) {
    return DeserializeBatchIpc(group[0]);
  }
  std::vector<RecordBatch> batches;
  batches.reserve(group.size());
  for (const Buffer& buffer : group) {
    SKADI_ASSIGN_OR_RETURN(RecordBatch batch, DeserializeBatchIpc(buffer));
    batches.push_back(std::move(batch));
  }
  return ConcatBatches(batches);
}

// Merges a builtin vertex's input group into one value buffer: a single
// buffer passes through; several are concatenated and re-serialized.
Result<Buffer> MergeGroup(const std::vector<Buffer>& group) {
  if (group.size() == 1) {
    return group[0];
  }
  SKADI_ASSIGN_OR_RETURN(RecordBatch merged, ConcatGroup(group));
  return SerializeBatchIpc(merged);
}

// Decodes an IR vertex's input group; only tables may span several buffers.
Result<IrRuntimeValue> DecodeGroup(const std::vector<Buffer>& group, IrTypeKind kind) {
  if (kind == IrTypeKind::kTable) {
    SKADI_ASSIGN_OR_RETURN(RecordBatch batch, ConcatGroup(group));
    return IrRuntimeValue(std::move(batch));
  }
  if (group.size() != 1) {
    return Status::InvalidArgument("a non-table input takes exactly one buffer");
  }
  if (kind == IrTypeKind::kTensor) {
    SKADI_ASSIGN_OR_RETURN(Tensor tensor, DeserializeTensor(group[0]));
    return IrRuntimeValue(std::move(tensor));
  }
  BufferReader r(group[0]);
  return IrRuntimeValue(r.ReadF64());
}

Buffer EncodeIrValue(const IrRuntimeValue& value) {
  if (const RecordBatch* batch = std::get_if<RecordBatch>(&value)) {
    return SerializeBatchIpc(*batch);
  }
  if (const Tensor* tensor = std::get_if<Tensor>(&value)) {
    return SerializeTensor(*tensor);
  }
  BufferBuilder b;
  b.AppendF64(std::get<double>(value));
  return b.Finish();
}

struct ShuffleOut {  // one shuffle out-edge, as its producer writes it
  std::vector<std::string> keys;
  uint32_t consumers = 1;
};

// Appends, for each shuffle out-edge in edge order, one IPC hash partition of
// the (table) output per consumer shard.
Status AppendShufflePartitions(const IrRuntimeValue& output,
                               const std::vector<ShuffleOut>& shuffles,
                               const ComputeOptions& options, std::vector<Buffer>& out) {
  for (const ShuffleOut& shuffle : shuffles) {
    const RecordBatch* batch = std::get_if<RecordBatch>(&output);
    if (batch == nullptr) {
      return Status::InvalidArgument("only a table output can be shuffled");
    }
    SKADI_ASSIGN_OR_RETURN(auto partitions,
                           HashPartitionBatch(*batch, shuffle.keys, shuffle.consumers, options));
    for (const RecordBatch& partition : partitions) {
      out.push_back(SerializeBatchIpc(partition));
    }
  }
  return Status::Ok();
}

}  // namespace

const PhysicalVertexPlan* PhysicalGraph::plan(VertexId id) const {
  for (const PhysicalVertexPlan& v : vertices) {
    if (v.logical == id) {
      return &v;
    }
  }
  return nullptr;
}

std::vector<PhysicalEdgePlan> PhysicalGraph::InEdges(VertexId id) const {
  std::vector<PhysicalEdgePlan> out;
  for (const PhysicalEdgePlan& e : edges) {
    if (e.dst == id) {
      out.push_back(e);
    }
  }
  return out;
}

std::vector<VertexId> PhysicalGraph::Sinks() const {
  std::vector<VertexId> out;
  for (const PhysicalVertexPlan& v : vertices) {
    bool has_out = false;
    for (const PhysicalEdgePlan& e : edges) {
      if (e.src == v.logical) {
        has_out = true;
        break;
      }
    }
    if (!has_out) {
      out.push_back(v.logical);
    }
  }
  return out;
}

std::string PhysicalGraph::ToString() const {
  std::ostringstream os;
  os << "PhysicalGraph{\n";
  for (const PhysicalVertexPlan& v : vertices) {
    os << "  " << v.logical << " '" << v.name << "' x" << v.parallelism;
    if (v.backend.has_value()) {
      os << " on " << DeviceKindName(*v.backend);
    }
    os << "\n";
  }
  for (const PhysicalEdgePlan& e : edges) {
    os << "  " << e.src << " -> " << e.dst << " [" << EdgeKindName(e.kind) << "]\n";
  }
  os << "}";
  return os.str();
}

Result<PhysicalGraph> LowerToPhysical(const FlowGraph& graph, const LoweringOptions& options,
                                      FunctionRegistry* registry) {
  SKADI_RETURN_IF_ERROR(graph.Validate());
  if (options.default_parallelism < 1) {
    return Status::InvalidArgument("default_parallelism must be >= 1");
  }
  if (options.available_backends.empty()) {
    return Status::InvalidArgument("no available backends");
  }

  SKADI_ASSIGN_OR_RETURN(std::vector<VertexId> order, graph.TopoOrder());
  const uint64_t lowering_id = g_lowering_counter.fetch_add(1);

  PhysicalGraph physical;
  auto parallelism_of = [&](const FlowVertex& v) {
    return v.parallelism_hint > 0 ? v.parallelism_hint : options.default_parallelism;
  };
  for (const FlowEdge& e : graph.edges()) {
    physical.edges.push_back({e.src, e.dst, e.kind, e.keys});
  }

  for (VertexId vid : order) {
    const FlowVertex* vertex = graph.vertex(vid);
    PhysicalVertexPlan plan;
    plan.logical = vid;
    plan.name = vertex->name;
    plan.parallelism = parallelism_of(*vertex);
    plan.op_class = vertex->op_class;

    // Return layout: the output when a forward/broadcast edge or the sink
    // reads it, then each shuffle out-edge's partitions.
    std::vector<FlowEdge> out_edges = graph.OutEdges(vid);
    plan.returns_output =
        out_edges.empty() || std::any_of(out_edges.begin(), out_edges.end(), [](const FlowEdge& e) {
          return e.kind != EdgeKind::kShuffle;
        });
    plan.num_returns = plan.returns_output ? 1 : 0;
    std::vector<ShuffleOut> shuffles;
    for (PhysicalEdgePlan& e : physical.edges) {
      if (e.src == vid && e.kind == EdgeKind::kShuffle) {
        const int consumers = parallelism_of(*graph.vertex(e.dst));
        e.first_return = plan.num_returns;
        plan.num_returns += consumers;
        shuffles.push_back({e.keys, static_cast<uint32_t>(consumers)});
      }
    }

    if (vertex->is_ir()) {
      std::shared_ptr<IrFunction> ir = vertex->ir;
      plan.num_inputs = static_cast<int>(ir->params().size());
      if (options.run_ir_passes) {
        SKADI_RETURN_IF_ERROR(PassManager::StandardPipeline().Run(*ir));
      }
      plan.identity = ir->ops().empty() && ir->params().size() == 1 &&
                      ir->returns().size() == 1 && ir->returns()[0] == ir->params()[0] &&
                      shuffles.empty();

      // Backend: hint wins; otherwise cheapest candidate for the dominant
      // (first) op class of the function.
      if (vertex->backend_hint.has_value()) {
        plan.backend = vertex->backend_hint;
      } else {
        OpClass op_class =
            ir->ops().empty() ? vertex->op_class : OpClassOf(ir->ops()[0].opcode);
        DeviceKind best = options.available_backends[0];
        int64_t best_cost = std::numeric_limits<int64_t>::max();
        for (DeviceKind kind : options.available_backends) {
          DeviceSpec spec;
          switch (kind) {
            case DeviceKind::kCpu:
              spec = MakeCpuDevice("low-cpu");
              break;
            case DeviceKind::kGpu:
              spec = MakeGpuDevice("low-gpu");
              break;
            case DeviceKind::kFpga:
              spec = MakeFpgaDevice("low-fpga");
              break;
            case DeviceKind::kDpu:
              spec = MakeDpuDevice("low-dpu");
              break;
            case DeviceKind::kMemoryBlade:
              continue;
          }
          int64_t cost = CostModel::EstimateNanos(spec, op_class, options.assumed_bytes);
          if (cost < best_cost) {
            best_cost = cost;
            best = kind;
          }
        }
        plan.backend = best;
      }

      plan.task_function = "vtx." + std::to_string(lowering_id) + "." + vid.ToString();
      const int threads_hint = vertex->compute_threads_hint;
      SKADI_RETURN_IF_ERROR(registry->Register(
          plan.task_function,
          [ir, threads_hint, returns_output = plan.returns_output, shuffles](
              TaskContext& ctx, std::vector<Buffer>& args) -> Result<std::vector<Buffer>> {
            SKADI_ASSIGN_OR_RETURN(auto groups, SplitGroups(args));
            if (groups.size() != ir->params().size()) {
              return Status::InvalidArgument(
                  "vertex '" + ir->name() + "' expects " +
                  std::to_string(ir->params().size()) + " inputs, got " +
                  std::to_string(groups.size()));
            }
            std::vector<IrRuntimeValue> values;
            values.reserve(groups.size());
            for (size_t i = 0; i < groups.size(); ++i) {
              SKADI_ASSIGN_OR_RETURN(IrType type, ir->TypeOf(ir->params()[i]));
              SKADI_ASSIGN_OR_RETURN(IrRuntimeValue value, DecodeGroup(groups[i], type.kind));
              values.push_back(std::move(value));
            }
            // Vertex hint wins; otherwise the raylet's worker budget flows
            // into the kernels' morsel parallelism.
            IrEvalOptions eval_options;
            eval_options.compute.num_threads =
                threads_hint > 0 ? threads_hint : ctx.compute_threads;
            SKADI_ASSIGN_OR_RETURN(
                auto outputs,
                EvalIrFunction(*ir, std::move(values), nullptr, eval_options));
            if (outputs.empty()) {
              return Status::Internal("vertex '" + ir->name() + "' produced no outputs");
            }
            std::vector<Buffer> returns;
            if (returns_output) {
              returns.push_back(EncodeIrValue(outputs[0]));
            }
            SKADI_RETURN_IF_ERROR(
                AppendShufflePartitions(outputs[0], shuffles, eval_options.compute, returns));
            return returns;
          }));
    } else {
      // Builtin vertex: delegate to the registered handcrafted op, after the
      // same group-merge step so fan-in edges behave identically, then write
      // its shuffles from the op's one output batch.
      std::string builtin = vertex->builtin;
      if (!registry->Contains(builtin)) {
        return Status::NotFound("builtin op '" + builtin + "' of vertex '" + vertex->name +
                                "' not registered");
      }
      plan.backend = vertex->backend_hint;
      plan.task_function = "vtx." + std::to_string(lowering_id) + "." + vid.ToString();
      FunctionRegistry* reg = registry;
      SKADI_RETURN_IF_ERROR(registry->Register(
          plan.task_function,
          [builtin, reg, returns_output = plan.returns_output, shuffles](
              TaskContext& ctx, std::vector<Buffer>& args) -> Result<std::vector<Buffer>> {
            SKADI_ASSIGN_OR_RETURN(auto groups, SplitGroups(args));
            std::vector<Buffer> merged;
            merged.reserve(groups.size());
            for (auto& group : groups) {
              SKADI_ASSIGN_OR_RETURN(Buffer m, MergeGroup(group));
              merged.push_back(std::move(m));
            }
            SKADI_ASSIGN_OR_RETURN(const TaskFunction* fn, reg->Lookup(builtin));
            SKADI_ASSIGN_OR_RETURN(std::vector<Buffer> returns, (*fn)(ctx, merged));
            if (shuffles.empty()) {
              return returns;
            }
            if (returns.size() != 1) {
              return Status::InvalidArgument("builtin '" + builtin +
                                             "' must return one batch to shuffle");
            }
            SKADI_ASSIGN_OR_RETURN(RecordBatch table, DeserializeBatchIpc(returns[0]));
            returns.resize(returns_output ? 1 : 0);
            ComputeOptions copts;
            copts.num_threads = ctx.compute_threads;
            SKADI_RETURN_IF_ERROR(
                AppendShufflePartitions(IrRuntimeValue(std::move(table)), shuffles, copts, returns));
            return returns;
          }));
    }
    physical.vertices.push_back(std::move(plan));
  }

  return physical;
}

// Task argument layout for vertex shards: args[0] is this header listing the
// group size per vertex input; the remaining args are the grouped buffers in
// order (SplitGroups above). Groups with several buffers are concatenated
// (tables only).
Buffer MakeVertexArgHeader(const std::vector<uint32_t>& group_sizes) {
  BufferBuilder b;
  b.AppendU32(static_cast<uint32_t>(group_sizes.size()));
  for (uint32_t size : group_sizes) {
    b.AppendU32(size);
  }
  return b.Finish();
}

}  // namespace skadi
