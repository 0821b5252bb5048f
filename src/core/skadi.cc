#include "src/core/skadi.h"

#include <algorithm>
#include <set>

#include "src/common/metric_names.h"
#include "src/format/serde.h"
#include "src/graph/physical.h"

namespace skadi {

Skadi::Skadi(SkadiOptions options) : options_(std::move(options)) {}

Result<std::unique_ptr<Skadi>> Skadi::Start(SkadiOptions options) {
  if (options.default_parallelism < 1) {
    return Status::InvalidArgument("default_parallelism must be >= 1");
  }
  auto skadi = std::unique_ptr<Skadi>(new Skadi(options));
  skadi->cluster_ = Cluster::Create(options.cluster);
  skadi->runtime_ =
      std::make_unique<SkadiRuntime>(skadi->cluster_.get(), &skadi->registry_,
                                     options.runtime);
  skadi->adaptive_dop_decisions_ =
      &skadi->runtime_->metrics().GetCounter(names::kCoreAdaptiveDopDecisions);
  return skadi;
}

Skadi::~Skadi() = default;

std::vector<DeviceKind> Skadi::AvailableBackends() const {
  std::set<DeviceKind> kinds;
  for (const ClusterNode& node : cluster_->nodes()) {
    if (node.is_compute() && !cluster_->fabric().IsDead(node.id) &&
        node.device.kind != DeviceKind::kDpu) {
      // DPUs run raylets and shuffles but are not lowering targets for
      // compute ops (the paper offloads control, not kernels, to them).
      kinds.insert(node.device.kind);
    }
  }
  return std::vector<DeviceKind>(kinds.begin(), kinds.end());
}

Status Skadi::RegisterTable(const std::string& name, const RecordBatch& batch,
                            int partitions) {
  if (partitions <= 0) {
    partitions = options_.default_parallelism;
    if (options_.adaptive_parallelism) {
      int64_t shards = (static_cast<int64_t>(batch.ByteSize()) +
                        options_.adaptive_shard_bytes - 1) /
                       options_.adaptive_shard_bytes;
      partitions = static_cast<int>(
          std::min<int64_t>(std::max<int64_t>(1, shards), options_.max_parallelism));
    }
  }
  {
    MutexLock lock(mu_);
    if (tables_.count(name) > 0) {
      return Status::AlreadyExists("table '" + name + "' already registered");
    }
  }
  std::vector<NodeId> homes;
  for (NodeId node : cluster_->ComputeNodes()) {
    const ClusterNode* info = cluster_->node(node);
    if (info->device.kind == DeviceKind::kCpu) {
      homes.push_back(node);  // tables live in server DRAM
    }
  }
  if (homes.empty()) {
    return Status::FailedPrecondition("no server nodes to host table partitions");
  }

  TableInfo info;
  info.schema = batch.schema();
  const int64_t rows = batch.num_rows();
  const int64_t per_part = (rows + partitions - 1) / partitions;
  for (int p = 0; p < partitions; ++p) {
    RecordBatch part = batch.Slice(p * per_part, per_part);
    NodeId home = homes[static_cast<size_t>(p) % homes.size()];
    SKADI_ASSIGN_OR_RETURN(ObjectRef ref,
                           runtime_->PutAt(SerializeBatchIpc(part), home));
    info.partitions.push_back(ref);
  }

  MutexLock lock(mu_);
  tables_.emplace(name, std::move(info));
  return Status::Ok();
}

bool Skadi::HasTable(const std::string& name) const {
  MutexLock lock(mu_);
  return tables_.count(name) > 0;
}

std::vector<ObjectRef> Skadi::TablePartitions(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = tables_.find(name);
  return it == tables_.end() ? std::vector<ObjectRef>{} : it->second.partitions;
}

Result<RecordBatch> Skadi::GatherSink(const GraphRunResult& run, VertexId sink) {
  auto it = run.sink_outputs.find(sink);
  if (it == run.sink_outputs.end()) {
    return Status::Internal("output vertex is not a sink");
  }
  // Resolve every partition concurrently (one reactor-driven GetOp each)
  // instead of a serial Get per piece.
  SKADI_ASSIGN_OR_RETURN(std::vector<Buffer> buffers, runtime_->GetAll(it->second));
  std::vector<RecordBatch> pieces;
  pieces.reserve(buffers.size());
  for (const Buffer& buffer : buffers) {
    SKADI_ASSIGN_OR_RETURN(RecordBatch piece, DeserializeBatchIpc(buffer));
    pieces.push_back(std::move(piece));
  }
  return ConcatBatches(pieces);
}

Result<Skadi::PreparedSql> Skadi::PrepareSql(const std::string& query) {
  SKADI_ASSIGN_OR_RETURN(SqlSelect select, SqlParse(query));

  SqlPlannerOptions planner_options;
  planner_options.parallelism = options_.default_parallelism;
  if (options_.adaptive_parallelism) {
    // Run-time parallelism tuning: size the plan from the scanned table's
    // actual bytes rather than a compile-time constant.
    int64_t table_bytes = 0;
    for (const ObjectRef& ref : TablePartitions(select.table)) {
      auto size = cluster_->cache().SizeOf(ref.id);
      if (size.ok()) {
        table_bytes += *size;
      }
    }
    if (table_bytes > 0) {
      int64_t shards =
          (table_bytes + options_.adaptive_shard_bytes - 1) / options_.adaptive_shard_bytes;
      planner_options.parallelism = static_cast<int>(
          std::min<int64_t>(std::max<int64_t>(1, shards), options_.max_parallelism));
      adaptive_dop_decisions_->Increment();
    }
  }
  // Correctness guard: a scan stage can never be wider than its table's
  // partition count (the executor would otherwise replicate the single
  // input into every shard and aggregates would double-count).
  {
    size_t main_partitions = TablePartitions(select.table).size();
    if (main_partitions > 0 &&
        planner_options.parallelism > static_cast<int>(main_partitions)) {
      planner_options.parallelism = static_cast<int>(main_partitions);
    }
  }
  // DOP-aware intra-op budget: the worker threads left per shard once the
  // cluster is split `parallelism` ways. Wide plans get narrow kernels (the
  // shards already saturate the workers); narrow plans get wide kernels.
  {
    int64_t total_workers = 0;
    for (const ClusterNode& node : cluster_->nodes()) {
      if (node.is_compute()) {
        total_workers += std::max(0, node.default_workers);
      }
    }
    if (total_workers > 0) {
      int64_t per_shard = total_workers / std::max(1, planner_options.parallelism);
      planner_options.intra_op_threads = static_cast<int>(
          std::min<int64_t>(std::max<int64_t>(1, per_shard), 8));
    }
  }
  SKADI_ASSIGN_OR_RETURN(SqlPlan plan, PlanSql(select, planner_options));

  // Bind table sources before any structural rewrite invalidates ids? The
  // optimizer preserves table source vertices only if they aren't merged;
  // resolve the binding AFTER optimization via vertex names instead.
  std::map<std::string, VertexId> sources = plan.table_sources;
  if (options_.optimize_graph) {
    // Remember source names: after merging, the source vertex's name starts
    // with the original scan vertex's name.
    std::map<std::string, std::string> source_names;
    for (const auto& [table, vid] : sources) {
      source_names[table] = plan.graph.vertex(vid)->name;
    }
    VertexId old_output = plan.output_vertex;
    std::string output_name = plan.graph.vertex(old_output)->name;
    SKADI_ASSIGN_OR_RETURN(int merged, OptimizeFlowGraph(plan.graph));
    (void)merged;
    // Re-resolve bindings by name prefix.
    for (auto& [table, vid] : sources) {
      const std::string& want = source_names[table];
      vid = VertexId();
      for (const FlowVertex& v : plan.graph.vertices()) {
        if (v.name == want || v.name.rfind(want + "+", 0) == 0) {
          vid = v.id;
          break;
        }
      }
      if (!vid.valid()) {
        return Status::Internal("lost table source for '" + table + "' during optimization");
      }
    }
    plan.output_vertex = VertexId();
    for (const FlowVertex& v : plan.graph.vertices()) {
      if (v.name == output_name ||
          (v.name.size() > output_name.size() &&
           v.name.compare(v.name.size() - output_name.size() - 1,
                          output_name.size() + 1, "+" + output_name) == 0)) {
        plan.output_vertex = v.id;
      }
    }
    if (!plan.output_vertex.valid()) {
      // The output vertex merged into something: it is the sink.
      auto sinks = plan.graph.Sinks();
      if (sinks.size() != 1) {
        return Status::Internal("ambiguous output vertex after optimization");
      }
      plan.output_vertex = sinks[0];
    }
  }

  LoweringOptions lowering;
  lowering.default_parallelism = options_.default_parallelism;
  lowering.available_backends = AvailableBackends();
  SKADI_ASSIGN_OR_RETURN(PhysicalGraph physical,
                         LowerToPhysical(plan.graph, lowering, &registry_));

  PreparedSql prepared;
  prepared.plan = std::move(plan);
  prepared.sources = std::move(sources);
  prepared.physical = std::move(physical);
  return prepared;
}

Result<RecordBatch> Skadi::Sql(const std::string& query) {
  SKADI_ASSIGN_OR_RETURN(PreparedSql prepared, PrepareSql(query));

  std::map<VertexId, std::vector<ObjectRef>> inputs;
  for (const auto& [table, vid] : prepared.sources) {
    std::vector<ObjectRef> partitions = TablePartitions(table);
    if (partitions.empty()) {
      return Status::NotFound("table '" + table + "' not registered");
    }
    inputs[vid] = std::move(partitions);
  }

  GraphExecutor executor(runtime_.get());
  SKADI_ASSIGN_OR_RETURN(GraphRunResult run,
                         executor.RunToCompletion(prepared.physical, inputs));
  return GatherSink(run, prepared.plan.output_vertex);
}

Result<std::string> Skadi::Explain(const std::string& query) {
  SKADI_ASSIGN_OR_RETURN(PreparedSql prepared, PrepareSql(query));
  std::string out = "== declaration ==\n" + query + "\n";
  out += "== logical graph ==\n" + prepared.plan.graph.ToString() + "\n";
  for (const FlowVertex& v : prepared.plan.graph.vertices()) {
    if (v.is_ir()) {
      out += "-- vertex '" + v.name + "' IR --\n" + v.ir->ToString() + "\n";
    }
  }
  out += "== physical sharded graph ==\n" + prepared.physical.ToString() + "\n";
  return out;
}

Result<RecordBatch> Skadi::MapReduce(const MapReduceJob& job,
                                     const std::string& input_table) {
  std::vector<ObjectRef> partitions = TablePartitions(input_table);
  if (partitions.empty()) {
    return Status::NotFound("table '" + input_table + "' not registered");
  }
  SKADI_ASSIGN_OR_RETURN(MapReduceGraph mr, BuildMapReduceGraph(job));

  LoweringOptions lowering;
  lowering.default_parallelism = options_.default_parallelism;
  lowering.available_backends = AvailableBackends();
  SKADI_ASSIGN_OR_RETURN(PhysicalGraph physical,
                         LowerToPhysical(mr.graph, lowering, &registry_));

  GraphExecutor executor(runtime_.get());
  SKADI_ASSIGN_OR_RETURN(GraphRunResult run,
                         executor.RunToCompletion(physical, {{mr.map_vertex, partitions}}));
  return GatherSink(run, mr.reduce_vertex);
}

Result<MlModel> Skadi::TrainModel(const std::string& table,
                                  const std::vector<std::string>& feature_columns,
                                  const std::string& label_column,
                                  const MlTrainOptions& options) {
  std::vector<ObjectRef> partitions = TablePartitions(table);
  if (partitions.empty()) {
    return Status::NotFound("table '" + table + "' not registered");
  }
  if (feature_columns.empty()) {
    return Status::InvalidArgument("need at least one feature column");
  }

  // Convert each table partition into (X, y) tensors, keeping them on the
  // nodes where the partitions live (locality-preserving).
  std::vector<std::pair<ObjectRef, ObjectRef>> shards;
  const int64_t d = static_cast<int64_t>(feature_columns.size()) + 1;  // + bias
  SKADI_ASSIGN_OR_RETURN(std::vector<Buffer> part_buffers, runtime_->GetAll(partitions));
  for (size_t p = 0; p < partitions.size(); ++p) {
    const ObjectRef& ref = partitions[p];
    SKADI_ASSIGN_OR_RETURN(RecordBatch batch, DeserializeBatchIpc(part_buffers[p]));
    const Column* label = batch.ColumnByName(label_column);
    if (label == nullptr) {
      return Status::NotFound("label column '" + label_column + "' missing");
    }
    Tensor x = Tensor::Zeros({batch.num_rows(), d});
    Tensor y = Tensor::Zeros({batch.num_rows(), 1});
    for (int64_t r = 0; r < batch.num_rows(); ++r) {
      for (size_t f = 0; f < feature_columns.size(); ++f) {
        const Column* col = batch.ColumnByName(feature_columns[f]);
        if (col == nullptr) {
          return Status::NotFound("feature column '" + feature_columns[f] + "' missing");
        }
        double v = col->type() == DataType::kFloat64
                       ? col->Float64At(r)
                       : static_cast<double>(col->Int64At(r));
        x.Set(r, static_cast<int64_t>(f), v);
      }
      x.Set(r, d - 1, 1.0);  // bias term
      double label_value = label->type() == DataType::kFloat64
                               ? label->Float64At(r)
                               : static_cast<double>(label->Int64At(r));
      y.Set(r, 0, label_value);
    }
    // Place the tensors where the partition lives.
    std::vector<NodeId> locations = cluster_->cache().Locations(ref.id);
    NodeId home = locations.empty() ? cluster_->head() : locations[0];
    SKADI_ASSIGN_OR_RETURN(ObjectRef x_ref, runtime_->PutAt(SerializeTensor(x), home));
    SKADI_ASSIGN_OR_RETURN(ObjectRef y_ref, runtime_->PutAt(SerializeTensor(y), home));
    shards.emplace_back(x_ref, y_ref);
  }

  return ::skadi::TrainModel(runtime_.get(), shards, d, options);
}

Result<RecordBatch> Skadi::PageRank(const std::string& edges_table,
                                    const PageRankOptions& options) {
  std::vector<ObjectRef> partitions = TablePartitions(edges_table);
  if (partitions.empty()) {
    return Status::NotFound("table '" + edges_table + "' not registered");
  }
  return ::skadi::PageRank(runtime_.get(), &registry_, partitions, options);
}

Result<RecordBatch> Skadi::ConnectedComponents(const std::string& edges_table,
                                               const ConnectedComponentsOptions& options) {
  std::vector<ObjectRef> partitions = TablePartitions(edges_table);
  if (partitions.empty()) {
    return Status::NotFound("table '" + edges_table + "' not registered");
  }
  return ::skadi::ConnectedComponents(runtime_.get(), &registry_, partitions, options);
}

Result<std::vector<RecordBatch>> Skadi::RunFlowGraph(
    FlowGraph graph, const std::map<VertexId, std::vector<ObjectRef>>& source_inputs,
    VertexId output_vertex) {
  LoweringOptions lowering;
  lowering.default_parallelism = options_.default_parallelism;
  lowering.available_backends = AvailableBackends();
  SKADI_ASSIGN_OR_RETURN(PhysicalGraph physical,
                         LowerToPhysical(graph, lowering, &registry_));
  GraphExecutor executor(runtime_.get());
  SKADI_ASSIGN_OR_RETURN(GraphRunResult run,
                         executor.RunToCompletion(physical, source_inputs));
  auto it = run.sink_outputs.find(output_vertex);
  if (it == run.sink_outputs.end()) {
    return Status::InvalidArgument("output vertex is not a sink");
  }
  SKADI_ASSIGN_OR_RETURN(std::vector<Buffer> buffers, runtime_->GetAll(it->second));
  std::vector<RecordBatch> batches;
  batches.reserve(buffers.size());
  for (const Buffer& buffer : buffers) {
    SKADI_ASSIGN_OR_RETURN(RecordBatch piece, DeserializeBatchIpc(buffer));
    batches.push_back(std::move(piece));
  }
  return batches;
}

SkadiStats Skadi::GetStats() {
  SkadiStats stats;
  MetricsRegistry& metrics = runtime_->metrics();
  stats.tasks_submitted = metrics.GetCounter(names::kRuntimeTasksSubmitted).value();
  stats.tasks_completed = metrics.GetCounter(names::kRuntimeTasksCompleted).value();
  stats.fabric_bytes = cluster_->fabric().total_bytes();
  stats.fabric_messages = cluster_->fabric().total_messages();
  stats.control_hops = metrics.GetCounter(names::kRuntimeControlHops).value();
  stats.modelled_nanos = cluster_->fabric().clock().total_nanos();
  return stats;
}

}  // namespace skadi
