#include "src/access/streaming.h"

#include <map>

#include "src/common/hash.h"
#include "src/format/compute.h"
#include "src/format/serde.h"
#include "src/ir/interp.h"

namespace skadi {

namespace {

// Per-partition running aggregates, held as actor state.
struct StreamState {
  std::map<int64_t, double> sums;
  std::map<int64_t, int64_t> counts;
};

Result<std::pair<const Column*, const Column*>> KeyValueColumns(
    const RecordBatch& batch, const StreamingOptions& options) {
  const Column* key = batch.ColumnByName(options.key_column);
  const Column* value = batch.ColumnByName(options.value_column);
  if (key == nullptr || key->type() != DataType::kInt64) {
    return Status::InvalidArgument("stream batch needs int64 key column '" +
                                   options.key_column + "'");
  }
  if (value == nullptr ||
      (value->type() != DataType::kFloat64 && value->type() != DataType::kInt64)) {
    return Status::InvalidArgument("stream batch needs numeric value column '" +
                                   options.value_column + "'");
  }
  return std::make_pair(key, value);
}

}  // namespace

Result<std::unique_ptr<StreamingJob>> StreamingJob::Start(
    SkadiRuntime* runtime, std::shared_ptr<IrFunction> transform,
    StreamingOptions options) {
  if (options.parallelism < 1) {
    return Status::InvalidArgument("parallelism must be >= 1");
  }
  auto job = std::unique_ptr<StreamingJob>(new StreamingJob());
  job->runtime_ = runtime;
  job->options_ = options;
  StreamingOptions opts = options;  // captured by tasks

  // Stateless transform task.
  if (transform != nullptr) {
    if (transform->params().size() != 1) {
      return Status::InvalidArgument("stream transform must take one table");
    }
    job->transform_body_ = std::make_shared<const TaskFunction>(
        [ir = std::move(transform)](TaskContext&, std::vector<Buffer>& args)
            -> Result<std::vector<Buffer>> {
          SKADI_ASSIGN_OR_RETURN(RecordBatch batch, DeserializeBatchIpc(args[0]));
          SKADI_ASSIGN_OR_RETURN(auto out, EvalIrFunction(*ir, {std::move(batch)}));
          return std::vector<Buffer>{SerializeBatchIpc(std::get<RecordBatch>(out[0]))};
        });
  }

  // Stateful update task: folds one key-partition of a micro-batch into the
  // actor's running aggregates.
  job->update_body_ = std::make_shared<const TaskFunction>(
      [opts](TaskContext& ctx, std::vector<Buffer>& args) -> Result<std::vector<Buffer>> {
        if (ctx.actor_state == nullptr) {
          return Status::FailedPrecondition("stream update must run on an actor");
        }
        if (ctx.actor_state->get() == nullptr) {
          *ctx.actor_state = std::make_shared<StreamState>();
        }
        auto* state = static_cast<StreamState*>(ctx.actor_state->get());
        SKADI_ASSIGN_OR_RETURN(RecordBatch batch, DeserializeBatchIpc(args[0]));
        SKADI_ASSIGN_OR_RETURN(auto cols, KeyValueColumns(batch, opts));
        auto [key, value] = cols;
        for (int64_t r = 0; r < batch.num_rows(); ++r) {
          if (key->IsNull(r) || value->IsNull(r)) {
            continue;
          }
          int64_t k = key->Int64At(r);
          double v = value->type() == DataType::kFloat64
                         ? value->Float64At(r)
                         : static_cast<double>(value->Int64At(r));
          state->sums[k] += v;
          state->counts[k] += 1;
        }
        BufferBuilder ack;
        ack.AppendI64(batch.num_rows());
        return std::vector<Buffer>{ack.Finish()};
      });

  // Snapshot task: serializes the partition's running aggregates.
  job->snapshot_body_ = std::make_shared<const TaskFunction>(
      [](TaskContext& ctx, std::vector<Buffer>&) -> Result<std::vector<Buffer>> {
        if (ctx.actor_state == nullptr) {
          return Status::FailedPrecondition("stream snapshot must run on an actor");
        }
        ColumnBuilder keys(DataType::kInt64);
        ColumnBuilder sums(DataType::kFloat64);
        ColumnBuilder counts(DataType::kInt64);
        if (ctx.actor_state->get() != nullptr) {
          auto* state = static_cast<StreamState*>(ctx.actor_state->get());
          for (const auto& [k, sum] : state->sums) {
            keys.AppendInt64(k);
            sums.AppendFloat64(sum);
            counts.AppendInt64(state->counts.at(k));
          }
        }
        Schema schema({{"key", DataType::kInt64},
                       {"sum", DataType::kFloat64},
                       {"count", DataType::kInt64}});
        SKADI_ASSIGN_OR_RETURN(
            RecordBatch batch,
            RecordBatch::Make(schema, {keys.Finish(), sums.Finish(), counts.Finish()}));
        return std::vector<Buffer>{SerializeBatchIpc(batch)};
      });

  // Spread one state actor per partition across the compute nodes.
  std::vector<NodeId> nodes = runtime->cluster().ComputeNodes();
  for (int p = 0; p < options.parallelism; ++p) {
    SKADI_ASSIGN_OR_RETURN(
        ActorId actor,
        runtime->CreateActor(nodes[static_cast<size_t>(p) % nodes.size()],
                             std::make_shared<StreamState>()));
    job->actors_.push_back(actor);
  }
  return job;
}

Status StreamingJob::PushBatch(const RecordBatch& batch) {
  // 1. Stateless transform (as a runtime task, so it can land anywhere).
  RecordBatch transformed = batch;
  if (transform_body_ != nullptr) {
    TaskSpec spec;
    spec.function = "stream.transform";
    spec.body = transform_body_;
    spec.args = {TaskArg::Value(SerializeBatchIpc(batch))};
    spec.num_returns = 1;
    spec.op_class = OpClass::kProject;
    SKADI_ASSIGN_OR_RETURN(auto refs, runtime_->Submit(std::move(spec)));
    SKADI_ASSIGN_OR_RETURN(Buffer out, runtime_->Get(refs[0]));
    SKADI_ASSIGN_OR_RETURN(transformed, DeserializeBatchIpc(out));
  }

  // 2. Partition by key and update each partition's actor.
  SKADI_ASSIGN_OR_RETURN(
      auto partitions,
      HashPartitionBatch(transformed, {options_.key_column},
                         static_cast<uint32_t>(options_.parallelism)));
  std::vector<ObjectRef> acks;
  for (size_t p = 0; p < partitions.size(); ++p) {
    if (partitions[p].num_rows() == 0) {
      continue;
    }
    TaskSpec spec;
    spec.function = "stream.update";
    spec.body = update_body_;
    spec.args = {TaskArg::Value(SerializeBatchIpc(partitions[p]))};
    spec.num_returns = 1;
    spec.op_class = OpClass::kAggregate;
    SKADI_ASSIGN_OR_RETURN(auto refs, runtime_->SubmitActorTask(actors_[p], std::move(spec)));
    acks.push_back(refs[0]);
  }
  SKADI_RETURN_IF_ERROR(runtime_->Wait(acks, 30000));  // micro-batch barrier
  ++batches_processed_;
  return Status::Ok();
}

Result<RecordBatch> StreamingJob::Snapshot() {
  std::vector<RecordBatch> pieces;
  for (ActorId actor : actors_) {
    TaskSpec spec;
    spec.function = "stream.snapshot";
    spec.body = snapshot_body_;
    spec.num_returns = 1;
    SKADI_ASSIGN_OR_RETURN(auto refs, runtime_->SubmitActorTask(actor, std::move(spec)));
    SKADI_ASSIGN_OR_RETURN(Buffer buffer, runtime_->Get(refs[0]));
    SKADI_ASSIGN_OR_RETURN(RecordBatch piece, DeserializeBatchIpc(buffer));
    pieces.push_back(std::move(piece));
  }
  return ConcatBatches(pieces);
}

}  // namespace skadi
