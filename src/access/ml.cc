#include "src/access/ml.h"

#include <atomic>

#include "src/format/serde.h"
#include "src/ir/dialects.h"
#include "src/ir/interp.h"

namespace skadi {

std::shared_ptr<IrFunction> BuildGradientIr(bool logistic) {
  auto fn = std::make_shared<IrFunction>(logistic ? "logistic_grad" : "linear_grad");
  ValueId x = fn->AddParam(IrType::Tensor());
  ValueId y = fn->AddParam(IrType::Tensor());
  ValueId w = fn->AddParam(IrType::Tensor());
  ValueId pred = EmitMatmul(*fn, x, w);
  if (logistic) {
    pred = EmitSigmoid(*fn, pred);
  }
  ValueId err = EmitSub(*fn, pred, y);
  ValueId xt = EmitTranspose(*fn, x);
  ValueId raw = EmitMatmul(*fn, xt, err);
  // 1/n scaling happens at execution time (n varies per shard), so the IR
  // carries a neutral scale the driver divides out; instead we emit the op
  // with factor attribute patched per shard at task time — simplest is to
  // return the unscaled gradient and let the driver divide by total rows.
  fn->SetReturns({raw});
  return fn;
}

std::shared_ptr<IrFunction> BuildLossIr(bool logistic) {
  auto fn = std::make_shared<IrFunction>(logistic ? "logistic_loss" : "linear_loss");
  ValueId x = fn->AddParam(IrType::Tensor());
  ValueId y = fn->AddParam(IrType::Tensor());
  ValueId w = fn->AddParam(IrType::Tensor());
  ValueId pred = EmitMatmul(*fn, x, w);
  if (logistic) {
    pred = EmitSigmoid(*fn, pred);
  }
  ValueId err = EmitSub(*fn, pred, y);
  ValueId sq = EmitMul(*fn, err, err);
  ValueId loss = EmitReduceMean(*fn, sq);
  fn->SetReturns({loss});
  return fn;
}

namespace {

// Mints gang-group names, one per epoch that gangs its gradient tasks.
std::atomic<uint64_t> g_ml_counter{1};

// A task body wrapping an IrFunction over (X, y, W) tensor buffers.
std::shared_ptr<const TaskFunction> IrTaskBody(std::shared_ptr<IrFunction> ir) {
  return std::make_shared<const TaskFunction>(
      [ir](TaskContext&, std::vector<Buffer>& args) -> Result<std::vector<Buffer>> {
        if (args.size() != ir->params().size()) {
          return Status::InvalidArgument("ml task expects " +
                                         std::to_string(ir->params().size()) + " args");
        }
        std::vector<IrRuntimeValue> values;
        for (Buffer& buffer : args) {
          SKADI_ASSIGN_OR_RETURN(Tensor tensor, DeserializeTensor(buffer));
          values.emplace_back(std::move(tensor));
        }
        SKADI_ASSIGN_OR_RETURN(auto outputs, EvalIrFunction(*ir, std::move(values)));
        BufferBuilder scalar;
        if (const double* d = std::get_if<double>(&outputs[0])) {
          scalar.AppendF64(*d);
          return std::vector<Buffer>{scalar.Finish()};
        }
        return std::vector<Buffer>{SerializeTensor(std::get<Tensor>(outputs[0]))};
      });
}

}  // namespace

Result<MlModel> TrainModel(SkadiRuntime* runtime,
                           const std::vector<std::pair<ObjectRef, ObjectRef>>& shards,
                           int64_t feature_dim, const MlTrainOptions& options) {
  if (shards.empty()) {
    return Status::InvalidArgument("no data shards");
  }
  if (options.epochs < 1 || options.learning_rate <= 0.0) {
    return Status::InvalidArgument("invalid training options");
  }

  std::shared_ptr<const TaskFunction> grad_body = IrTaskBody(BuildGradientIr(options.logistic));
  std::shared_ptr<const TaskFunction> loss_body = IrTaskBody(BuildLossIr(options.logistic));

  // Shard row counts (for gradient normalization).
  int64_t total_rows = 0;
  std::vector<int64_t> shard_rows;
  std::vector<ObjectRef> y_refs;
  y_refs.reserve(shards.size());
  for (const auto& [x_ref, y_ref] : shards) {
    y_refs.push_back(y_ref);
  }
  SKADI_ASSIGN_OR_RETURN(std::vector<Buffer> y_buffers, runtime->GetAll(y_refs));
  for (const Buffer& y_buffer : y_buffers) {
    SKADI_ASSIGN_OR_RETURN(Tensor y, DeserializeTensor(y_buffer));
    shard_rows.push_back(y.rows());
    total_rows += y.rows();
  }
  if (total_rows == 0) {
    return Status::InvalidArgument("empty dataset");
  }

  MlModel model;
  model.weights = Tensor::Zeros({feature_dim, 1});

  // Parameter-server mode: weights live in an actor; "get" snapshots them,
  // "apply" folds one shard gradient in (serially, actor semantics).
  ActorId ps;
  std::shared_ptr<const TaskFunction> ps_get_body;
  std::shared_ptr<const TaskFunction> ps_apply_body;
  if (options.parameter_server) {
    const double step = options.learning_rate / static_cast<double>(total_rows);
    ps_get_body = std::make_shared<const TaskFunction>(
        [](TaskContext& ctx, std::vector<Buffer>&) -> Result<std::vector<Buffer>> {
          auto* weights = static_cast<Tensor*>(ctx.actor_state->get());
          return std::vector<Buffer>{SerializeTensor(*weights)};
        });
    ps_apply_body = std::make_shared<const TaskFunction>(
        [step](TaskContext& ctx, std::vector<Buffer>& args) -> Result<std::vector<Buffer>> {
          auto* weights = static_cast<Tensor*>(ctx.actor_state->get());
          SKADI_ASSIGN_OR_RETURN(Tensor grad, DeserializeTensor(args[0]));
          SKADI_ASSIGN_OR_RETURN(*weights, Sub(*weights, Scale(grad, step)));
          BufferBuilder ack;
          ack.AppendI64(1);
          return std::vector<Buffer>{ack.Finish()};
        });
    SKADI_ASSIGN_OR_RETURN(
        ps, runtime->CreateActor(runtime->head(),
                                 std::make_shared<Tensor>(model.weights)));
  }

  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    ObjectRef w_ref;
    if (options.parameter_server) {
      TaskSpec get_spec;
      get_spec.function = "ml.ps.get";
      get_spec.body = ps_get_body;
      get_spec.num_returns = 1;
      SKADI_ASSIGN_OR_RETURN(auto snap, runtime->SubmitActorTask(ps, std::move(get_spec)));
      w_ref = snap[0];
    } else {
      SKADI_ASSIGN_OR_RETURN(w_ref, runtime->Put(SerializeTensor(model.weights)));
    }

    std::string gang = options.gang_per_epoch
                           ? "ml-epoch-" + std::to_string(g_ml_counter.fetch_add(1))
                           : "";

    std::vector<ObjectRef> grad_refs;
    for (const auto& [x_ref, y_ref] : shards) {
      TaskSpec spec;
      spec.function = "ml.grad";
      spec.body = grad_body;
      spec.args = {TaskArg::Ref(x_ref), TaskArg::Ref(y_ref), TaskArg::Ref(w_ref)};
      spec.num_returns = 1;
      spec.op_class = OpClass::kMatmul;
      spec.required_device = options.device;
      if (!gang.empty()) {
        spec.gang_group = gang;
        spec.gang_size = static_cast<int>(shards.size());
      }
      SKADI_ASSIGN_OR_RETURN(auto refs, runtime->Submit(std::move(spec)));
      grad_refs.push_back(refs[0]);
    }

    if (options.parameter_server) {
      // Ship every shard gradient to the actor by reference; applies run
      // serially against the actor's weights. Epoch barrier on the acks.
      std::vector<ObjectRef> acks;
      for (const ObjectRef& grad_ref : grad_refs) {
        TaskSpec apply_spec;
        apply_spec.function = "ml.ps.apply";
        apply_spec.body = ps_apply_body;
        apply_spec.args = {TaskArg::Ref(grad_ref)};
        apply_spec.num_returns = 1;
        SKADI_ASSIGN_OR_RETURN(auto ack,
                               runtime->SubmitActorTask(ps, std::move(apply_spec)));
        acks.push_back(ack[0]);
      }
      SKADI_RETURN_IF_ERROR(runtime->Wait(acks, 30000));
      // Refresh the driver's copy for the loss probe / final result.
      TaskSpec get_spec;
      get_spec.function = "ml.ps.get";
      get_spec.body = ps_get_body;
      get_spec.num_returns = 1;
      SKADI_ASSIGN_OR_RETURN(auto snap, runtime->SubmitActorTask(ps, std::move(get_spec)));
      SKADI_ASSIGN_OR_RETURN(Buffer w_buffer, runtime->Get(snap[0]));
      SKADI_ASSIGN_OR_RETURN(model.weights, DeserializeTensor(w_buffer));
    } else {
      // Average the (unscaled) shard gradients: sum / total_rows. All shard
      // gradients resolve concurrently; the fold itself stays on the driver.
      Tensor grad = Tensor::Zeros({feature_dim, 1});
      SKADI_ASSIGN_OR_RETURN(std::vector<Buffer> grad_buffers,
                             runtime->GetAll(grad_refs));
      for (const Buffer& buffer : grad_buffers) {
        SKADI_ASSIGN_OR_RETURN(Tensor shard_grad, DeserializeTensor(buffer));
        SKADI_ASSIGN_OR_RETURN(grad, Add(grad, shard_grad));
      }
      grad = Scale(grad, 1.0 / static_cast<double>(total_rows));
      SKADI_ASSIGN_OR_RETURN(
          model.weights, Sub(model.weights, Scale(grad, options.learning_rate)));
    }

    // Loss on shard 0 (cheap progress signal).
    TaskSpec loss_spec;
    loss_spec.function = "ml.loss";
    loss_spec.body = loss_body;
    SKADI_ASSIGN_OR_RETURN(ObjectRef w2_ref, runtime->Put(SerializeTensor(model.weights)));
    loss_spec.args = {TaskArg::Ref(shards[0].first), TaskArg::Ref(shards[0].second),
                      TaskArg::Ref(w2_ref)};
    loss_spec.num_returns = 1;
    loss_spec.op_class = OpClass::kReduce;
    SKADI_ASSIGN_OR_RETURN(auto loss_refs, runtime->Submit(std::move(loss_spec)));
    SKADI_ASSIGN_OR_RETURN(Buffer loss_buffer, runtime->Get(loss_refs[0]));
    BufferReader reader(loss_buffer);
    model.loss_curve.push_back(reader.ReadF64());
  }
  return model;
}

}  // namespace skadi
