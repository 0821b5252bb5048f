#include "src/ir/interp.h"

#include <unordered_map>

#include "src/ir/dialects.h"

namespace skadi {

int64_t IrValueBytes(const IrRuntimeValue& value) {
  if (const RecordBatch* batch = std::get_if<RecordBatch>(&value)) {
    return static_cast<int64_t>(batch->ByteSize());
  }
  if (const Tensor* tensor = std::get_if<Tensor>(&value)) {
    return static_cast<int64_t>(tensor->ByteSize());
  }
  return static_cast<int64_t>(sizeof(double));
}

namespace {

Result<RecordBatch> AsBatch(const IrRuntimeValue& v, const std::string& opcode) {
  const RecordBatch* batch = std::get_if<RecordBatch>(&v);
  if (batch == nullptr) {
    return Status::InvalidArgument("op '" + opcode + "' expects a table operand");
  }
  return *batch;
}

Result<Tensor> AsTensor(const IrRuntimeValue& v, const std::string& opcode) {
  const Tensor* tensor = std::get_if<Tensor>(&v);
  if (tensor == nullptr) {
    return Status::InvalidArgument("op '" + opcode + "' expects a tensor operand");
  }
  return *tensor;
}

// Applies one unary elementwise step of a fused chain, described as
// "tensor.relu" / "tensor.sigmoid" / "tensor.scale:<factor>".
Result<Tensor> ApplyFusedStep(Tensor input, const std::string& step) {
  if (step == kOpTensorRelu) {
    return Relu(input);
  }
  if (step == kOpTensorSigmoid) {
    return Sigmoid(input);
  }
  const std::string scale_prefix = std::string(kOpTensorScale) + ":";
  if (step.rfind(scale_prefix, 0) == 0) {
    return Scale(input, std::stod(step.substr(scale_prefix.size())));
  }
  return Status::InvalidArgument("unknown fused elementwise step '" + step + "'");
}

}  // namespace

Result<std::vector<IrRuntimeValue>> EvalIrFunction(const IrFunction& fn,
                                                   std::vector<IrRuntimeValue> args,
                                                   IrExecStats* stats,
                                                   const IrEvalOptions& options) {
  const ComputeOptions& copts = options.compute;
  SKADI_RETURN_IF_ERROR(fn.Verify());
  if (args.size() != fn.params().size()) {
    return Status::InvalidArgument("function '" + fn.name() + "' takes " +
                                   std::to_string(fn.params().size()) + " args, got " +
                                   std::to_string(args.size()));
  }
  std::unordered_map<ValueId, IrRuntimeValue> env;
  for (size_t i = 0; i < args.size(); ++i) {
    env.emplace(fn.params()[i], std::move(args[i]));
  }

  for (const IrOp& op : fn.ops()) {
    std::vector<const IrRuntimeValue*> in;
    in.reserve(op.operands.size());
    for (ValueId operand : op.operands) {
      in.push_back(&env.at(operand));
    }

    IrRuntimeValue result;
    const std::string& opcode = op.opcode;

    if (opcode == kOpRelFilter) {
      SKADI_ASSIGN_OR_RETURN(RecordBatch batch, AsBatch(*in[0], opcode));
      SKADI_ASSIGN_OR_RETURN(ExprPtr pred, op.GetAttr<ExprPtr>("pred"));
      SKADI_ASSIGN_OR_RETURN(RecordBatch out, FilterBatch(batch, *pred, copts));
      result = std::move(out);
    } else if (opcode == kOpRelProject) {
      SKADI_ASSIGN_OR_RETURN(RecordBatch batch, AsBatch(*in[0], opcode));
      SKADI_ASSIGN_OR_RETURN(auto projections,
                             op.GetAttr<std::vector<ProjectionSpec>>("projections"));
      SKADI_ASSIGN_OR_RETURN(RecordBatch out, ProjectBatch(batch, projections, copts));
      result = std::move(out);
    } else if (opcode == kOpFusedFilterProject) {
      SKADI_ASSIGN_OR_RETURN(RecordBatch batch, AsBatch(*in[0], opcode));
      SKADI_ASSIGN_OR_RETURN(ExprPtr pred, op.GetAttr<ExprPtr>("pred"));
      SKADI_ASSIGN_OR_RETURN(auto projections,
                             op.GetAttr<std::vector<ProjectionSpec>>("projections"));
      SKADI_ASSIGN_OR_RETURN(RecordBatch out,
                             FilterProjectBatch(batch, *pred, projections, copts));
      result = std::move(out);
    } else if (opcode == kOpRelAggregate) {
      SKADI_ASSIGN_OR_RETURN(RecordBatch batch, AsBatch(*in[0], opcode));
      SKADI_ASSIGN_OR_RETURN(auto group_by, op.GetAttr<std::vector<std::string>>("group_by"));
      SKADI_ASSIGN_OR_RETURN(auto aggs, op.GetAttr<std::vector<AggregateSpec>>("aggs"));
      SKADI_ASSIGN_OR_RETURN(RecordBatch out, GroupAggregateBatch(batch, group_by, aggs, copts));
      result = std::move(out);
    } else if (opcode == kOpRelJoin) {
      SKADI_ASSIGN_OR_RETURN(RecordBatch left, AsBatch(*in[0], opcode));
      SKADI_ASSIGN_OR_RETURN(RecordBatch right, AsBatch(*in[1], opcode));
      SKADI_ASSIGN_OR_RETURN(auto lk, op.GetAttr<std::vector<std::string>>("left_keys"));
      SKADI_ASSIGN_OR_RETURN(auto rk, op.GetAttr<std::vector<std::string>>("right_keys"));
      SKADI_ASSIGN_OR_RETURN(RecordBatch out, HashJoinBatch(left, right, lk, rk, copts));
      result = std::move(out);
    } else if (opcode == kOpRelSort) {
      SKADI_ASSIGN_OR_RETURN(RecordBatch batch, AsBatch(*in[0], opcode));
      SKADI_ASSIGN_OR_RETURN(auto keys, op.GetAttr<std::vector<SortKey>>("keys"));
      SKADI_ASSIGN_OR_RETURN(RecordBatch out, SortBatch(batch, keys));
      result = std::move(out);
    } else if (opcode == kOpRelLimit) {
      SKADI_ASSIGN_OR_RETURN(RecordBatch batch, AsBatch(*in[0], opcode));
      SKADI_ASSIGN_OR_RETURN(int64_t n, op.GetAttr<int64_t>("n"));
      result = LimitBatch(batch, n);
    } else if (opcode == kOpRelUnion) {
      SKADI_ASSIGN_OR_RETURN(RecordBatch a, AsBatch(*in[0], opcode));
      SKADI_ASSIGN_OR_RETURN(RecordBatch b, AsBatch(*in[1], opcode));
      SKADI_ASSIGN_OR_RETURN(RecordBatch out, ConcatBatches({a, b}));
      result = std::move(out);
    } else if (opcode == kOpTensorMatmul) {
      SKADI_ASSIGN_OR_RETURN(Tensor a, AsTensor(*in[0], opcode));
      SKADI_ASSIGN_OR_RETURN(Tensor b, AsTensor(*in[1], opcode));
      SKADI_ASSIGN_OR_RETURN(Tensor out, MatMul(a, b));
      result = std::move(out);
    } else if (opcode == kOpTensorAdd || opcode == kOpTensorSub || opcode == kOpTensorMul) {
      SKADI_ASSIGN_OR_RETURN(Tensor a, AsTensor(*in[0], opcode));
      SKADI_ASSIGN_OR_RETURN(Tensor b, AsTensor(*in[1], opcode));
      Result<Tensor> out = opcode == kOpTensorAdd ? Add(a, b)
                           : opcode == kOpTensorSub ? Sub(a, b)
                                                    : Mul(a, b);
      if (!out.ok()) {
        return out.status();
      }
      result = std::move(out).value();
    } else if (opcode == kOpTensorScale) {
      SKADI_ASSIGN_OR_RETURN(Tensor a, AsTensor(*in[0], opcode));
      SKADI_ASSIGN_OR_RETURN(double factor, op.GetAttr<double>("factor"));
      result = Scale(a, factor);
    } else if (opcode == kOpTensorRelu) {
      SKADI_ASSIGN_OR_RETURN(Tensor a, AsTensor(*in[0], opcode));
      result = Relu(a);
    } else if (opcode == kOpTensorSigmoid) {
      SKADI_ASSIGN_OR_RETURN(Tensor a, AsTensor(*in[0], opcode));
      result = Sigmoid(a);
    } else if (opcode == kOpTensorTranspose) {
      SKADI_ASSIGN_OR_RETURN(Tensor a, AsTensor(*in[0], opcode));
      result = Transpose(a);
    } else if (opcode == kOpTensorAddRow) {
      SKADI_ASSIGN_OR_RETURN(Tensor a, AsTensor(*in[0], opcode));
      SKADI_ASSIGN_OR_RETURN(Tensor row, AsTensor(*in[1], opcode));
      SKADI_ASSIGN_OR_RETURN(Tensor out, AddRowVector(a, row));
      result = std::move(out);
    } else if (opcode == kOpTensorReduceMean) {
      SKADI_ASSIGN_OR_RETURN(Tensor a, AsTensor(*in[0], opcode));
      result = ReduceMean(a);
    } else if (opcode == kOpFusedElementwise) {
      SKADI_ASSIGN_OR_RETURN(Tensor a, AsTensor(*in[0], opcode));
      SKADI_ASSIGN_OR_RETURN(auto steps, op.GetAttr<std::vector<std::string>>("sub_ops"));
      Tensor current = std::move(a);
      for (const std::string& step : steps) {
        SKADI_ASSIGN_OR_RETURN(current, ApplyFusedStep(std::move(current), step));
      }
      result = std::move(current);
    } else {
      return Status::Unimplemented("interpreter does not handle opcode '" + opcode + "'");
    }

    if (stats != nullptr) {
      stats->ops_executed += 1;
      stats->bytes_materialized += IrValueBytes(result);
    }
    env.emplace(op.results[0], std::move(result));
  }

  std::vector<IrRuntimeValue> outputs;
  outputs.reserve(fn.returns().size());
  for (ValueId ret : fn.returns()) {
    outputs.push_back(env.at(ret));
  }
  return outputs;
}

}  // namespace skadi
