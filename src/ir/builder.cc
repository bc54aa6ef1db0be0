#include "src/ir/builder.h"

#include <algorithm>
#include <cmath>

#include "src/ir/op_rules.h"

namespace partir {

Operation* OpBuilder::Place(std::unique_ptr<Operation> op) {
  if (index_ < 0) return block_->Append(std::move(op));
  return block_->Insert(index_++, std::move(op));
}

Operation* OpBuilder::Create(OpKind kind, std::vector<Value*> operands,
                             std::vector<Type> result_types) {
  return Place(std::make_unique<Operation>(kind, std::move(operands),
                                           std::move(result_types)));
}

Operation* OpBuilder::Finish(std::unique_ptr<Operation> op) {
  StatusOr<std::vector<Type>> types =
      InferResultTypes(*op, mesh_.has_value() ? &*mesh_ : nullptr);
  PARTIR_CHECK(types.ok()) << types.status().message();
  PARTIR_CHECK(static_cast<int>(types->size()) == op->num_results());
  for (int i = 0; i < op->num_results(); ++i) {
    op->result(i)->set_type(std::move((*types)[i]));
  }
  return Place(std::move(op));
}

Value* OpBuilder::Build(OpKind kind, std::vector<Value*> operands,
                        std::initializer_list<NamedAttr> attrs,
                        Type declared) {
  std::vector<Type> result_types;
  result_types.push_back(std::move(declared));  // a braced list would copy
  auto op = std::make_unique<Operation>(kind, std::move(operands),
                                        std::move(result_types));
  for (const NamedAttr& attr : attrs) {
    op->attrs().Set(attr.name, std::move(attr.value));
  }
  return Finish(std::move(op))->result();
}

Value* OpBuilder::BuildCollective(OpKind kind, Value* operand,
                                  std::initializer_list<NamedAttr> attrs) {
  PARTIR_CHECK(mesh_.has_value()) << "SetMesh before building collectives";
  return Build(kind, {operand}, attrs);
}

Value* OpBuilder::Constant(double splat, std::vector<int64_t> dims,
                           DType dtype) {
  return Build(OpKind::kConstant, {}, {{"splat", splat}},
               TensorType(std::move(dims), dtype));
}

Value* OpBuilder::ConstantData(std::vector<float> data,
                               std::vector<int64_t> dims) {
  auto op = std::make_unique<Operation>(
      OpKind::kConstant, std::vector<Value*>{},
      std::vector<Type>{TensorType(std::move(dims), DType::kF32)});
  op->attrs().Set("data", std::move(data));
  return Finish(std::move(op))->result();
}

Value* OpBuilder::Iota(std::vector<int64_t> dims, int64_t dim, DType dtype) {
  return Build(OpKind::kIota, {}, {{"dim", dim}},
               TensorType(std::move(dims), dtype));
}

Value* OpBuilder::Unary(OpKind kind, Value* operand) {
  return Build(kind, {operand}, {});
}

Value* OpBuilder::Binary(OpKind kind, Value* lhs, Value* rhs) {
  return Build(kind, {lhs, rhs}, {});
}

Value* OpBuilder::AddScalar(Value* a, double c) {
  Value* splat = Constant(c, a->tensor_type().dims(),
                          a->tensor_type().dtype());
  return Add(a, splat);
}

Value* OpBuilder::MulScalar(Value* a, double c) {
  Value* splat = Constant(c, a->tensor_type().dims(),
                          a->tensor_type().dtype());
  return Mul(a, splat);
}

Value* OpBuilder::Dot(Value* lhs, Value* rhs, std::vector<int64_t> lhs_contract,
                      std::vector<int64_t> rhs_contract,
                      std::vector<int64_t> lhs_batch,
                      std::vector<int64_t> rhs_batch) {
  return Build(OpKind::kDot, {lhs, rhs},
               {{"lhs_contract", std::move(lhs_contract)},
                {"rhs_contract", std::move(rhs_contract)},
                {"lhs_batch", std::move(lhs_batch)},
                {"rhs_batch", std::move(rhs_batch)}});
}

Value* OpBuilder::Transpose(Value* operand, std::vector<int64_t> perm) {
  return Build(OpKind::kTranspose, {operand}, {{"perm", std::move(perm)}});
}

Value* OpBuilder::Reshape(Value* operand, std::vector<int64_t> new_dims) {
  return Build(OpKind::kReshape, {operand}, {},
               TensorType(std::move(new_dims), operand->tensor_type().dtype()));
}

Value* OpBuilder::Reduce(Value* operand, std::vector<int64_t> dims,
                         const std::string& reduction) {
  return Build(OpKind::kReduce, {operand},
               {{"dims", std::move(dims)}, {"reduction", reduction}});
}

Value* OpBuilder::BroadcastInDim(Value* operand,
                                 std::vector<int64_t> target_dims,
                                 std::vector<int64_t> broadcast_dims) {
  return Build(OpKind::kBroadcastInDim, {operand},
               {{"broadcast_dims", std::move(broadcast_dims)}},
               TensorType(std::move(target_dims),
                          operand->tensor_type().dtype()));
}

Value* OpBuilder::BroadcastTo(Value* operand,
                              const std::vector<int64_t>& target_dims) {
  const TensorType& t = operand->tensor_type();
  if (t.dims() == target_dims) return operand;
  // Suffix alignment: operand dims map to the trailing target dims.
  int offset = static_cast<int>(target_dims.size()) - t.rank();
  PARTIR_CHECK(offset >= 0) << "cannot broadcast to lower rank";
  std::vector<int64_t> broadcast_dims(t.rank());
  for (int i = 0; i < t.rank(); ++i) broadcast_dims[i] = offset + i;
  return BroadcastInDim(operand, target_dims, broadcast_dims);
}

Value* OpBuilder::Concatenate(std::vector<Value*> operands, int64_t dim) {
  return Build(OpKind::kConcatenate, std::move(operands), {{"dim", dim}});
}

Value* OpBuilder::StaticSlice(Value* operand, std::vector<int64_t> starts,
                              std::vector<int64_t> limits) {
  return Build(OpKind::kStaticSlice, {operand},
               {{"starts", std::move(starts)}, {"limits", std::move(limits)}});
}

Value* OpBuilder::Gather(Value* table, Value* indices) {
  return Build(OpKind::kGather, {table, indices}, {});
}

Value* OpBuilder::ScatterAdd(Value* indices, Value* updates,
                             int64_t num_rows) {
  return Build(OpKind::kScatterAdd, {indices, updates},
               {{"num_rows", num_rows}});
}

Value* OpBuilder::Convolution(Value* input, Value* filter,
                              std::vector<int64_t> strides) {
  return Build(OpKind::kConvolution, {input, filter},
               {{"strides", std::move(strides)}});
}

Value* OpBuilder::ConvInputGrad(Value* out_grad, Value* filter,
                                std::vector<int64_t> input_dims,
                                std::vector<int64_t> strides) {
  return Build(OpKind::kConvInputGrad, {out_grad, filter},
               {{"strides", std::move(strides)}},
               TensorType(std::move(input_dims),
                          out_grad->tensor_type().dtype()));
}

Value* OpBuilder::ConvFilterGrad(Value* out_grad, Value* input,
                                 std::vector<int64_t> filter_dims,
                                 std::vector<int64_t> strides) {
  return Build(OpKind::kConvFilterGrad, {out_grad, input},
               {{"strides", std::move(strides)}},
               TensorType(std::move(filter_dims),
                          out_grad->tensor_type().dtype()));
}

Value* OpBuilder::Tag(Value* operand, const std::string& name, bool barrier) {
  if (barrier) {
    return Build(OpKind::kTag, {operand},
                 {{"name", name}, {"barrier", int64_t{1}}});
  }
  return Build(OpKind::kTag, {operand}, {{"name", name}});
}

void OpBuilder::Return(std::vector<Value*> values) {
  Finish(std::make_unique<Operation>(OpKind::kReturn, std::move(values),
                                     std::vector<Type>{}));
}

Value* OpBuilder::BroadcastBack(Value* reduced,
                                const std::vector<int64_t>& target_dims,
                                const std::vector<int64_t>& removed_dims) {
  auto removed = [&](int64_t d) {
    return std::find(removed_dims.begin(), removed_dims.end(), d) !=
           removed_dims.end();
  };
  std::vector<int64_t> broadcast_dims;
  for (int64_t d = 0; d < static_cast<int64_t>(target_dims.size()); ++d) {
    if (!removed(d)) broadcast_dims.push_back(d);
  }
  return BroadcastInDim(reduced, target_dims, std::move(broadcast_dims));
}

Value* OpBuilder::Softmax(Value* logits) {
  const TensorType& t = logits->tensor_type();
  int64_t last = t.rank() - 1;
  Value* max = Reduce(logits, {last}, "max");
  Value* centered = Sub(logits, BroadcastBack(max, t.dims(), {last}));
  Value* exped = Exp(centered);
  Value* sum = Reduce(exped, {last}, "sum");
  return Div(exped, BroadcastBack(sum, t.dims(), {last}));
}

Value* OpBuilder::RmsNorm(Value* x, Value* scale) {
  const TensorType& t = x->tensor_type();
  int64_t last = t.rank() - 1;
  Value* sq = Mul(x, x);
  Value* mean = MulScalar(Reduce(sq, {last}, "sum"),
                          1.0 / static_cast<double>(t.dim(last)));
  Value* inv = Rsqrt(AddScalar(mean, 1e-6));
  Value* normed = Mul(x, BroadcastBack(inv, t.dims(), {last}));
  return Mul(normed, BroadcastTo(scale, t.dims()));
}

Value* OpBuilder::Mean(Value* x, std::vector<int64_t> dims) {
  const TensorType& t = x->tensor_type();
  int64_t count = 1;
  for (int64_t d : dims) count *= t.dim(d);
  return MulScalar(Reduce(x, std::move(dims), "sum"),
                   1.0 / static_cast<double>(count));
}

Operation* OpBuilder::Loop(const std::string& axis, int64_t axis_size,
                           const std::string& action, int64_t tile_dim,
                           Type result_type) {
  Operation* op = Create(OpKind::kLoop, {}, {std::move(result_type)});
  op->attrs().Set("axis", axis);
  op->attrs().Set("action", action);
  op->attrs().Set("tile_dim", tile_dim);
  Region& region = op->AddRegion();
  region.block().AddArg(RangeType(axis_size, axis), StrCat("r_", axis));
  return op;
}

Value* OpBuilder::PSlice(Value* operand, Value* range, int64_t dim) {
  return Build(OpKind::kPSlice, {operand, range}, {{"dim", dim}});
}

void OpBuilder::Yield(Block* loop_body, std::vector<Value*> values) {
  auto op = std::make_unique<Operation>(OpKind::kYield, std::move(values),
                                        std::vector<Type>{});
  loop_body->Append(std::move(op));
}

Value* OpBuilder::AllSlice(Value* operand, AxesPerDim axes) {
  return BuildCollective(OpKind::kAllSlice, operand,
                         {{"axes_per_dim", std::move(axes)}});
}

Value* OpBuilder::AllGather(Value* operand, AxesPerDim axes) {
  return BuildCollective(OpKind::kAllGather, operand,
                         {{"axes_per_dim", std::move(axes)}});
}

Value* OpBuilder::AllReduce(Value* operand, std::vector<std::string> axes,
                            const std::string& reduction) {
  return Build(OpKind::kAllReduce, {operand},
               {{"axes", std::move(axes)}, {"reduction", reduction}});
}

Value* OpBuilder::ReduceScatter(Value* operand, AxesPerDim axes,
                                const std::string& reduction) {
  return BuildCollective(
      OpKind::kReduceScatter, operand,
      {{"axes_per_dim", std::move(axes)}, {"reduction", reduction}});
}

Value* OpBuilder::AllToAll(Value* operand, int64_t slice_dim,
                           int64_t concat_dim,
                           std::vector<std::string> axes) {
  return BuildCollective(OpKind::kAllToAll, operand,
                         {{"slice_dim", slice_dim},
                          {"concat_dim", concat_dim},
                          {"axes", std::move(axes)}});
}

}  // namespace partir
