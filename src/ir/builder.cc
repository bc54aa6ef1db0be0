#include "src/ir/builder.h"

#include <algorithm>
#include <cmath>

namespace partir {
namespace {

// Divides dim by the product of the named axes' sizes, checking divisibility.
int64_t DivideDim(int64_t dim, const std::vector<std::string>& axes,
                  const std::function<int64_t(const std::string&)>& size) {
  for (const std::string& axis : axes) {
    int64_t n = size(axis);
    PARTIR_CHECK(dim % n == 0)
        << "dim " << dim << " not divisible by axis '" << axis << "' of size "
        << n;
    dim /= n;
  }
  return dim;
}

}  // namespace

Operation* OpBuilder::Create(OpKind kind, std::vector<Value*> operands,
                             std::vector<Type> result_types) {
  auto op = std::make_unique<Operation>(kind, std::move(operands),
                                        std::move(result_types));
  if (index_ < 0) return block_->Append(std::move(op));
  return block_->Insert(index_++, std::move(op));
}

Value* OpBuilder::AppendOp(OpKind kind, std::vector<Value*> operands,
                           Type result_type) {
  return Create(kind, std::move(operands), {std::move(result_type)})->result();
}

Value* OpBuilder::Constant(double splat, std::vector<int64_t> dims,
                           DType dtype) {
  Operation* op =
      Create(OpKind::kConstant, {}, {TensorType(std::move(dims), dtype)});
  op->attrs().Set("splat", splat);
  return op->result();
}

Value* OpBuilder::ConstantData(std::vector<float> data,
                               std::vector<int64_t> dims) {
  TensorType type(dims, DType::kF32);
  PARTIR_CHECK(static_cast<int64_t>(data.size()) == type.NumElements())
      << "constant data size mismatch";
  Operation* op = Create(OpKind::kConstant, {}, {type});
  op->attrs().Set("data", std::move(data));
  return op->result();
}

Value* OpBuilder::Iota(std::vector<int64_t> dims, int64_t dim, DType dtype) {
  Operation* op =
      Create(OpKind::kIota, {}, {TensorType(std::move(dims), dtype)});
  op->attrs().Set("dim", dim);
  return op->result();
}

Value* OpBuilder::Unary(OpKind kind, Value* operand) {
  return AppendOp(kind, {operand}, operand->type());
}

Value* OpBuilder::Binary(OpKind kind, Value* lhs, Value* rhs) {
  PARTIR_CHECK(lhs->tensor_type() == rhs->tensor_type())
      << "binary elementwise shape mismatch: "
      << lhs->tensor_type().ToString() << " vs "
      << rhs->tensor_type().ToString();
  return AppendOp(kind, {lhs, rhs}, lhs->type());
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
  const TensorType& lt = lhs->tensor_type();
  const TensorType& rt = rhs->tensor_type();
  PARTIR_CHECK(lhs_contract.size() == rhs_contract.size());
  PARTIR_CHECK(lhs_batch.size() == rhs_batch.size());
  for (size_t i = 0; i < lhs_contract.size(); ++i) {
    PARTIR_CHECK(lt.dim(lhs_contract[i]) == rt.dim(rhs_contract[i]))
        << "contracting dim mismatch";
  }
  for (size_t i = 0; i < lhs_batch.size(); ++i) {
    PARTIR_CHECK(lt.dim(lhs_batch[i]) == rt.dim(rhs_batch[i]))
        << "batch dim mismatch";
  }
  auto contains = [](const std::vector<int64_t>& v, int64_t x) {
    return std::find(v.begin(), v.end(), x) != v.end();
  };
  std::vector<int64_t> result_dims;
  for (int64_t b : lhs_batch) result_dims.push_back(lt.dim(b));
  for (int i = 0; i < lt.rank(); ++i) {
    if (!contains(lhs_contract, i) && !contains(lhs_batch, i)) {
      result_dims.push_back(lt.dim(i));
    }
  }
  for (int i = 0; i < rt.rank(); ++i) {
    if (!contains(rhs_contract, i) && !contains(rhs_batch, i)) {
      result_dims.push_back(rt.dim(i));
    }
  }
  Operation* op = Create(OpKind::kDot, {lhs, rhs},
                         {TensorType(result_dims, lt.dtype())});
  op->attrs().Set("lhs_contract", lhs_contract);
  op->attrs().Set("rhs_contract", rhs_contract);
  op->attrs().Set("lhs_batch", lhs_batch);
  op->attrs().Set("rhs_batch", rhs_batch);
  return op->result();
}

Value* OpBuilder::Transpose(Value* operand, std::vector<int64_t> perm) {
  const TensorType& t = operand->tensor_type();
  PARTIR_CHECK(static_cast<int>(perm.size()) == t.rank());
  std::vector<int64_t> result_dims(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) result_dims[i] = t.dim(perm[i]);
  Operation* op = Create(OpKind::kTranspose, {operand},
                         {TensorType(result_dims, t.dtype())});
  op->attrs().Set("perm", std::move(perm));
  return op->result();
}

Value* OpBuilder::Reshape(Value* operand, std::vector<int64_t> new_dims) {
  const TensorType& t = operand->tensor_type();
  TensorType result(new_dims, t.dtype());
  PARTIR_CHECK(result.NumElements() == t.NumElements())
      << "reshape element count mismatch";
  return AppendOp(OpKind::kReshape, {operand}, result);
}

Value* OpBuilder::Reduce(Value* operand, std::vector<int64_t> dims,
                         const std::string& reduction) {
  const TensorType& t = operand->tensor_type();
  auto contains = [&](int64_t x) {
    return std::find(dims.begin(), dims.end(), x) != dims.end();
  };
  std::vector<int64_t> result_dims;
  for (int i = 0; i < t.rank(); ++i) {
    if (!contains(i)) result_dims.push_back(t.dim(i));
  }
  Operation* op = Create(OpKind::kReduce, {operand},
                         {TensorType(result_dims, t.dtype())});
  op->attrs().Set("dims", std::move(dims));
  op->attrs().Set("reduction", reduction);
  return op->result();
}

Value* OpBuilder::BroadcastInDim(Value* operand,
                                 std::vector<int64_t> target_dims,
                                 std::vector<int64_t> broadcast_dims) {
  const TensorType& t = operand->tensor_type();
  PARTIR_CHECK(static_cast<int>(broadcast_dims.size()) == t.rank());
  for (int i = 0; i < t.rank(); ++i) {
    PARTIR_CHECK(target_dims.at(broadcast_dims[i]) == t.dim(i))
        << "broadcast dim size mismatch";
  }
  Operation* op = Create(OpKind::kBroadcastInDim, {operand},
                         {TensorType(std::move(target_dims), t.dtype())});
  op->attrs().Set("broadcast_dims", std::move(broadcast_dims));
  return op->result();
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
  PARTIR_CHECK(!operands.empty());
  const TensorType& first = operands.front()->tensor_type();
  std::vector<int64_t> result_dims = first.dims();
  int64_t total = 0;
  for (Value* v : operands) {
    const TensorType& t = v->tensor_type();
    PARTIR_CHECK(t.rank() == first.rank());
    for (int i = 0; i < t.rank(); ++i) {
      if (i != dim) PARTIR_CHECK(t.dim(i) == first.dim(i));
    }
    total += t.dim(dim);
  }
  result_dims[dim] = total;
  Operation* op = Create(OpKind::kConcatenate, std::move(operands),
                         {TensorType(result_dims, first.dtype())});
  op->attrs().Set("dim", dim);
  return op->result();
}

Value* OpBuilder::StaticSlice(Value* operand, std::vector<int64_t> starts,
                              std::vector<int64_t> limits) {
  const TensorType& t = operand->tensor_type();
  PARTIR_CHECK(static_cast<int>(starts.size()) == t.rank());
  std::vector<int64_t> result_dims(t.rank());
  for (int i = 0; i < t.rank(); ++i) {
    PARTIR_CHECK(0 <= starts[i] && starts[i] <= limits[i] &&
                 limits[i] <= t.dim(i))
        << "slice bounds out of range";
    result_dims[i] = limits[i] - starts[i];
  }
  Operation* op = Create(OpKind::kStaticSlice, {operand},
                         {TensorType(result_dims, t.dtype())});
  op->attrs().Set("starts", std::move(starts));
  op->attrs().Set("limits", std::move(limits));
  return op->result();
}

Value* OpBuilder::Gather(Value* table, Value* indices) {
  const TensorType& tt = table->tensor_type();
  const TensorType& it = indices->tensor_type();
  PARTIR_CHECK(it.dtype() == DType::kS32) << "gather indices must be s32";
  std::vector<int64_t> result_dims = it.dims();
  for (int i = 1; i < tt.rank(); ++i) result_dims.push_back(tt.dim(i));
  return AppendOp(OpKind::kGather, {table, indices},
                  TensorType(result_dims, tt.dtype()));
}

Value* OpBuilder::ScatterAdd(Value* indices, Value* updates,
                             int64_t num_rows) {
  const TensorType& idx_t = indices->tensor_type();
  const TensorType& upd_t = updates->tensor_type();
  PARTIR_CHECK(idx_t.rank() >= 1) << "scatter_add indices must have rank>=1";
  PARTIR_CHECK(upd_t.rank() > idx_t.rank())
      << "scatter_add updates must extend the indices dims";
  for (int i = 0; i < idx_t.rank(); ++i) {
    PARTIR_CHECK(upd_t.dim(i) == idx_t.dim(i))
        << "scatter_add updates/indices leading-dim mismatch";
  }
  std::vector<int64_t> result_dims = {num_rows};
  for (int i = idx_t.rank(); i < upd_t.rank(); ++i) {
    result_dims.push_back(upd_t.dim(i));
  }
  Operation* op = Create(OpKind::kScatterAdd, {indices, updates},
                         {TensorType(result_dims, upd_t.dtype())});
  op->attrs().Set("num_rows", num_rows);
  return op->result();
}

Value* OpBuilder::Convolution(Value* input, Value* filter,
                              std::vector<int64_t> strides) {
  const TensorType& in = input->tensor_type();   // NHWC
  const TensorType& f = filter->tensor_type();   // HWIO
  PARTIR_CHECK(in.rank() == 4 && f.rank() == 4);
  PARTIR_CHECK(in.dim(3) == f.dim(2)) << "conv input-channel mismatch";
  int64_t out_h = (in.dim(1) + strides[0] - 1) / strides[0];
  int64_t out_w = (in.dim(2) + strides[1] - 1) / strides[1];
  Operation* op = Create(
      OpKind::kConvolution, {input, filter},
      {TensorType({in.dim(0), out_h, out_w, f.dim(3)}, in.dtype())});
  op->attrs().Set("strides", std::move(strides));
  return op->result();
}

Value* OpBuilder::ConvInputGrad(Value* out_grad, Value* filter,
                                std::vector<int64_t> input_dims,
                                std::vector<int64_t> strides) {
  Operation* op =
      Create(OpKind::kConvInputGrad, {out_grad, filter},
             {TensorType(input_dims, out_grad->tensor_type().dtype())});
  op->attrs().Set("strides", std::move(strides));
  return op->result();
}

Value* OpBuilder::ConvFilterGrad(Value* out_grad, Value* input,
                                 std::vector<int64_t> filter_dims,
                                 std::vector<int64_t> strides) {
  Operation* op =
      Create(OpKind::kConvFilterGrad, {out_grad, input},
             {TensorType(filter_dims, out_grad->tensor_type().dtype())});
  op->attrs().Set("strides", std::move(strides));
  return op->result();
}

Value* OpBuilder::Tag(Value* operand, const std::string& name, bool barrier) {
  Operation* op = Create(OpKind::kTag, {operand}, {operand->type()});
  op->attrs().Set("name", name);
  if (barrier) op->attrs().Set("barrier", int64_t{1});
  return op->result();
}

void OpBuilder::Return(std::vector<Value*> values) {
  Create(OpKind::kReturn, std::move(values), {});
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
  const TensorType& t = operand->tensor_type();
  const RangeType& r = range->type().range();
  PARTIR_CHECK(t.dim(dim) % r.size() == 0)
      << "slice dim " << t.dim(dim) << " not divisible by range " << r.size();
  std::vector<int64_t> result_dims = t.dims();
  result_dims[dim] /= r.size();
  Operation* op = Create(OpKind::kPSlice, {operand, range},
                         {TensorType(result_dims, t.dtype())});
  op->attrs().Set("dim", dim);
  return op->result();
}

void OpBuilder::Yield(Block* loop_body, std::vector<Value*> values) {
  auto op = std::make_unique<Operation>(OpKind::kYield, std::move(values),
                                        std::vector<Type>{});
  loop_body->Append(std::move(op));
}

Value* OpBuilder::AllSlice(Value* operand, AxesPerDim axes) {
  PARTIR_CHECK(axis_size_) << "SetAxisSizeFn before building collectives";
  const TensorType& t = operand->tensor_type();
  std::vector<int64_t> local = LocalDims(t.dims(), axes, axis_size_);
  Operation* op = Create(OpKind::kAllSlice, {operand},
                         {TensorType(local, t.dtype())});
  op->attrs().Set("axes_per_dim", std::move(axes));
  return op->result();
}

Value* OpBuilder::AllGather(Value* operand, AxesPerDim axes) {
  PARTIR_CHECK(axis_size_) << "SetAxisSizeFn before building collectives";
  const TensorType& t = operand->tensor_type();
  PARTIR_CHECK(axes.size() == t.dims().size());
  std::vector<int64_t> global = t.dims();
  for (size_t i = 0; i < global.size(); ++i) {
    for (const std::string& axis : axes[i]) global[i] *= axis_size_(axis);
  }
  Operation* op = Create(OpKind::kAllGather, {operand},
                         {TensorType(global, t.dtype())});
  op->attrs().Set("axes_per_dim", std::move(axes));
  return op->result();
}

Value* OpBuilder::AllReduce(Value* operand, std::vector<std::string> axes,
                            const std::string& reduction) {
  Operation* op = Create(OpKind::kAllReduce, {operand}, {operand->type()});
  op->attrs().Set("axes", std::move(axes));
  op->attrs().Set("reduction", reduction);
  return op->result();
}

Value* OpBuilder::ReduceScatter(Value* operand, AxesPerDim axes,
                                const std::string& reduction) {
  PARTIR_CHECK(axis_size_) << "SetAxisSizeFn before building collectives";
  const TensorType& t = operand->tensor_type();
  std::vector<int64_t> local = LocalDims(t.dims(), axes, axis_size_);
  Operation* op = Create(OpKind::kReduceScatter, {operand},
                         {TensorType(local, t.dtype())});
  op->attrs().Set("axes_per_dim", std::move(axes));
  op->attrs().Set("reduction", reduction);
  return op->result();
}

Value* OpBuilder::AllToAll(Value* operand, int64_t slice_dim,
                           int64_t concat_dim,
                           std::vector<std::string> axes) {
  PARTIR_CHECK(axis_size_) << "SetAxisSizeFn before building collectives";
  const TensorType& t = operand->tensor_type();
  int64_t group = 1;
  for (const std::string& axis : axes) group *= axis_size_(axis);
  std::vector<int64_t> dims = t.dims();
  PARTIR_CHECK(dims[slice_dim] % group == 0) << "all_to_all indivisible dim";
  dims[slice_dim] /= group;
  dims[concat_dim] *= group;
  Operation* op = Create(OpKind::kAllToAll, {operand},
                         {TensorType(dims, t.dtype())});
  op->attrs().Set("slice_dim", slice_dim);
  op->attrs().Set("concat_dim", concat_dim);
  op->attrs().Set("axes", std::move(axes));
  return op->result();
}

std::vector<int64_t> OpBuilder::LocalDims(
    const std::vector<int64_t>& dims, const AxesPerDim& axes,
    const std::function<int64_t(const std::string&)>& axis_size) {
  PARTIR_CHECK(axes.size() == dims.size()) << "axes_per_dim rank mismatch";
  std::vector<int64_t> local = dims;
  for (size_t i = 0; i < dims.size(); ++i) {
    local[i] = DivideDim(dims[i], axes[i], axis_size);
  }
  return local;
}

}  // namespace partir
