/**
 * @file
 * OpBuilder: typed creation helpers for every op kind. This is the API
 * model-zoo builders and compiler passes use to construct IR. Each helper
 * sets the op's attributes and takes its result type from the op's rule
 * in src/ir/op_rules.h — the same rule the verifier, the analysis lint and
 * the deserializers enforce — so misuse is a PARTIR_CHECK printing the
 * broken rule.
 */
#ifndef PARTIR_IR_BUILDER_H_
#define PARTIR_IR_BUILDER_H_

#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/ir/ir.h"
#include "src/mesh/mesh.h"

namespace partir {

/** Builds operations at the end of a block, or at an insertion point. */
class OpBuilder {
 public:
  explicit OpBuilder(Block* block) : block_(block) {}

  Block* block() const { return block_; }
  /** Builds at the end of `block`. */
  void SetInsertionBlock(Block* block) {
    block_ = block;
    index_ = -1;
  }
  /** Builds just before the operation at `index` of `block`; each created
   *  op moves the insertion point past itself. */
  void SetInsertionPoint(Block* block, int index) {
    block_ = block;
    index_ = index;
  }

  /**
   * Provides the device mesh, required for building collectives whose
   * result shapes depend on axis sizes (all_slice / all_gather / ...).
   */
  void SetMesh(Mesh mesh) { mesh_ = std::move(mesh); }

  // ---- Generic creation ----

  /** Creates an op with explicit result types (no inference; the verifier
   *  checks them against the op's rule). */
  Operation* Create(OpKind kind, std::vector<Value*> operands,
                    std::vector<Type> result_types);

  // ---- Array IR ----

  /** Scalar or splat constant of the given shape. */
  Value* Constant(double splat, std::vector<int64_t> dims = {},
                  DType dtype = DType::kF32);
  /** Dense constant with explicit row-major data. */
  Value* ConstantData(std::vector<float> data, std::vector<int64_t> dims);
  /** Integer iota along a dimension. */
  Value* Iota(std::vector<int64_t> dims, int64_t dim,
              DType dtype = DType::kS32);

  Value* Unary(OpKind kind, Value* operand);
  Value* Neg(Value* x) { return Unary(OpKind::kNeg, x); }
  Value* Exp(Value* x) { return Unary(OpKind::kExp, x); }
  Value* Log(Value* x) { return Unary(OpKind::kLog, x); }
  Value* Tanh(Value* x) { return Unary(OpKind::kTanh, x); }
  Value* Rsqrt(Value* x) { return Unary(OpKind::kRsqrt, x); }
  Value* Sqrt(Value* x) { return Unary(OpKind::kSqrt, x); }
  Value* Logistic(Value* x) { return Unary(OpKind::kLogistic, x); }

  Value* Binary(OpKind kind, Value* lhs, Value* rhs);
  Value* Add(Value* a, Value* b) { return Binary(OpKind::kAdd, a, b); }
  Value* Sub(Value* a, Value* b) { return Binary(OpKind::kSub, a, b); }
  Value* Mul(Value* a, Value* b) { return Binary(OpKind::kMul, a, b); }
  Value* Div(Value* a, Value* b) { return Binary(OpKind::kDiv, a, b); }
  Value* Max(Value* a, Value* b) { return Binary(OpKind::kMax, a, b); }
  Value* Min(Value* a, Value* b) { return Binary(OpKind::kMin, a, b); }
  Value* Pow(Value* a, Value* b) { return Binary(OpKind::kPow, a, b); }

  /** Elementwise op against a scalar constant, broadcast to match. */
  Value* AddScalar(Value* a, double c);
  Value* MulScalar(Value* a, double c);

  /**
   * General dot product (dot_general). Result dims are the lhs batch dims,
   * then lhs free dims, then rhs free dims.
   */
  Value* Dot(Value* lhs, Value* rhs, std::vector<int64_t> lhs_contract,
             std::vector<int64_t> rhs_contract,
             std::vector<int64_t> lhs_batch = {},
             std::vector<int64_t> rhs_batch = {});

  /** Plain 2-D matrix multiplication (the paper's matmul sugar). */
  Value* MatMul(Value* lhs, Value* rhs) {
    return Dot(lhs, rhs, {lhs->tensor_type().rank() - 1}, {0});
  }

  Value* Transpose(Value* operand, std::vector<int64_t> perm);
  Value* Reshape(Value* operand, std::vector<int64_t> new_dims);
  /** Reduction over the given dims (removed from the shape). */
  Value* Reduce(Value* operand, std::vector<int64_t> dims,
                const std::string& reduction = "sum");
  Value* BroadcastInDim(Value* operand, std::vector<int64_t> target_dims,
                        std::vector<int64_t> broadcast_dims);
  /** Broadcasts a rank-0 or matching-suffix tensor like NumPy to target. */
  Value* BroadcastTo(Value* operand, const std::vector<int64_t>& target_dims);
  Value* Concatenate(std::vector<Value*> operands, int64_t dim);
  Value* StaticSlice(Value* operand, std::vector<int64_t> starts,
                     std::vector<int64_t> limits);
  /** Take rows of `table` (dim 0) at integer `indices`. */
  Value* Gather(Value* table, Value* indices);
  /**
   * Scatter-add into a fresh zero tensor of num_rows rows:
   * result[indices[i], ...] += updates[i, ...]; indices is rank-1.
   * (Accumulating into an existing tensor is expressed as Add(init, result),
   * keeping this op linear in `updates` — the property its sum-tiling
   * rewrite relies on.)
   */
  Value* ScatterAdd(Value* indices, Value* updates, int64_t num_rows);
  /** 2-D convolution, NHWC x HWIO -> NHWC, SAME padding. */
  Value* Convolution(Value* input, Value* filter,
                     std::vector<int64_t> strides = {1, 1});
  Value* ConvInputGrad(Value* out_grad, Value* filter,
                       std::vector<int64_t> input_dims,
                       std::vector<int64_t> strides);
  Value* ConvFilterGrad(Value* out_grad, Value* input,
                        std::vector<int64_t> filter_dims,
                        std::vector<int64_t> strides);

  /**
   * Identity op carrying a user-visible name (Section 8 tag primitive).
   * With barrier=true the tag is also a *propagation barrier* (Section 3):
   * tilings do not flow across it, and lowering redistributes between the
   * producer's and the consumers' placements — the mechanism behind
   * strategies that re-lay-out activations mid-model (e.g. multi-query
   * attention sharding).
   */
  Value* Tag(Value* operand, const std::string& name, bool barrier = false);

  void Return(std::vector<Value*> values);

  // ---- Composite helpers (lowered to primitives at build time) ----

  /** Numerically-stable softmax over the last dimension. */
  Value* Softmax(Value* logits);
  /** RMS normalization over the last dimension, scaled by `scale`. */
  Value* RmsNorm(Value* x, Value* scale);
  /** Mean over the given dims. */
  Value* Mean(Value* x, std::vector<int64_t> dims);

  // ---- PartIR:Core ----

  /**
   * Creates `loop axis [action] (%r: range<size>) { ... }`.
   * action is "tile" (with tile_dim), "sum", or "any"; the caller populates
   * the region body and terminates it with Yield.
   */
  Operation* Loop(const std::string& axis, int64_t axis_size,
                  const std::string& action, int64_t tile_dim,
                  Type result_type);
  /** slice dim %operand[%range]. */
  Value* PSlice(Value* operand, Value* range, int64_t dim);
  void Yield(Block* loop_body, std::vector<Value*> values);

  // ---- PartIR:HLO collectives ----

  Value* AllSlice(Value* operand, AxesPerDim axes);
  Value* AllGather(Value* operand, AxesPerDim axes);
  Value* AllReduce(Value* operand, std::vector<std::string> axes,
                   const std::string& reduction = "sum");
  Value* ReduceScatter(Value* operand, AxesPerDim axes,
                       const std::string& reduction = "sum");
  Value* AllToAll(Value* operand, int64_t slice_dim, int64_t concat_dim,
                  std::vector<std::string> axes);

 private:
  /** Inserts `op` at the insertion point. */
  Operation* Place(std::unique_ptr<Operation> op);
  /** Sets the result types of `op` from its rule (aborting with the rule's
   *  message on misuse) and inserts it. */
  Operation* Finish(std::unique_ptr<Operation> op);
  /** One attribute of a Build call. `value` is mutable so Build can move
   *  it out of the (const) initializer list instead of copying it. */
  struct NamedAttr {
    const char* name;
    mutable Attr value;
  };
  /** Builds a single-result op from operands and attributes; `declared` is
   *  the result type for the kinds whose rule takes it from the op. */
  Value* Build(OpKind kind, std::vector<Value*> operands,
               std::initializer_list<NamedAttr> attrs, Type declared = Type());
  /** Builds an axis-dependent collective (needs SetMesh). */
  Value* BuildCollective(OpKind kind, Value* operand,
                         std::initializer_list<NamedAttr> attrs);
  /** Broadcasts a reduced value back to target_dims (reduced dims of size 1
   *  re-inserted at `removed_dims`). */
  Value* BroadcastBack(Value* reduced, const std::vector<int64_t>& target_dims,
                       const std::vector<int64_t>& removed_dims);

  Block* block_;
  int index_ = -1;
  std::optional<Mesh> mesh_;
};

}  // namespace partir

#endif  // PARTIR_IR_BUILDER_H_
