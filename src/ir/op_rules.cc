#include "src/ir/op_rules.h"

#include <variant>

#include "src/support/str_util.h"

namespace partir {
namespace {

using Dims = std::vector<int64_t>;

bool InRange(int64_t index, size_t rank) {
  return index >= 0 && index < static_cast<int64_t>(rank);
}

/** *out = a * b; false on int64 overflow. */
bool MulChecked(int64_t a, int64_t b, int64_t* out) {
  return !__builtin_mul_overflow(a, b, out);
}

/** *out = the element count of `dims`; false on int64 overflow. */
bool NumElements(const Dims& dims, int64_t* out) {
  *out = 1;
  for (int64_t dim : dims) {
    if (!MulChecked(*out, dim, out)) return false;
  }
  return true;
}

template <typename T>
const char* AttrTypeName();
template <>
const char* AttrTypeName<int64_t>() { return "an int"; }
template <>
const char* AttrTypeName<double>() { return "a float"; }
template <>
const char* AttrTypeName<std::string>() { return "a string"; }
template <>
const char* AttrTypeName<Dims>() { return "an int list"; }
template <>
const char* AttrTypeName<std::vector<std::string>>() {
  return "a string list";
}
template <>
const char* AttrTypeName<AxesPerDim>() { return "an axes-per-dim list"; }
template <>
const char* AttrTypeName<std::vector<float>>() { return "a float list"; }

/** A one-type result list (built in place: braced lists copy). */
std::vector<Type> One(Type type) {
  std::vector<Type> types;
  types.push_back(std::move(type));
  return types;
}

/** The dims of one value claimed so far (inline up to rank 64). */
class DimSet {
 public:
  explicit DimSet(int rank) : rank_(rank) {
    if (rank > 64) wide_.resize(rank);
  }
  size_t rank() const { return static_cast<size_t>(rank_); }
  bool Has(int64_t d) const {
    return rank_ > 64 ? wide_[d] != 0 : ((bits_ >> d) & 1) != 0;
  }
  void Add(int64_t d) {
    if (rank_ > 64) {
      wide_[d] = 1;
    } else {
      bits_ |= uint64_t{1} << d;
    }
  }

 private:
  int rank_;
  uint64_t bits_ = 0;
  std::vector<char> wide_;
};

/** Checks one op against the rule of its kind. */
class OpRule {
 public:
  OpRule(const Operation& op, const Mesh* mesh) : op_(op), mesh_(mesh) {}

  StatusOr<std::vector<Type>> Infer() {
    const OpKind kind = op_.kind();
    if (kind != OpKind::kLoop && op_.num_regions() != 0) {
      return Malformed("only loops carry regions, this op has ",
                       op_.num_regions());
    }
    for (int i = 0; i < op_.num_operands(); ++i) {
      if (op_.operand(i) == nullptr) {
        return Malformed("operand ", i, " is null");
      }
    }
    if (IsUnaryElementwise(kind)) {
      PARTIR_RETURN_IF_ERROR(TensorOperands(1));
      return One(op_.operand(0)->type());
    }
    if (IsBinaryElementwise(kind)) {
      PARTIR_RETURN_IF_ERROR(TensorOperands(2));
      if (In(0) != In(1)) {
        return Misfit("operands disagree: ", In(0).ToString(), " vs ",
                      In(1).ToString());
      }
      return One(op_.operand(0)->type());
    }
    switch (kind) {
      case OpKind::kConstant: return Constant();
      case OpKind::kIota: return Iota();
      case OpKind::kDot: return Dot();
      case OpKind::kTranspose: return Transpose();
      case OpKind::kReshape: return Reshape();
      case OpKind::kReduce: return Reduce();
      case OpKind::kBroadcastInDim: return BroadcastInDim();
      case OpKind::kConcatenate: return Concatenate();
      case OpKind::kStaticSlice: return StaticSlice();
      case OpKind::kGather: return Gather();
      case OpKind::kScatterAdd: return ScatterAdd();
      case OpKind::kConvolution: return Convolution();
      case OpKind::kConvInputGrad:
      case OpKind::kConvFilterGrad: return ConvGrad();
      case OpKind::kTag: return Tag();
      case OpKind::kReturn:
      case OpKind::kYield:
        PARTIR_RETURN_IF_ERROR(AllTensors());
        return std::vector<Type>{};
      case OpKind::kLoop: return Loop();
      case OpKind::kPSlice: return PSlice();
      case OpKind::kAllSlice:
      case OpKind::kAllGather:
      case OpKind::kReduceScatter: return AxesPerDimCollective();
      case OpKind::kAllReduce: return AllReduce();
      case OpKind::kAllToAll: return AllToAll();
      default: break;  // the elementwise kinds, handled above
    }
    return Malformed("has no type rule");
  }

 private:
  // ---- Error builders: one per Status code of the rule set ----

  template <typename... Args>
  Status Malformed(const Args&... args) const {
    return InvalidArgumentError(OpLabel(op_), ": ", args...);
  }
  template <typename... Args>
  Status Misfit(const Args&... args) const {
    return FailedPreconditionError(OpLabel(op_), ": ", args...);
  }

  // ---- Abort-free accessors ----

  /** The attribute `name` as a T; an error when missing or mistyped. */
  template <typename T>
  StatusOr<const T*> Get(const char* name) const {
    const auto& raw = op_.attrs().raw();
    auto it = raw.find(name);
    if (it == raw.end()) return Malformed("missing attribute '", name, "'");
    const T* value = std::get_if<T>(&it->second);
    if (value == nullptr) {
      return Malformed("attribute '", name, "' is not ", AttrTypeName<T>());
    }
    return value;
  }

  Status AllTensors() const {
    for (int i = 0; i < op_.num_operands(); ++i) {
      if (!op_.operand(i)->type().IsTensor()) {
        return Malformed("operand ", i, " is a range, not a tensor");
      }
    }
    return Status::Ok();
  }

  Status TensorOperands(int count) const {
    if (op_.num_operands() != count) {
      return Malformed("takes ", count, " operand(s), has ",
                       op_.num_operands());
    }
    return AllTensors();
  }

  const TensorType& In(int i) const { return op_.operand(i)->tensor_type(); }

  /** The declared type of the op's single tensor result. */
  StatusOr<const TensorType*> Declared() const {
    if (op_.num_results() != 1) {
      return Malformed("declares ", op_.num_results(),
                       " results, the rule gives 1");
    }
    if (!op_.result(0)->type().IsTensor()) {
      return Malformed("declares a range result");
    }
    return &op_.result(0)->tensor_type();
  }

  Status Reduction() const {
    PARTIR_ASSIGN_OR_RETURN(const std::string* reduction,
                            Get<std::string>("reduction"));
    if (*reduction != "sum" && *reduction != "max") {
      return Malformed("unknown reduction '", *reduction, "'");
    }
    return Status::Ok();
  }

  StatusOr<const Dims*> Strides() const {
    PARTIR_ASSIGN_OR_RETURN(const Dims* strides, Get<Dims>("strides"));
    if (strides->size() != 2 || (*strides)[0] < 1 || (*strides)[1] < 1) {
      return Malformed("strides must be two positive ints");
    }
    return strides;
  }

  /** Checks `dims` lists in-range dims of `used`'s value that are not
   *  claimed yet, and claims them. */
  Status Claim(const char* name, const Dims& dims, DimSet& used) const {
    for (int64_t d : dims) {
      if (!InRange(d, used.rank())) {
        return Malformed(name, " entry ", d, " is out of range for rank ",
                         used.rank());
      }
      if (used.Has(d)) return Malformed(name, " repeats dim ", d);
      used.Add(d);
    }
    return Status::Ok();
  }

  /** Checks a collective's group axes — no repeats across `seen`, each on
   *  the mesh when there is one — and returns their size product (1
   *  without a mesh). */
  StatusOr<int64_t> GroupSize(const std::vector<std::string>& axes,
                              std::vector<const std::string*>& seen) const {
    int64_t product = 1;
    for (const std::string& axis : axes) {
      for (const std::string* other : seen) {
        if (*other == axis) return Malformed("repeats mesh axis '", axis, "'");
      }
      seen.push_back(&axis);
      if (mesh_ == nullptr) continue;
      if (!mesh_->HasAxis(axis)) {
        return Malformed("unknown mesh axis '", axis, "'");
      }
      if (!MulChecked(product, mesh_->AxisSize(axis), &product)) {
        return Misfit("group size overflows");
      }
    }
    return product;
  }

  // ---- Array IR ----

  StatusOr<std::vector<Type>> Constant() const {
    PARTIR_RETURN_IF_ERROR(TensorOperands(0));
    PARTIR_ASSIGN_OR_RETURN(const TensorType* type, Declared());
    if (op_.attrs().Has("data")) {
      PARTIR_ASSIGN_OR_RETURN(const std::vector<float>* data,
                              Get<std::vector<float>>("data"));
      int64_t numel = 0;
      if (!NumElements(type->dims(), &numel) ||
          static_cast<int64_t>(data->size()) != numel) {
        return Misfit("holds ", data->size(), " values for ",
                      type->ToString());
      }
    } else {
      if (!op_.attrs().Has("splat")) {
        return Malformed("carries neither 'splat' nor 'data'");
      }
      PARTIR_RETURN_IF_ERROR(Get<double>("splat").status());
    }
    return One(*type);
  }

  StatusOr<std::vector<Type>> Iota() const {
    PARTIR_RETURN_IF_ERROR(TensorOperands(0));
    PARTIR_ASSIGN_OR_RETURN(const TensorType* type, Declared());
    PARTIR_ASSIGN_OR_RETURN(const int64_t* dim, Get<int64_t>("dim"));
    if (!InRange(*dim, type->dims().size())) {
      return Malformed("dim ", *dim, " is out of range for ",
                       type->ToString());
    }
    return One(*type);
  }

  StatusOr<std::vector<Type>> Dot() const {
    PARTIR_RETURN_IF_ERROR(TensorOperands(2));
    PARTIR_ASSIGN_OR_RETURN(const Dims* lc, Get<Dims>("lhs_contract"));
    PARTIR_ASSIGN_OR_RETURN(const Dims* rc, Get<Dims>("rhs_contract"));
    PARTIR_ASSIGN_OR_RETURN(const Dims* lb, Get<Dims>("lhs_batch"));
    PARTIR_ASSIGN_OR_RETURN(const Dims* rb, Get<Dims>("rhs_batch"));
    if (lc->size() != rc->size() || lb->size() != rb->size()) {
      return Malformed("lhs and rhs list different numbers of contracting "
                       "or batch dims");
    }
    const TensorType& lt = In(0);
    const TensorType& rt = In(1);
    // Each operand dim plays at most one role: batch, contracting or free.
    DimSet lhs_used(lt.rank()), rhs_used(rt.rank());
    PARTIR_RETURN_IF_ERROR(Claim("lhs_batch", *lb, lhs_used));
    PARTIR_RETURN_IF_ERROR(Claim("lhs_contract", *lc, lhs_used));
    PARTIR_RETURN_IF_ERROR(Claim("rhs_batch", *rb, rhs_used));
    PARTIR_RETURN_IF_ERROR(Claim("rhs_contract", *rc, rhs_used));
    for (size_t i = 0; i < lc->size(); ++i) {
      if (lt.dim((*lc)[i]) != rt.dim((*rc)[i])) {
        return Misfit("contracting dims disagree: lhs dim ", (*lc)[i], " of ",
                      lt.ToString(), " vs rhs dim ", (*rc)[i], " of ",
                      rt.ToString());
      }
    }
    for (size_t i = 0; i < lb->size(); ++i) {
      if (lt.dim((*lb)[i]) != rt.dim((*rb)[i])) {
        return Misfit("batch dims disagree: lhs ", lt.ToString(), " vs rhs ",
                      rt.ToString());
      }
    }
    Dims out;
    out.reserve(lt.rank() + rt.rank());
    for (int64_t b : *lb) out.push_back(lt.dim(b));
    for (int i = 0; i < lt.rank(); ++i) {
      if (!lhs_used.Has(i)) out.push_back(lt.dim(i));
    }
    for (int i = 0; i < rt.rank(); ++i) {
      if (!rhs_used.Has(i)) out.push_back(rt.dim(i));
    }
    return One(TensorType(std::move(out), lt.dtype()));
  }

  StatusOr<std::vector<Type>> Transpose() const {
    PARTIR_RETURN_IF_ERROR(TensorOperands(1));
    PARTIR_ASSIGN_OR_RETURN(const Dims* perm, Get<Dims>("perm"));
    const TensorType& in = In(0);
    if (static_cast<int>(perm->size()) != in.rank()) {
      return Malformed("perm lists ", perm->size(),
                       " dims, the operand has rank ", in.rank());
    }
    DimSet used(in.rank());
    PARTIR_RETURN_IF_ERROR(Claim("perm", *perm, used));
    Dims out;
    out.reserve(perm->size());
    for (int64_t p : *perm) out.push_back(in.dim(p));
    return One(TensorType(std::move(out), in.dtype()));
  }

  StatusOr<std::vector<Type>> Reshape() const {
    PARTIR_RETURN_IF_ERROR(TensorOperands(1));
    PARTIR_ASSIGN_OR_RETURN(const TensorType* type, Declared());
    const TensorType& in = In(0);
    int64_t from = 0, to = 0;
    if (!NumElements(in.dims(), &from) || !NumElements(type->dims(), &to) ||
        from != to || in.dtype() != type->dtype()) {
      return Misfit("cannot reshape ", in.ToString(), " to ",
                    type->ToString());
    }
    return One(*type);
  }

  StatusOr<std::vector<Type>> Reduce() const {
    PARTIR_RETURN_IF_ERROR(TensorOperands(1));
    PARTIR_ASSIGN_OR_RETURN(const Dims* dims, Get<Dims>("dims"));
    PARTIR_RETURN_IF_ERROR(Reduction());
    const TensorType& in = In(0);
    DimSet reduced(in.rank());
    PARTIR_RETURN_IF_ERROR(Claim("dims", *dims, reduced));
    Dims out;
    for (int i = 0; i < in.rank(); ++i) {
      if (!reduced.Has(i)) out.push_back(in.dim(i));
    }
    return One(TensorType(std::move(out), in.dtype()));
  }

  StatusOr<std::vector<Type>> BroadcastInDim() const {
    PARTIR_RETURN_IF_ERROR(TensorOperands(1));
    PARTIR_ASSIGN_OR_RETURN(const TensorType* target, Declared());
    PARTIR_ASSIGN_OR_RETURN(const Dims* bdims, Get<Dims>("broadcast_dims"));
    const TensorType& in = In(0);
    if (static_cast<int>(bdims->size()) != in.rank()) {
      return Malformed("broadcast_dims lists ", bdims->size(),
                       " dims, the operand has rank ", in.rank());
    }
    DimSet used(target->rank());
    PARTIR_RETURN_IF_ERROR(Claim("broadcast_dims", *bdims, used));
    for (int i = 0; i < in.rank(); ++i) {
      if (target->dim((*bdims)[i]) != in.dim(i)) {
        return Misfit("operand ", in.ToString(),
                      " does not embed into the broadcast target ",
                      target->ToString());
      }
    }
    if (in.dtype() != target->dtype()) {
      return Misfit("broadcast changes the dtype of ", in.ToString());
    }
    return One(*target);
  }

  StatusOr<std::vector<Type>> Concatenate() const {
    if (op_.num_operands() < 1) return Malformed("takes no operands");
    PARTIR_RETURN_IF_ERROR(AllTensors());
    PARTIR_ASSIGN_OR_RETURN(const int64_t* dim, Get<int64_t>("dim"));
    const TensorType& first = In(0);
    if (!InRange(*dim, first.dims().size())) {
      return Malformed("dim ", *dim, " is out of range for rank ",
                       first.rank());
    }
    Dims out = first.dims();
    out[*dim] = 0;
    for (int i = 0; i < op_.num_operands(); ++i) {
      const TensorType& t = In(i);
      if (t.rank() != first.rank() || t.dtype() != first.dtype()) {
        return Misfit("operands disagree: ", t.ToString(), " vs ",
                      first.ToString());
      }
      for (int d = 0; d < t.rank(); ++d) {
        if (d != *dim && t.dim(d) != first.dim(d)) {
          return Misfit("operands disagree off the concatenation dim: ",
                        t.ToString(), " vs ", first.ToString());
        }
      }
      if (__builtin_add_overflow(out[*dim], t.dim(*dim), &out[*dim])) {
        return Misfit("concatenated dim overflows");
      }
    }
    return One(TensorType(std::move(out), first.dtype()));
  }

  StatusOr<std::vector<Type>> StaticSlice() const {
    PARTIR_RETURN_IF_ERROR(TensorOperands(1));
    PARTIR_ASSIGN_OR_RETURN(const Dims* starts, Get<Dims>("starts"));
    PARTIR_ASSIGN_OR_RETURN(const Dims* limits, Get<Dims>("limits"));
    const TensorType& in = In(0);
    if (static_cast<int>(starts->size()) != in.rank() ||
        static_cast<int>(limits->size()) != in.rank()) {
      return Malformed("starts/limits list ", starts->size(), "/",
                       limits->size(), " dims, the operand has rank ",
                       in.rank());
    }
    const Dims* declared = nullptr;
    if (op_.num_results() == 1 && op_.result(0)->type().IsTensor() &&
        op_.result(0)->tensor_type().rank() == in.rank()) {
      declared = &op_.result(0)->tensor_type().dims();
    }
    Dims out;
    for (int d = 0; d < in.rank(); ++d) {
      const int64_t start = (*starts)[d], limit = (*limits)[d];
      // A dim taken in full may have been tiled after the slice was built:
      // starts/limits keep their pre-partitioning values, and the executor
      // reads starts[d] + the device-local result extent. Validate the
      // window actually executed, not `limits`.
      if (declared != nullptr && start == 0 && limit > in.dim(d) &&
          (*declared)[d] == in.dim(d)) {
        out.push_back(in.dim(d));
        continue;
      }
      if (start < 0 || start > limit || limit > in.dim(d)) {
        return Misfit("slice bounds [", start, ", ", limit, ") exceed dim ",
                      d, " of ", in.ToString());
      }
      out.push_back(limit - start);
    }
    return One(TensorType(std::move(out), in.dtype()));
  }

  StatusOr<std::vector<Type>> Gather() const {
    PARTIR_RETURN_IF_ERROR(TensorOperands(2));
    const TensorType& table = In(0);
    const TensorType& indices = In(1);
    if (table.rank() < 1) return Misfit("gathers from a scalar table");
    if (indices.dtype() != DType::kS32) {
      return Misfit("indices ", indices.ToString(), " are not s32");
    }
    Dims out = indices.dims();
    out.insert(out.end(), table.dims().begin() + 1, table.dims().end());
    return One(TensorType(std::move(out), table.dtype()));
  }

  StatusOr<std::vector<Type>> ScatterAdd() const {
    PARTIR_RETURN_IF_ERROR(TensorOperands(2));
    PARTIR_ASSIGN_OR_RETURN(const int64_t* num_rows, Get<int64_t>("num_rows"));
    if (*num_rows < 0) return Malformed("num_rows ", *num_rows, " < 0");
    const TensorType& indices = In(0);
    const TensorType& updates = In(1);
    bool extends = indices.rank() >= 1 && updates.rank() > indices.rank();
    for (int d = 0; extends && d < indices.rank(); ++d) {
      extends = updates.dim(d) == indices.dim(d);
    }
    if (!extends) {
      return Misfit("updates ", updates.ToString(),
                    " do not extend indices ", indices.ToString());
    }
    Dims out = {*num_rows};
    out.insert(out.end(), updates.dims().begin() + indices.rank(),
               updates.dims().end());
    return One(TensorType(std::move(out), updates.dtype()));
  }

  StatusOr<std::vector<Type>> Convolution() const {
    PARTIR_RETURN_IF_ERROR(TensorOperands(2));
    PARTIR_ASSIGN_OR_RETURN(const Dims* strides, Strides());
    const TensorType& in = In(0);      // NHWC
    const TensorType& filter = In(1);  // HWIO
    if (in.rank() != 4 || filter.rank() != 4 || in.dim(3) != filter.dim(2)) {
      return Misfit("input ", in.ToString(), " does not fit filter ",
                    filter.ToString());
    }
    auto out_extent = [](int64_t extent, int64_t stride) {
      return extent / stride + (extent % stride != 0 ? 1 : 0);
    };
    return One(TensorType({in.dim(0), out_extent(in.dim(1), (*strides)[0]),
                           out_extent(in.dim(2), (*strides)[1]),
                           filter.dim(3)},
                          in.dtype()));
  }

  /** conv_input_grad: (out_grad NHWC', filter HWIO) -> input NHWC;
   *  conv_filter_grad: (out_grad NHWC', input NHWC) -> filter HWIO. The
   *  result is declared; the rule checks the batch and channel dims tie
   *  it to the operands. */
  StatusOr<std::vector<Type>> ConvGrad() const {
    PARTIR_RETURN_IF_ERROR(TensorOperands(2));
    PARTIR_RETURN_IF_ERROR(Strides().status());
    PARTIR_ASSIGN_OR_RETURN(const TensorType* result, Declared());
    const TensorType& grad = In(0);
    const TensorType& other = In(1);
    bool fits = grad.rank() == 4 && other.rank() == 4 &&
                result->rank() == 4 && grad.dtype() == result->dtype();
    if (fits && op_.kind() == OpKind::kConvInputGrad) {
      fits = grad.dim(0) == result->dim(0) &&
             result->dim(3) == other.dim(2) && grad.dim(3) == other.dim(3);
    } else if (fits) {
      fits = grad.dim(0) == other.dim(0) && result->dim(2) == other.dim(3) &&
             result->dim(3) == grad.dim(3);
    }
    if (!fits) {
      return Misfit("declared ", result->ToString(), " does not fit ",
                    grad.ToString(), " and ", other.ToString());
    }
    return One(*result);
  }

  StatusOr<std::vector<Type>> Tag() const {
    PARTIR_RETURN_IF_ERROR(TensorOperands(1));
    PARTIR_RETURN_IF_ERROR(Get<std::string>("name").status());
    if (op_.attrs().Has("barrier")) {
      PARTIR_RETURN_IF_ERROR(Get<int64_t>("barrier").status());
    }
    return One(op_.operand(0)->type());
  }

  // ---- PartIR:Core ----

  StatusOr<std::vector<Type>> Loop() const {
    PARTIR_RETURN_IF_ERROR(TensorOperands(0));
    PARTIR_ASSIGN_OR_RETURN(const std::string* axis, Get<std::string>("axis"));
    PARTIR_ASSIGN_OR_RETURN(const std::string* action,
                            Get<std::string>("action"));
    PARTIR_ASSIGN_OR_RETURN(const int64_t* tile_dim, Get<int64_t>("tile_dim"));
    if (*action != "tile" && *action != "sum" && *action != "any") {
      return Malformed("unknown loop action '", *action, "'");
    }
    if (op_.attrs().Has("reduction")) PARTIR_RETURN_IF_ERROR(Reduction());
    if (op_.num_regions() != 1) {
      return Malformed("carries ", op_.num_regions(),
                       " region(s), expected 1");
    }
    const Block& body = op_.region(0).block();
    if (body.num_args() != 1 || !body.arg(0)->type().IsRange()) {
      return Malformed("body must take a single range argument");
    }
    const RangeType& range = body.arg(0)->type().range();
    if (range.size() < 1) {
      return Malformed("trip count ", range.size(), " < 1");
    }
    if (range.axis() != *axis) {
      return Malformed("ranges over axis '", range.axis(),
                       "' but is labelled '", *axis, "'");
    }
    if (mesh_ != nullptr) {
      if (!mesh_->HasAxis(*axis)) {
        return Malformed("ranges over unknown mesh axis '", *axis, "'");
      }
      if (mesh_->AxisSize(*axis) != range.size()) {
        return Malformed("trip count ", range.size(),
                         " disagrees with mesh axis '", *axis, "' of size ",
                         mesh_->AxisSize(*axis));
      }
    }
    if (body.num_ops() == 0 || body.ops().back()->kind() != OpKind::kYield) {
      return Malformed("body is empty or not terminated by yield");
    }
    const Operation& yield = *body.ops().back();
    if (yield.num_operands() != 1 || yield.operand(0) == nullptr ||
        !yield.operand(0)->type().IsTensor()) {
      return Malformed("yield must carry one tensor, carries ",
                       yield.num_operands(), " value(s)");
    }
    const TensorType& yielded = yield.operand(0)->tensor_type();
    if (*action != "tile") return One(yielded);
    if (!InRange(*tile_dim, yielded.dims().size())) {
      return Malformed("tile_dim ", *tile_dim, " is out of range for ",
                       yielded.ToString());
    }
    Dims out = yielded.dims();
    if (!MulChecked(out[*tile_dim], range.size(), &out[*tile_dim])) {
      return Misfit("tiled dim overflows");
    }
    return One(TensorType(std::move(out), yielded.dtype()));
  }

  StatusOr<std::vector<Type>> PSlice() const {
    if (op_.num_operands() != 2 || !op_.operand(0)->type().IsTensor() ||
        !op_.operand(1)->type().IsRange()) {
      return Malformed("takes (tensor, range) operands");
    }
    PARTIR_ASSIGN_OR_RETURN(const int64_t* dim, Get<int64_t>("dim"));
    const TensorType& in = In(0);
    if (!InRange(*dim, in.dims().size())) {
      return Malformed("dim ", *dim, " is out of range for rank ", in.rank());
    }
    const int64_t count = op_.operand(1)->type().range().size();
    if (count < 1) return Malformed("range of ", count, " < 1 chunks");
    if (in.dim(*dim) % count != 0) {
      return Misfit("dim ", *dim, " of size ", in.dim(*dim),
                    " is not divisible into ", count, " chunk(s)");
    }
    Dims out = in.dims();
    out[*dim] /= count;
    return One(TensorType(std::move(out), in.dtype()));
  }

  // ---- PartIR:HLO collectives ----

  /** Without a mesh the axis-dependent dims come from the declared type,
   *  which must then at least keep the operand's rank. */
  StatusOr<const TensorType*> DeclaredOfRank(int rank) const {
    PARTIR_ASSIGN_OR_RETURN(const TensorType* declared, Declared());
    if (declared->rank() != rank) {
      return Misfit("declared ", declared->ToString(),
                    " changes the operand rank ", rank);
    }
    return declared;
  }

  StatusOr<std::vector<Type>> AxesPerDimCollective() const {
    PARTIR_RETURN_IF_ERROR(TensorOperands(1));
    PARTIR_ASSIGN_OR_RETURN(const AxesPerDim* axes,
                            Get<AxesPerDim>("axes_per_dim"));
    if (op_.kind() == OpKind::kReduceScatter) {
      PARTIR_RETURN_IF_ERROR(Reduction());
    }
    const TensorType& in = In(0);
    if (static_cast<int>(axes->size()) != in.rank()) {
      return Malformed("axes_per_dim lists ", axes->size(),
                       " dim(s), the operand has rank ", in.rank());
    }
    const TensorType* declared = nullptr;
    if (mesh_ == nullptr) {
      PARTIR_ASSIGN_OR_RETURN(declared, DeclaredOfRank(in.rank()));
    }
    std::vector<const std::string*> seen;
    Dims out = in.dims();
    for (int d = 0; d < in.rank(); ++d) {
      PARTIR_ASSIGN_OR_RETURN(int64_t product, GroupSize((*axes)[d], seen));
      if ((*axes)[d].empty()) continue;
      if (declared != nullptr) {
        out[d] = declared->dim(d);
      } else if (op_.kind() == OpKind::kAllGather) {
        if (!MulChecked(out[d], product, &out[d])) {
          return Misfit("gathered dim ", d, " overflows");
        }
      } else if (out[d] % product != 0) {
        return Misfit("dim ", d, " of size ", out[d],
                      " is not divisible by the axis product ", product);
      } else {
        out[d] /= product;
      }
    }
    return One(TensorType(std::move(out), in.dtype()));
  }

  StatusOr<std::vector<Type>> AllReduce() const {
    PARTIR_RETURN_IF_ERROR(TensorOperands(1));
    PARTIR_ASSIGN_OR_RETURN(const std::vector<std::string>* axes,
                            Get<std::vector<std::string>>("axes"));
    PARTIR_RETURN_IF_ERROR(Reduction());
    std::vector<const std::string*> seen;
    PARTIR_RETURN_IF_ERROR(GroupSize(*axes, seen).status());
    return One(op_.operand(0)->type());
  }

  StatusOr<std::vector<Type>> AllToAll() const {
    PARTIR_RETURN_IF_ERROR(TensorOperands(1));
    PARTIR_ASSIGN_OR_RETURN(const std::vector<std::string>* axes,
                            Get<std::vector<std::string>>("axes"));
    PARTIR_ASSIGN_OR_RETURN(const int64_t* slice_dim,
                            Get<int64_t>("slice_dim"));
    PARTIR_ASSIGN_OR_RETURN(const int64_t* concat_dim,
                            Get<int64_t>("concat_dim"));
    const TensorType& in = In(0);
    for (const int64_t* dim : {slice_dim, concat_dim}) {
      if (!InRange(*dim, in.dims().size())) {
        return Malformed("slice/concat dim ", *dim,
                         " is out of range for rank ", in.rank());
      }
    }
    std::vector<const std::string*> seen;
    PARTIR_ASSIGN_OR_RETURN(int64_t group, GroupSize(*axes, seen));
    Dims out = in.dims();
    if (mesh_ == nullptr) {
      PARTIR_ASSIGN_OR_RETURN(const TensorType* declared,
                              DeclaredOfRank(in.rank()));
      out[*slice_dim] = declared->dim(*slice_dim);
      out[*concat_dim] = declared->dim(*concat_dim);
    } else {
      if (out[*slice_dim] % group != 0) {
        return Misfit("slice dim of size ", out[*slice_dim],
                      " is not divisible by the group size ", group);
      }
      out[*slice_dim] /= group;
      if (!MulChecked(out[*concat_dim], group, &out[*concat_dim])) {
        return Misfit("concatenated dim overflows");
      }
    }
    return One(TensorType(std::move(out), in.dtype()));
  }

  const Operation& op_;
  const Mesh* mesh_;
};

}  // namespace

std::string OpLabel(const Operation& op) {
  if (op.num_results() == 0 || op.result(0)->name().empty()) {
    return OpKindName(op.kind());
  }
  return StrCat(OpKindName(op.kind()), " '%", op.result(0)->name(), "'");
}

StatusOr<std::vector<Type>> InferResultTypes(const Operation& op,
                                             const Mesh* mesh) {
  return OpRule(op, mesh).Infer();
}

Status CheckPlacement(const Operation& op, bool in_loop, bool is_terminator) {
  const char* misplaced = nullptr;
  switch (op.kind()) {
    case OpKind::kReturn:
      if (in_loop) {
        misplaced = "return inside a loop region";
      } else if (!is_terminator) {
        misplaced = "return before the end of the function body";
      }
      break;
    case OpKind::kYield:
      if (!in_loop) {
        misplaced = "yield outside a loop region";
      } else if (!is_terminator) {
        misplaced = "yield before the end of its region";
      }
      break;
    case OpKind::kPSlice:
      if (!in_loop) misplaced = "slice outside a loop region";
      break;
    default:
      if (IsCollective(op.kind()) && in_loop) {
        misplaced = "collective inside a loop region";
      }
      break;
  }
  if (misplaced == nullptr) return Status::Ok();
  return InvalidArgumentError(OpLabel(op), ": ", misplaced);
}

}  // namespace partir
