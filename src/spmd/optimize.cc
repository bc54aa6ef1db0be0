#include "src/spmd/optimize.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/ir/builder.h"
#include "src/spmd/collectives.h"
#include "src/support/str_util.h"

namespace partir {
namespace {

// Flattened (axis -> dim) view of an axes_per_dim attribute.
std::map<std::string, int64_t> AxisDims(const AxesPerDim& axes) {
  std::map<std::string, int64_t> result;
  for (size_t dim = 0; dim < axes.size(); ++dim) {
    for (const std::string& axis : axes[dim]) {
      result[axis] = static_cast<int64_t>(dim);
    }
  }
  return result;
}

bool AllEmpty(const AxesPerDim& axes) {
  for (const auto& list : axes) {
    if (!list.empty()) return false;
  }
  return true;
}

bool AxesDisjoint(const std::vector<std::string>& a,
                  const std::vector<std::string>& b) {
  for (const std::string& axis : b) {
    if (std::find(a.begin(), a.end(), axis) != a.end()) return false;
  }
  return true;
}

// Applies the enabled rewrites to the module's main function in place, as
// one use-driven worklist. Ops are visited in order and every pattern
// matches the *current* producer of an operand, so a consumer sees its
// producer's rewrite in the same visit. A rewrite inserts its replacement
// ops just before the matched op (they are visited next) and forwards the
// op's uses to them; ops left without uses are erased as they go
// (incremental DCE). An op already visited goes back on the worklist when
// one of its operands is replaced or drops to a single use, the two events
// that can enable a rewrite on it, so the pass ends at a fixpoint.
class Worklist {
 public:
  Worklist(SpmdModule& spmd, unsigned rewrites)
      : body_(spmd.mutable_main()->body()),
        mesh_(spmd.mesh),
        enabled_(rewrites) {
    builder_.SetMesh(mesh_);
  }

  int64_t Run() {
    for (const auto& op : body_.ops()) AddUses(*op);
    // Dead code the lowering left behind, before any use count is read.
    for (int i = body_.num_ops() - 1; i >= 0; --i) {
      EraseIfUnused(body_.ops()[i].get());
    }
    for (cursor_ = 0; cursor_ < body_.num_ops();) {
      Operation* op = body_.ops()[cursor_].get();
      if (dead_.count(op) != 0) {
        ++cursor_;
        continue;
      }
      visited_.insert(op);
      // On a rewrite the replacement ops now sit at the cursor.
      if (!Visit(op, cursor_)) ++cursor_;
      Drain();
    }
    if (Enabled(kRewriteGatherSlice)) {
      LocalizeReplicatedGathers();
      Drain();
    }
    if (!dead_.empty()) {
      body_.EraseIf(
          [&](const Operation& op) { return dead_.count(&op) != 0; });
    }
    return rewrites_;
  }

 private:
  bool Enabled(unsigned mask) const { return (enabled_ & mask) != 0; }

  void Drain() {
    while (!worklist_.empty()) {
      Operation* again = worklist_.back();
      worklist_.pop_back();
      if (dead_.count(again) == 0) Visit(again, PositionOf(again));
    }
  }

  // An all_gather of a value already identical along every gather axis
  // concatenates equal copies, so a local concatenation replaces the
  // collective. Propagation produces these when it tiles a broadcast dim of
  // a replicated value that another use needs whole. One forward sweep
  // after the worklist, with the lint's replication rules (block args
  // count as replicated along no axis).
  void LocalizeReplicatedGathers() {
    if (mesh_.num_axes() > 64 ||  // past the axis bitmask's width
        std::none_of(body_.ops().begin(), body_.ops().end(),
                     [](const std::unique_ptr<Operation>& op) {
                       return op->kind() == OpKind::kAllGather;
                     })) {
      return;
    }
    std::unordered_map<const Value*, uint64_t> replicated;
    std::vector<uint64_t> operands;
    for (int pos = 0; pos < body_.num_ops(); ++pos) {
      Operation* op = body_.ops()[pos].get();
      if (dead_.count(op) != 0) continue;
      operands.clear();
      for (const Value* operand : op->operands()) {
        auto it = replicated.find(operand);
        operands.push_back(it == replicated.end() ? 0 : it->second);
      }
      const uint64_t axes = ReplicatedResultAxes(*op, operands, mesh_);
      for (int r = 0; r < op->num_results(); ++r) {
        replicated[op->result(r)] = axes;
      }
      if (op->kind() != OpKind::kAllGather) continue;
      const auto& gather_axes = op->attrs().Get<AxesPerDim>("axes_per_dim");
      const uint64_t mask = AxisMask(mesh_, FlattenAxesPerDim(gather_axes));
      if ((operands[0] & mask) != mask) continue;
      builder_.SetInsertionPoint(&body_, pos);
      int before = body_.num_ops();
      Value* local = op->operand(0);
      for (size_t dim = 0; dim < gather_axes.size(); ++dim) {
        int64_t copies = 1;
        for (const std::string& axis : gather_axes[dim]) {
          copies *= mesh_.AxisSize(axis);
        }
        if (copies == 1) continue;
        local = builder_.Concatenate(std::vector<Value*>(copies, local),
                                     static_cast<int64_t>(dim));
        replicated[local] = axes;
      }
      const int inserted = body_.num_ops() - before;
      for (int i = pos; i < pos + inserted; ++i) {
        AddUses(*body_.ops()[i]);
      }
      pos += inserted;
      cursor_ += inserted;  // keeps PositionOf's range the whole block
      ++rewrites_;
      ReplaceAllUses(op->result(), local);
    }
  }

  int64_t Uses(const Value* value) const {
    auto it = users_.find(value);
    return it == users_.end() ? 0 : static_cast<int64_t>(it->second.size());
  }

  void AddUses(Operation& op) {
    for (Value* operand : op.operands()) users_[operand].push_back(&op);
  }

  // Position of an op before the cursor (only revisited ops need one).
  int PositionOf(const Operation* op) const {
    for (int i = cursor_ - 1; i >= 0; --i) {
      if (body_.ops()[i].get() == op) return i;
    }
    PARTIR_FATAL() << "optimize: revisited op not before the cursor";
  }

  void Revisit(Operation* op) {
    if (visited_.count(op) != 0) worklist_.push_back(op);
  }

  // Matches `op` at position `pos`; on a rewrite, registers the inserted
  // ops, forwards the op's uses and erases it.
  bool Visit(Operation* op, int pos) {
    builder_.SetInsertionPoint(&body_, pos);
    visit_pos_ = pos;
    // Erased ops stay in the block until the end, so only inserts move it.
    int before = body_.num_ops();
    Value* replacement = Match(*op);
    if (replacement == nullptr) return false;
    int inserted = body_.num_ops() - before;
    for (int i = pos; i < pos + inserted; ++i) {
      Operation* fresh = body_.ops()[i].get();
      AddUses(*fresh);
      // Behind the cursor the sweep will not reach them: queue them.
      if (pos < cursor_) {
        visited_.insert(fresh);
        worklist_.push_back(fresh);
      }
    }
    if (pos < cursor_) cursor_ += inserted;
    ++rewrites_;
    ReplaceAllUses(op->result(), replacement);
    return true;
  }

  void ReplaceAllUses(Value* from, Value* to) {
    std::vector<Operation*> users = std::move(users_[from]);
    users_.erase(from);
    std::vector<Operation*>& to_users = users_[to];
    for (Operation* user : users) {
      // One entry per operand slot: rewire the first slot still on `from`.
      for (int i = 0; i < user->num_operands(); ++i) {
        if (user->operand(i) == from) {
          user->set_operand(i, to);
          break;
        }
      }
      to_users.push_back(user);
      Revisit(user);
    }
    EraseIfUnused(from->def());
  }

  // Erases `root` if none of its results is used, then every producer that
  // loses its last use with it. Erased ops stay allocated (and out of the
  // use lists) until the final compaction.
  void EraseIfUnused(Operation* root) {
    std::vector<Operation*> stack = {root};
    while (!stack.empty()) {
      Operation* op = stack.back();
      stack.pop_back();
      if (op == nullptr || dead_.count(op) != 0 ||
          op->kind() == OpKind::kReturn || op->kind() == OpKind::kYield) {
        continue;
      }
      bool used = false;
      for (int i = 0; i < op->num_results(); ++i) {
        if (Uses(op->result(i)) > 0) used = true;
      }
      if (used) continue;
      dead_.insert(op);
      for (Value* operand : op->operands()) {
        std::vector<Operation*>& users = users_[operand];
        users.erase(std::find(users.begin(), users.end(), op));
        if (users.size() == 1) Revisit(users.front());
        if (users.empty()) stack.push_back(operand->def());
      }
    }
  }

  bool Live(const Value* value) const {
    return value->def() == nullptr || dead_.count(value->def()) == 0;
  }

  // Whether `value` is defined before the op being visited. Only a
  // revisited op can have live, already-visited values after it.
  bool DefinedBeforeVisit(const Value* value) const {
    if (value->def() == nullptr || visit_pos_ == cursor_) return true;
    for (int i = visit_pos_ - 1; i >= 0; --i) {
      if (body_.ops()[i].get() == value->def()) return true;
    }
    return false;
  }

  // Forwards every user all_gather that undoes `slice` to the slice's
  // operand (RewriteAllGather's cancellation, matched from the slice).
  void CancelGathersOf(const Operation& slice) {
    std::vector<Operation*> gathers;
    for (Operation* user : users_[slice.result()]) {
      if (user->kind() == OpKind::kAllGather) gathers.push_back(user);
    }
    for (Operation* gather : gathers) {
      const auto& gather_axes =
          gather->attrs().Get<AxesPerDim>("axes_per_dim");
      if (AllEmpty(gather_axes) ||
          AxisDims(gather_axes) !=
              AxisDims(slice.attrs().Get<AxesPerDim>("axes_per_dim"))) {
        continue;
      }
      ++rewrites_;
      ReplaceAllUses(gather->result(), slice.operand(0));
    }
  }

  // all_slice: cancellation against user all_gathers, CSE, then
  // RewriteAllSlice.
  Value* MatchAllSlice(const Operation& op) {
    if (!Enabled(kRewriteGatherSlice)) return RewriteAllSlice(op);
    // all_gather(all_slice(y)) cancels before the slice is rewritten (into
    // a reduce_scatter or a local constant) and stops matching.
    CancelGathersOf(op);
    if (dead_.count(&op) != 0) return nullptr;
    // CSE identical slices: all_slice is communication-free and local, so
    // sharing one shard among uses changes neither collective counts nor
    // peak memory (unlike all_gather, which is deliberately per-use, Design
    // decision #4).
    const auto& axes = op.attrs().Get<AxesPerDim>("axes_per_dim");
    std::vector<SliceSeen>& seen = slices_[op.operand(0)];
    auto same = std::find_if(
        seen.begin(), seen.end(), [&](const SliceSeen& entry) {
          return entry.first->attrs().Get<AxesPerDim>("axes_per_dim") == axes;
        });
    // Only a revisited slice can find its duplicate after itself.
    if (same != seen.end() && same->first != &op && Live(same->second) &&
        DefinedBeforeVisit(same->second)) {
      return same->second;
    }
    Value* replacement = RewriteAllSlice(op);
    SliceSeen entry = {&op, replacement != nullptr ? replacement : op.result()};
    if (same == seen.end()) {
      seen.push_back(entry);
    } else {
      *same = entry;
    }
    return replacement;
  }

  Value* Match(const Operation& op) {
    switch (op.kind()) {
      case OpKind::kAllSlice:
        return MatchAllSlice(op);
      case OpKind::kAllGather:
        return Enabled(kRewriteGatherSlice) ? RewriteAllGather(op) : nullptr;
      case OpKind::kAllReduce:
        // No-op removal belongs to the gather/slice family with the other
        // empty-axes collectives; merging is reduce-scatter formation.
        if (Enabled(kRewriteGatherSlice) &&
            op.attrs().Get<std::vector<std::string>>("axes").empty()) {
          return op.operand(0);
        }
        return Enabled(kRewriteReduceScatter) ? RewriteAllReduce(op)
                                              : nullptr;
      case OpKind::kAdd:
        return Enabled(kRewriteReduceScatter) ? RewriteAddOfAllReduces(op)
                                              : nullptr;
      case OpKind::kTranspose:
        return RewriteTranspose(op);
      default:
        return nullptr;
    }
  }

  // Merges adjacent same-reduction all_reduces into one multi-axis
  // all_reduce — the normal form the reduce-scatter formation below
  // matches embedding-style multi-axis chains against.
  Value* RewriteAllReduce(const Operation& op) {
    const auto& axes = op.attrs().Get<std::vector<std::string>>("axes");
    const Operation* def = op.operand(0)->def();
    if (def != nullptr && def->kind() == OpKind::kAllReduce &&
        Uses(def->result()) == 1 &&
        def->attrs().Get<std::string>("reduction") ==
            op.attrs().Get<std::string>("reduction") &&
        AxesDisjoint(def->attrs().Get<std::vector<std::string>>("axes"),
                     axes)) {
      // Disjointness matters: re-reducing an already-reduced axis is not a
      // no-op for "sum" (it would scale by the group size again).
      std::vector<std::string> merged =
          def->attrs().Get<std::vector<std::string>>("axes");
      merged.insert(merged.end(), axes.begin(), axes.end());
      return builder_.AllReduce(def->operand(0), merged,
                                op.attrs().Get<std::string>("reduction"));
    }
    return nullptr;
  }

  // transpose with the identity permutation -> operand; transpose of a
  // single-use all_reduce commutes inside it (enables AR-sum fusion across
  // the transposes that dot VJPs emit).
  Value* RewriteTranspose(const Operation& op) {
    const auto& perm = op.attrs().Get<std::vector<int64_t>>("perm");
    bool identity = true;
    for (size_t i = 0; i < perm.size(); ++i) {
      if (perm[i] != static_cast<int64_t>(i)) identity = false;
    }
    if (identity && Enabled(kRewriteGatherSlice)) {
      return op.operand(0);
    }
    if (!Enabled(kRewriteReduceScatter)) return nullptr;
    const Operation* def = op.operand(0)->def();
    if (def != nullptr && def->kind() == OpKind::kAllReduce &&
        Uses(def->result()) == 1) {
      Operation* transpose = builder_.Create(
          OpKind::kTranspose, {def->operand(0)}, {op.result()->type()});
      transpose->attrs().Set("perm", perm);
      return builder_.AllReduce(
          transpose->result(),
          def->attrs().Get<std::vector<std::string>>("axes"),
          def->attrs().Get<std::string>("reduction"));
    }
    return nullptr;
  }

  // add(all_reduce(x), all_reduce(y)) over the same axes (sum) and with no
  // other uses -> all_reduce(add(x, y)). This linearity rewrite is what
  // backend compilers apply to gradient accumulation; it is required for
  // Megatron's backward pass to cost exactly 2 extra AllReduces per layer
  // (the paper's "4 AR per layer" for forward+backward, Section 7.3).
  Value* RewriteAddOfAllReduces(const Operation& op) {
    const Operation* a = op.operand(0)->def();
    const Operation* b = op.operand(1)->def();
    if (a == nullptr || b == nullptr) return nullptr;
    if (a->kind() != b->kind()) return nullptr;
    if (Uses(a->result()) != 1 || Uses(b->result()) != 1) return nullptr;
    if (a->kind() == OpKind::kAllReduce) {
      const auto& axes_a = a->attrs().Get<std::vector<std::string>>("axes");
      const auto& axes_b = b->attrs().Get<std::vector<std::string>>("axes");
      if (axes_a != axes_b) return nullptr;
      if (a->attrs().Get<std::string>("reduction") != "sum" ||
          b->attrs().Get<std::string>("reduction") != "sum") {
        return nullptr;
      }
      Value* sum = builder_.Add(a->operand(0), b->operand(0));
      return builder_.AllReduce(sum, axes_a, "sum");
    }
    if (a->kind() == OpKind::kReduceScatter) {
      // Same linearity rewrite for reduce_scatter partial sums.
      const auto& axes_a = a->attrs().Get<AxesPerDim>("axes_per_dim");
      const auto& axes_b = b->attrs().Get<AxesPerDim>("axes_per_dim");
      if (axes_a != axes_b) return nullptr;
      if (a->attrs().Get<std::string>("reduction") != "sum" ||
          b->attrs().Get<std::string>("reduction") != "sum") {
        return nullptr;
      }
      Value* sum = builder_.Add(a->operand(0), b->operand(0));
      return builder_.ReduceScatter(sum, axes_a, "sum");
    }
    return nullptr;
  }

  Value* RewriteAllSlice(const Operation& op) {
    const auto& slice_axes = op.attrs().Get<AxesPerDim>("axes_per_dim");
    if (AllEmpty(slice_axes)) {
      if (!Enabled(kRewriteGatherSlice)) return nullptr;
      return op.operand(0);
    }
    const Operation* def = op.operand(0)->def();
    // Pattern: all_slice(all_reduce(y)) -> reduce_scatter over the sliced
    // axes that are among the reduced axes, plus a residual all_reduce for
    // reduced-but-unsliced axes. The embedding-style multi-axis chain — an
    // all_slice that also re-tiles axes the all_reduce never reduced (e.g.
    // a gradient reduced over the batch axes but sliced to a parameter
    // sharded over batch *and* model) — additionally keeps a residual
    // all_slice for those axes (kRewriteReduceScatterPartial).
    if (def != nullptr && def->kind() == OpKind::kAllReduce &&
        Enabled(kRewriteReduceScatter)) {
      auto reduce_axes = def->attrs().Get<std::vector<std::string>>("axes");
      const std::string& reduction =
          def->attrs().Get<std::string>("reduction");
      // Fold a chain of single-use, same-reduction, disjoint-axes
      // all_reduces feeding the slice into one multi-axis match (the
      // embedding-style chain across multiple mesh axes arrives as nested
      // per-axis reduces).
      const Operation* innermost = def;
      if (Enabled(kRewriteReduceScatterPartial)) {
        while (true) {
          const Operation* next = innermost->operand(0)->def();
          if (next == nullptr || next->kind() != OpKind::kAllReduce ||
              Uses(innermost->operand(0)) != 1 ||
              next->attrs().Get<std::string>("reduction") != reduction ||
              !AxesDisjoint(
                  reduce_axes,
                  next->attrs().Get<std::vector<std::string>>("axes"))) {
            break;
          }
          const auto& inner_axes =
              next->attrs().Get<std::vector<std::string>>("axes");
          reduce_axes.insert(reduce_axes.end(), inner_axes.begin(),
                             inner_axes.end());
          innermost = next;
        }
      }
      std::map<std::string, int64_t> sliced = AxisDims(slice_axes);
      std::map<std::string, int64_t> outside;  // sliced but not reduced
      for (const auto& [axis, dim] : sliced) {
        if (std::find(reduce_axes.begin(), reduce_axes.end(), axis) ==
            reduce_axes.end()) {
          outside[axis] = dim;
        }
      }
      // Keep the attribute's per-dim axis order (it encodes the nested
      // tiling order of the shard layout). The residual slice nests inside
      // the scatter, so the rewrite keeps the layout only when no outside
      // axis is outer to a scattered one on the same dim.
      AxesPerDim scatter(slice_axes.size());
      AxesPerDim residual(slice_axes.size());
      for (size_t dim = 0; dim < slice_axes.size(); ++dim) {
        for (const std::string& axis : slice_axes[dim]) {
          (outside.count(axis) ? residual : scatter)[dim].push_back(axis);
        }
      }
      AxesPerDim layout(slice_axes.size());
      SliceLayout(layout, scatter);
      SliceLayout(layout, residual);
      const bool scatterable = static_cast<int64_t>(outside.size()) <
                                   static_cast<int64_t>(sliced.size()) &&
                               layout == slice_axes;
      if (scatterable &&
          (outside.empty() || Enabled(kRewriteReduceScatterPartial))) {
        Value* y = innermost->operand(0);
        Value* rs = builder_.ReduceScatter(y, scatter, reduction);
        std::vector<std::string> leftover;  // reduced but not sliced
        for (const std::string& axis : reduce_axes) {
          if (!sliced.count(axis)) leftover.push_back(axis);
        }
        if (!leftover.empty()) {
          rs = builder_.AllReduce(rs, leftover, reduction);
        }
        if (!outside.empty()) rs = builder_.AllSlice(rs, residual);
        return rs;
      }
    }
    if (!Enabled(kRewriteGatherSlice)) return nullptr;
    // Pattern: all_slice(all_gather(y)): cancel matching axes; axes present
    // in both on different dims become all_to_all.
    if (def != nullptr && def->kind() == OpKind::kAllGather) {
      auto gather = AxisDims(def->attrs().Get<AxesPerDim>("axes_per_dim"));
      auto slice = AxisDims(slice_axes);
      std::vector<std::string> cancel;
      std::vector<std::string> moved;
      for (const auto& [axis, dim] : slice) {
        auto it = gather.find(axis);
        if (it == gather.end()) continue;
        (it->second == dim ? cancel : moved).push_back(axis);
      }
      if (!cancel.empty() || !moved.empty()) {
        Value* y = def->operand(0);
        int rank = y->tensor_type().rank();
        // Residual gather (gathered axes not re-sliced) and residual slice
        // (sliced axes that were not gathered), each in its attribute's
        // per-dim order.
        const AxesPerDim& gather_axes =
            def->attrs().Get<AxesPerDim>("axes_per_dim");
        AxesPerDim residual_gather(rank);
        AxesPerDim residual_slice(rank);
        bool any_gather = false;
        bool any_slice = false;
        for (int dim = 0; dim < rank; ++dim) {
          for (const std::string& axis : gather_axes[dim]) {
            if (slice.count(axis)) continue;
            residual_gather[dim].push_back(axis);
            any_gather = true;
          }
          for (const std::string& axis : slice_axes[dim]) {
            if (gather.count(axis)) continue;
            residual_slice[dim].push_back(axis);
            any_slice = true;
          }
        }
        // The rewrite must land on the same shard layout: relative to y's
        // untouched outer axes, the gather's axes become the slice's.
        AxesPerDim layout = gather_axes;
        bool same_layout = true;
        for (const std::string& axis : moved) {
          same_layout = same_layout && AllToAllLayout(layout, axis,
                                                      slice[axis],
                                                      gather[axis]);
        }
        same_layout = same_layout && GatherLayout(layout, residual_gather);
        if (same_layout) SliceLayout(layout, residual_slice);
        if (!same_layout || layout != slice_axes) return nullptr;

        // Axes moving dims: all_to_all directly on y.
        for (const std::string& axis : moved) {
          y = builder_.AllToAll(y, /*slice_dim=*/slice[axis],
                                /*concat_dim=*/gather[axis], {axis});
        }
        if (any_gather) y = builder_.AllGather(y, residual_gather);
        if (any_slice) y = builder_.AllSlice(y, residual_slice);
        return y;
      }
    }
    // Pattern: all_slice(splat constant | iota) -> local constant.
    if (def != nullptr && def->kind() == OpKind::kConstant &&
        def->attrs().Has("splat")) {
      Value* local = builder_.Constant(
          def->attrs().Get<double>("splat"),
          op.result()->tensor_type().dims(),
          op.result()->tensor_type().dtype());
      return local;
    }
    if (def != nullptr && def->kind() == OpKind::kIota) {
      int64_t iota_dim = def->attrs().Get<int64_t>("dim");
      if (slice_axes[iota_dim].empty()) {
        Value* local = builder_.Iota(op.result()->tensor_type().dims(),
                                     iota_dim,
                                     op.result()->tensor_type().dtype());
        return local;
      }
    }
    return nullptr;
  }

  Value* RewriteAllGather(const Operation& op) {
    const auto& gather_axes = op.attrs().Get<AxesPerDim>("axes_per_dim");
    if (AllEmpty(gather_axes)) {
      return op.operand(0);
    }
    const Operation* def = op.operand(0)->def();
    // Pattern: all_gather(all_slice(y)) with identical axes/dims -> y.
    if (def != nullptr && def->kind() == OpKind::kAllSlice) {
      auto slice = AxisDims(def->attrs().Get<AxesPerDim>("axes_per_dim"));
      auto gather = AxisDims(gather_axes);
      if (slice == gather) {
        return def->operand(0);
      }
    }
    return nullptr;
  }

  Block& body_;
  const Mesh& mesh_;
  unsigned enabled_;
  OpBuilder builder_{nullptr};
  // Users of each value, one entry per operand slot.
  std::unordered_map<const Value*, std::vector<Operation*>> users_;
  std::unordered_set<const Operation*> visited_;
  std::unordered_set<const Operation*> dead_;
  std::vector<Operation*> worklist_;
  // Slices seen per operand: (first such slice, the value standing for it).
  using SliceSeen = std::pair<const Operation*, Value*>;
  std::unordered_map<const Value*, std::vector<SliceSeen>> slices_;
  int cursor_ = 0;     // the in-order sweep's position
  int visit_pos_ = 0;  // position of the op being matched
  int64_t rewrites_ = 0;
};

}  // namespace

int64_t OptimizeSpmd(SpmdModule& spmd, unsigned rewrites) {
  return Worklist(spmd, rewrites).Run();
}

std::string CollectiveStats::ToString() const {
  return StrCat("AG=", all_gather, " AR=", all_reduce, " RS=", reduce_scatter,
                " A2A=", all_to_all);
}

CollectiveStats CountCollectives(const Module& module, const Mesh& mesh) {
  CollectiveStats stats;
  for (const auto& func : module.funcs()) {
    WalkOps(func->body(), [&](const Operation& op) {
      int64_t out_bytes = op.num_results() == 1 && op.result()->type().IsTensor()
                              ? op.result()->tensor_type().ByteSize()
                              : 0;
      int64_t in_bytes =
          op.num_operands() >= 1 && op.operand(0)->type().IsTensor()
              ? op.operand(0)->tensor_type().ByteSize()
              : 0;
      auto group_size = [&](const std::vector<std::string>& axes) {
        int64_t n = 1;
        for (const std::string& axis : axes) n *= mesh.AxisSize(axis);
        return n;
      };
      auto flatten = [](const AxesPerDim& axes) {
        std::vector<std::string> flat;
        for (const auto& list : axes) {
          flat.insert(flat.end(), list.begin(), list.end());
        }
        return flat;
      };
      switch (op.kind()) {
        case OpKind::kAllGather: {
          ++stats.all_gather;
          int64_t n = group_size(
              flatten(op.attrs().Get<AxesPerDim>("axes_per_dim")));
          // Ring all-gather: (n-1)/n of the *result* passes each link.
          stats.comm_bytes +=
              static_cast<double>(out_bytes) * (n - 1) / std::max<int64_t>(n, 1);
          break;
        }
        case OpKind::kAllReduce: {
          ++stats.all_reduce;
          int64_t n = group_size(
              op.attrs().Get<std::vector<std::string>>("axes"));
          // Ring all-reduce: 2(n-1)/n of the buffer.
          stats.comm_bytes += 2.0 * static_cast<double>(in_bytes) * (n - 1) /
                              std::max<int64_t>(n, 1);
          break;
        }
        case OpKind::kReduceScatter: {
          ++stats.reduce_scatter;
          int64_t n = group_size(
              flatten(op.attrs().Get<AxesPerDim>("axes_per_dim")));
          stats.comm_bytes += static_cast<double>(in_bytes) * (n - 1) /
                              std::max<int64_t>(n, 1);
          break;
        }
        case OpKind::kAllToAll: {
          ++stats.all_to_all;
          int64_t n = group_size(
              op.attrs().Get<std::vector<std::string>>("axes"));
          stats.comm_bytes += static_cast<double>(in_bytes) * (n - 1) /
                              std::max<int64_t>(n, 1);
          break;
        }
        case OpKind::kAllSlice:
          ++stats.all_slice;
          break;
        default:
          break;
      }
    });
  }
  return stats;
}

}  // namespace partir
