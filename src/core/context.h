/**
 * @file
 * PartitionContext: the PartIR:Core rewrite state for one function.
 *
 * The paper expresses partitioning decisions as loop/slice rewrites in the
 * IR. We carry the equivalent information as analysis state — an ordered
 * axis *nest* per operation (mirroring the loop nest of the fused form,
 * Listing 7) and an ordered list of (axis, dim) tiles per value (the value
 * tiling actions of Section 5.1). The state is materialized into the real
 * loop/slice region form by `MaterializeLoops` (materialize.h) and consumed
 * by the SPMD lowering; keeping it as state makes the propagation pass a
 * fixpoint over use-def edges instead of a graph rewrite, with identical
 * semantics.
 *
 * Compiler actions (Section 3):
 *   tile<value, dim, axis>   -> PartitionContext::TileValue
 *   atomic<value, axis>      -> PartitionContext::AtomicValue
 *   propagate                -> PartitionContext::Propagate
 */
#ifndef PARTIR_CORE_CONTEXT_H_
#define PARTIR_CORE_CONTEXT_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/factors.h"
#include "src/ir/ir.h"
#include "src/mesh/mesh.h"
#include "src/support/status.h"

namespace partir {

/**
 * One (axis, dim) tile of a value; order in the list = loop-nest order.
 * `seeded` marks tiles placed by an explicit compiler action (a tactic or a
 * search decision) as opposed to tiles inferred by propagation; realization
 * policies must never gather a seeded tile away.
 */
struct ValueTile {
  std::string axis;
  int64_t dim;
  bool seeded = false;
};

/**
 * How a contracting propagation step (a partial value) is realized in SPMD
 * form. `kReduce` pushes the partial through as a #sum loop (an all_reduce
 * after lowering) — the historical behavior. `kGather` stops propagation at
 * the op (a realization boundary): no nest entry is recorded, so lowering
 * all_gathers the tiled operands and computes the op replicated. `kScatter`
 * pushes the partial through *and* re-tiles the result on `scatter_dim`, so
 * lowering emits all_reduce + all_slice, which the SPMD peephole fuses into
 * a reduce_scatter (the gradient-path realization).
 */
enum class Realization {
  kReduce,
  kGather,
  kScatter,
};

/**
 * A contracting propagation step offered to ChooseBoundaryRealization
 * (src/sim/cost_model.h). `scatter_dim` arrives as the default suggestion
 * (the highest divisible result dim) and may be overwritten by the choice
 * when returning kScatter.
 */
struct BoundarySite {
  const Operation* op = nullptr;
  std::string axis;
  int factor = -1;
  int64_t scatter_dim = -1;
};

/** The tiling state of one value. */
struct ValueState {
  std::vector<ValueTile> tiles;

  /** Returns the tiled dim for an axis, or -1. */
  int64_t DimOfAxis(const std::string& axis) const {
    for (const ValueTile& tile : tiles) {
      if (tile.axis == axis) return tile.dim;
    }
    return -1;
  }
  bool HasAxis(const std::string& axis) const { return DimOfAxis(axis) >= 0; }
};

/** One axis of an operation's loop nest. */
struct OpAxisEntry {
  std::string axis;
  bool contracting = false;  // true => #sum loop, false => #tile loop
  int factor = -1;           // index into GetShardingSpec(op).factors
};

/** Why a propagation step could not be applied (for diagnostics/tests). */
struct Conflict {
  const Operation* op;
  std::string axis;
  std::string reason;
};

/** Partitioning state and compiler actions for one function. */
class PartitionContext {
 public:
  PartitionContext(Func* func, Mesh mesh)
      : func_(func), mesh_(std::move(mesh)) {}

  Func* func() const { return func_; }
  const Mesh& mesh() const { return mesh_; }

  // ---- Compiler actions ----

  /**
   * tile<value, dim, axis>: declares that `value` is tiled on `dim` along
   * mesh `axis`. On failure the state is unchanged and the error message
   * names the value, dim and axis: unknown axis, non-tensor target, dim out
   * of range, axis already used on the value, value atomic on the axis, or
   * local dim size not divisible by the axis size.
   */
  Status TileValueOrError(Value* value, int64_t dim, const std::string& axis);

  /**
   * Allocation-free bool form of TileValueOrError: the feasibility probe of
   * the MCTS search and the GSPMD baseline, called thousands of times per
   * search. Returns false only for legitimately infeasible actions
   * (already tiled, atomic, indivisible); malformed calls (unknown axis,
   * non-tensor, dim out of range) abort as caller bugs. Prefer
   * TileValueOrError elsewhere.
   */
  bool TileValue(Value* value, int64_t dim, const std::string& axis);

  /**
   * atomic<value, axis>: keeps `value` replicated across `axis`, blocking
   * propagation through it (the [any] loop of Section 8).
   */
  void AtomicValue(Value* value, const std::string& axis);

  /**
   * Propagation pass (Section 5.2.2): greedily extends tiling decisions
   * through the TMR until fixpoint. Conflicts (Section 5.2.3) are recorded,
   * never auto-resolved. Returns the number of op-nest entries applied.
   * Change-driven: sweeps in program order visit only ops whose operand or
   * result tiles or nest changed since their last visit (every op on the
   * first sweep), which applies and reports exactly what full sweeps would.
   */
  int Propagate();

  /**
   * Forces a nest entry onto an operation, bypassing PartIR's conflict
   * refusal. Used by the GSPMD-style baseline, whose heuristics *resolve*
   * conflicts instead of refusing them (Sections 7.4/8). Returns false if
   * the entry is structurally impossible (axis already nested, indivisible
   * dims).
   */
  bool ForceOpAxis(Operation* op, const std::string& axis, int factor_index);

  /**
   * Boundary-aware realization (PartitionOptions::boundary_realization):
   * when on, Propagate asks ChooseBoundaryRealization how to realize each
   * contracting step (realization boundary). Decisions are memoized per
   * (op, axis) across fixpoint sweeps and incremental tactics. Copies of
   * the context (the MCTS search states) carry the flag and decide against
   * their own state. Off (the default) realizes every contracting step as
   * kReduce — the historical all_reduce behavior. RunPartitionPipeline sets
   * it from the options before any pass runs.
   */
  void set_boundary_realization(bool on) { boundary_realization_ = on; }

  /** Realization decisions made during Propagate, keyed (op, axis). */
  const std::map<std::pair<const Operation*, std::string>, Realization>&
  realizations() const {
    return realizations_;
  }

  // ---- Queries ----

  const ValueState& state(const Value* value) const {
    static const ValueState kEmpty;
    auto it = value_state_.find(value);
    return it == value_state_.end() ? kEmpty : it->second;
  }

  const std::vector<OpAxisEntry>& nest(const Operation* op) const {
    static const std::vector<OpAxisEntry> kEmpty;
    auto it = op_nest_.find(op);
    return it == op_nest_.end() ? kEmpty : it->second;
  }

  bool IsAtomic(const Value* value, const std::string& axis) const {
    auto it = atomic_.find(value);
    return it != atomic_.end() && it->second.count(axis) > 0;
  }

  /**
   * The tiles actually *produced* for a value: for block arguments this is
   * the declared state (inputs arrive sharded); for op results it is derived
   * from the producing op's nest. A value whose state is richer than its
   * realized tiles is materialized in full and sliced locally by consumers.
   */
  std::vector<ValueTile> RealizedTiles(const Value* value) const;

  /** Device-local dims of a value under its realized tiles. */
  std::vector<int64_t> LocalDims(const Value* value) const;

  /** Finds a function argument by name, or a tag op result by tag name. */
  Value* FindValue(const std::string& name) const;

  const std::vector<Conflict>& conflicts() const { return conflicts_; }
  void ClearConflicts() { conflicts_.clear(); }

  /**
   * An exact, canonical encoding of everything SPMD lowering and the
   * simulator read from this context: value tiles (with `seeded`), op nests,
   * atomic sets, realization decisions with their scatter dims, and the
   * boundary_realization flag. Values, ops and axes are numbered by program
   * and mesh order, so copies of one context key equal, and an empty state
   * entry keys the same as an absent one. Conflicts are not part of it. The
   * MCTS memoizes rewards on it; compare keys in full.
   */
  std::vector<int32_t> StateKey() const;

  /** Local size of `dim` of `dims` after dividing by existing tiles. */
  int64_t LocalDimSize(const std::vector<int64_t>& dims,
                       const ValueState& state, int64_t dim) const;

 private:
  friend class Propagator;

  /** Shared feasibility check behind TileValue / TileValueOrError. */
  enum class TileCheck {
    kOk,
    kUnknownAxis,
    kNotTensor,
    kDimOutOfRange,
    kAlreadyTiled,
    kAtomic,
    kIndivisible,
  };
  TileCheck CheckTileValue(const Value* value, int64_t dim,
                           const std::string& axis) const;

  Func* func_;
  Mesh mesh_;
  std::map<const Value*, ValueState> value_state_;
  std::map<const Operation*, std::vector<OpAxisEntry>> op_nest_;
  std::map<const Value*, std::set<std::string>> atomic_;
  std::vector<Conflict> conflicts_;
  std::set<std::pair<const Operation*, std::string>> reported_;
  bool boundary_realization_ = false;
  std::map<std::pair<const Operation*, std::string>, Realization>
      realizations_;
  // Scatter dims chosen alongside kScatter decisions, same key as above.
  std::map<std::pair<const Operation*, std::string>, int64_t> scatter_dims_;
};

}  // namespace partir

#endif  // PARTIR_CORE_CONTEXT_H_
