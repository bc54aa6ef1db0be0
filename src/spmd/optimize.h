/**
 * @file
 * SPMD-level collective optimizations (Section 6), as maskable rewrite
 * families applied together by one in-place worklist pass:
 *
 * Gather/slice fusion (kRewriteGatherSlice):
 *   - all_gather + all_slice of the same axes           -> cancel / all_to_all
 *   - all_slice of splat constants / iota               -> local constants
 *   - no-op collectives (empty axes), identity transposes -> removed
 *   - identical all_slice CSE
 *   - all_gather of a value already replicated along the gather axes
 *     -> local concatenation of copies (the lint's replication rules)
 *
 * Reduce-scatter formation (kRewriteReduceScatter, + the multi-axis
 * partial-residual case under kRewriteReduceScatterPartial):
 *   - all_reduce followed by all_slice on reduced axes  -> reduce_scatter
 *     (+ residual all_reduce for reduced-but-unsliced axes, and — partial
 *     case — a residual all_slice for sliced-but-unreduced axes, the
 *     embedding-style chain across multiple mesh axes)
 *   - adjacent same-reduction all_reduces               -> one multi-axis AR
 *   - add of two identical-axes all_reduce/reduce_scatter partial sums
 *     -> collective of the add (gradient accumulation linearity)
 *   - transpose of a single-use all_reduce commutes inside it
 *
 * plus dead-code elimination. Collective counts (Table 3) and cost estimates
 * are taken after these rewrites, as in the paper.
 */
#ifndef PARTIR_SPMD_OPTIMIZE_H_
#define PARTIR_SPMD_OPTIMIZE_H_

#include <cstdint>
#include <string>

#include "src/mesh/mesh.h"
#include "src/spmd/lowering.h"

namespace partir {

/** Rewrite families of the SPMD peephole (bitmask). */
inline constexpr unsigned kRewriteGatherSlice = 1u << 0;
inline constexpr unsigned kRewriteReduceScatter = 1u << 1;
/** Multi-axis partial-residual reduce-scatter formation: all_slice axes
 *  only partially covered by the reduced axes still form a reduce_scatter
 *  over the intersection, with residual collectives for the rest. */
inline constexpr unsigned kRewriteReduceScatterPartial = 1u << 2;
inline constexpr unsigned kRewriteAllSpmd =
    kRewriteGatherSlice | kRewriteReduceScatter | kRewriteReduceScatterPartial;

/**
 * Optimizes the SPMD module in place with the masked rewrite families, as
 * one use-driven worklist over its main function: ops are visited in order,
 * each pattern matches an operand's current producer, replacement ops are
 * inserted just before the matched op, ops left without uses are erased as
 * the pass goes (incremental DCE), and an already-visited op is revisited
 * when an operand is replaced or drops to a single use. One call reaches
 * the fixpoint (a second call returns 0); it never copies the module, and
 * it drops the module's collective plan. A mask of 0 runs the DCE alone.
 *
 * The one collective-optimization loop: the pipeline's optimize-spmd pass,
 * the MCTS evaluations, the per-tactic reports and the GSPMD baseline all
 * run it, so the simulator scores the program that ships. Returns the
 * number of rewrites applied.
 */
int64_t OptimizeSpmd(SpmdModule& spmd, unsigned rewrites = kRewriteAllSpmd);

/** Collective-communication counts of a module (the rows of Table 3). */
struct CollectiveStats {
  int64_t all_gather = 0;
  int64_t all_reduce = 0;
  int64_t reduce_scatter = 0;
  int64_t all_to_all = 0;
  int64_t all_slice = 0;  // communication-free, reported for completeness

  /** Bytes moved per device, using ring-collective cost factors. */
  double comm_bytes = 0;

  std::string ToString() const;
};

/** Counts collectives (and per-device communication bytes) in a module. */
CollectiveStats CountCollectives(const Module& module, const Mesh& mesh);

}  // namespace partir

#endif  // PARTIR_SPMD_OPTIMIZE_H_
