/**
 * @file
 * THE declaration of the partitioning pipeline: every Program::Partition /
 * Executable::Respecialize (and the partition-cache miss path) compiles by
 * building this pass pipeline and running it through a PassManager. New
 * rewrite stages — serving batcher pre-passes, autopart instrumentation —
 * are added here and nowhere else. New collective formations go into
 * OptimizeSpmd's worklist (src/spmd/optimize.h) instead: the optimize-spmd
 * pass, the MCTS, the per-tactic reports and the GSPMD baseline share that
 * one loop, so every path scores the program that ships.
 */
#ifndef PARTIR_PASS_PIPELINE_H_
#define PARTIR_PASS_PIPELINE_H_

#include <vector>

#include "src/pass/pass_manager.h"
#include "src/schedule/schedule.h"

namespace partir {

/**
 * Ablation hooks for pipeline experiments (bench before/after rows). The
 * facade always compiles with the defaults; a variant never enters the
 * partition cache (callers that ablate must run the pipeline directly).
 */
struct PipelineVariant {
  /** Include reduce-scatter formation in the optimize-spmd rewrites (off:
   *  gather/slice fusion only). */
  bool form_reduce_scatter = true;
};

/**
 * Registers the partition pipeline for `schedule` on `manager`:
 *
 *   per tactic i:  tactic[i]        (manual actions or automatic search)
 *                  propagate        (incremental mode, manual tactics)
 *                  report[i]        (per_tactic_reports; in incremental
 *                                    mode with the full rewrite set the
 *                                    last report copies the final numbers)
 *   then:          propagate        (PartIR-st: single deferred propagation)
 *                  materialize-loops (capture_stages: final loop form)
 *                  lower-to-spmd
 *                  optimize-spmd    (OptimizeSpmd: in-place rewrite + DCE
 *                                    worklist, one call to the fixpoint)
 *   finally:       plan-collectives
 *                  compile-device-programs
 *                  static-analysis  (analyze)
 */
void BuildPartitionPipeline(PassManager& manager,
                            const std::vector<Tactic>& schedule,
                            const PartitionOptions& options,
                            const PipelineVariant& variant = PipelineVariant());

/**
 * Runs the full pipeline over a fresh context and finalizes the result
 * (final collective counts, estimate, conflicts, per-pass statistics).
 * Sets the context's boundary_realization flag from `options` before any
 * pass runs. This is PartirJitOrError's engine; call it directly to ablate
 * passes through a PipelineVariant (the bench before/after rows).
 */
StatusOr<PartitionResult> RunPartitionPipeline(
    PartitionContext& ctx, const std::vector<Tactic>& schedule,
    const PartitionOptions& options,
    const PipelineVariant& variant = PipelineVariant());

}  // namespace partir

#endif  // PARTIR_PASS_PIPELINE_H_
