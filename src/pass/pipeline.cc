#include "src/pass/pipeline.h"

#include <chrono>

#include "src/pass/passes.h"
#include "src/sim/cost_model.h"
#include "src/spmd/optimize.h"

namespace partir {
namespace {

// In incremental mode the last tactic's prefix is the final state, and with
// the full rewrite set the last report would lower, optimize and estimate
// exactly what lower-to-spmd + optimize-spmd ship: RunPartitionPipeline
// copies the final numbers into it instead of lowering that state twice.
bool LastReportIsFinal(const PartitionOptions& options,
                       const PipelineVariant& variant) {
  return options.incremental && variant.form_reduce_scatter;
}

}  // namespace

void BuildPartitionPipeline(PassManager& manager,
                            const std::vector<Tactic>& schedule,
                            const PartitionOptions& options,
                            const PipelineVariant& variant) {
  for (int i = 0; i < static_cast<int>(schedule.size()); ++i) {
    const Tactic& tactic = schedule[i];
    const bool manual = std::holds_alternative<ManualPartition>(tactic);
    // The stage a Print(Stage::AfterTactic(i)) renders is the state after
    // the tactic's propagation in incremental mode, after the bare actions
    // otherwise (automatic tactics propagate internally).
    const bool propagate_after = manual && options.incremental;
    if (manual) {
      manager.AddPass(std::make_unique<ManualTacticPass>(
                          i, std::get<ManualPartition>(tactic)),
                      StageTag::Tactic(i, /*boundary=*/!propagate_after));
    } else {
      manager.AddPass(std::make_unique<AutoTacticPass>(
                          i, std::get<AutomaticPartition>(tactic)),
                      StageTag::Tactic(i, /*boundary=*/true));
    }
    if (propagate_after) {
      manager.AddPass(std::make_unique<PropagatePass>(i),
                      StageTag::Tactic(i, /*boundary=*/true));
    }
    const bool last = i + 1 == static_cast<int>(schedule.size());
    if (options.per_tactic_reports &&
        !(last && LastReportIsFinal(options, variant))) {
      manager.AddPass(std::make_unique<TacticReportPass>(i));
    }
  }
  if (!options.incremental) {
    // PartIR-st (Section 7.4): all tactics amalgamated, one propagation.
    manager.AddPass(std::make_unique<PropagatePass>());
  }
  if (options.capture_stages) {
    manager.AddPass(std::make_unique<MaterializeLoopsPass>(),
                    StageTag{-1, /*stage_boundary=*/true,
                             /*final_loops=*/true});
  }
  manager.AddPass(std::make_unique<LowerToSpmdPass>());
  manager.AddPass(std::make_unique<OptimizeSpmdPass>(
      variant.form_reduce_scatter ? kRewriteAllSpmd : kRewriteGatherSlice));
  manager.AddPass(std::make_unique<PlanCollectivesPass>());
  manager.AddPass(std::make_unique<CompileDeviceProgramsPass>());
  if (options.analyze) {
    manager.AddPass(std::make_unique<StaticAnalysisPass>());
  }
}

StatusOr<PartitionResult> RunPartitionPipeline(
    PartitionContext& ctx, const std::vector<Tactic>& schedule,
    const PartitionOptions& options, const PipelineVariant& variant) {
  auto total_start = std::chrono::steady_clock::now();
  PipelineOptions pipeline_options;
  pipeline_options.verify_after_each_pass = options.verify_passes;
  pipeline_options.capture_snapshots = options.capture_stages;
  PassManager manager(pipeline_options);
  BuildPartitionPipeline(manager, schedule, options, variant);
  // Set once, before any pass: every propagation on this context — manual
  // tactics, the MCTS search states copied from it — realizes boundaries
  // the same way.
  ctx.set_boundary_realization(options.boundary_realization);

  PartitionResult result;
  PipelineState state(ctx, schedule, options, result);
  PARTIR_RETURN_IF_ERROR(manager.Run(state));

  result.collectives =
      CountCollectives(*result.spmd.module, result.spmd.mesh);
  result.estimate = EstimateSpmd(result.spmd, options.device);
  result.conflicts = ctx.conflicts();
  if (options.per_tactic_reports && !result.tactics.empty() &&
      LastReportIsFinal(options, variant)) {
    result.tactics.back().collectives = result.collectives;
    result.tactics.back().estimate = result.estimate;
  }
  // The manager overwrote result.pipeline with its own stats at the end of
  // Run, so the analysis counts are folded in here, not by the pass.
  result.pipeline.analysis_checkers =
      static_cast<int64_t>(result.analysis.checkers_run.size());
  result.pipeline.analysis_errors = result.analysis.errors();
  result.pipeline.analysis_warnings = result.analysis.warnings();
  // partition_seconds (Figure 8) covers the whole Partition call including
  // this finalization; pipeline.total_seconds stays the manager's own
  // measurement so total_ms ≈ sum(per-pass ms) + verify_ms in the stats.
  result.partition_seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() -
                                 total_start)
                                 .count();
  return result;
}

}  // namespace partir
