/**
 * @file
 * PassManager: owns an ordered pipeline of passes and runs them over a
 * PipelineState with the cross-cutting machinery every stage shares:
 *   - inter-pass IR verification (debug-on by default; a violation is a
 *     typed kInternal Status naming the pass, never an abort),
 *   - per-pass wall-clock, op-delta and rewrite statistics (PipelineStats),
 *   - per-pass collective counts once the module is lowered (the per-stage
 *     Table 3 breakdown used to debug collective formation),
 *   - printable IR snapshots at stage-tagged passes (loop form before
 *     lowering, device-local module after) that Executable::Print serves.
 * Every pass runs once, in registration order; a pass that iterates to a
 * fixpoint (propagate, optimize-spmd) does so internally.
 */
#ifndef PARTIR_PASS_PASS_MANAGER_H_
#define PARTIR_PASS_PASS_MANAGER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/pass/pass.h"
#include "src/pass/stats.h"

namespace partir {

/**
 * Marks how a registered pass participates in stage bookkeeping:
 * `tactic_index` attributes the pass's wall-clock to that tactic's
 * TacticReport and (with `stage_boundary`) makes the pass a printable
 * stage for Print(Stage::AfterTactic(i)); `final_loops` marks the final
 * loop-form stage.
 */
struct StageTag {
  int tactic_index = -1;
  bool stage_boundary = false;
  bool final_loops = false;

  static StageTag Tactic(int index, bool boundary) {
    return StageTag{index, boundary, false};
  }
};

class PassManager {
 public:
  explicit PassManager(PipelineOptions options = {});

  /** Appends a pass to the pipeline. */
  PassManager& AddPass(std::unique_ptr<Pass> pass, StageTag tag = StageTag());

  /**
   * Runs the pipeline. Stops at the first pass error or verifier failure;
   * stats() is valid for the passes that ran either way.
   */
  Status Run(PipelineState& state);

  const PipelineStats& stats() const { return stats_; }
  const PipelineOptions& options() const { return options_; }
  int num_passes() const { return static_cast<int>(entries_.size()); }
  const Pass& pass(int i) const { return *entries_.at(i).pass; }

 private:
  struct Entry {
    std::unique_ptr<Pass> pass;
    StageTag tag;
  };

  /** Runs one pass, filling its stats slot. */
  Status RunOne(Entry& entry, PassStats& stats, PipelineState& state);
  /** Verifies the live IR after `pass_name` ran; typed error on failure. */
  Status VerifyAfter(const std::string& pass_name, PipelineState& state);
  /** Captures a printable snapshot after a stage-boundary pass. */
  Status CaptureSnapshot(const Entry& entry, PipelineState& state);

  PipelineOptions options_;
  std::vector<Entry> entries_;
  PipelineStats stats_;
};

}  // namespace partir

#endif  // PARTIR_PASS_PASS_MANAGER_H_
