/**
 * @file
 * Pass-pipeline observability types: per-pass statistics (wall-clock,
 * op-deltas, rewrite counts, collective counts), printable IR snapshots per
 * stage, and the PipelineOptions that control inter-pass verification and
 * snapshot capture. These are the types PartitionResult embeds, so they live
 * below both the pass framework (src/pass/pass.h) and the schedule API
 * (src/schedule/schedule.h).
 */
#ifndef PARTIR_PASS_STATS_H_
#define PARTIR_PASS_STATS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/spmd/optimize.h"

namespace partir {

class Module;

/** Inter-pass verification defaults on in assertion-enabled builds: the
 *  debug CI job runs every pipeline with the verifier between passes, while
 *  release builds pay nothing unless they opt in. */
#ifdef NDEBUG
inline constexpr bool kVerifyPassesDefault = false;
#else
inline constexpr bool kVerifyPassesDefault = true;
#endif

/** Knobs of the PassManager itself (how to run a pipeline, not what the
 *  pipeline computes — none of these change the partitioned program). */
struct PipelineOptions {
  /** Run the IR verifier after every pass; a violation surfaces as a typed
   *  kInternal Status naming the offending pass, never an abort. */
  bool verify_after_each_pass = kVerifyPassesDefault;
  /** Capture a printable IR snapshot at every stage-tagged pass (loop form
   *  before lowering, device-local module after). Each capture clones a
   *  module, so it is opt-in. */
  bool capture_snapshots = false;
};

/** Statistics of one registered pass's run. */
struct PassStats {
  std::string name;
  double seconds = 0;      // wall-clock
  int64_t runs = 0;        // 1 once the pass executed
  int64_t changes = 0;     // rewrites / actions / propagation steps applied
  int64_t ops_before = 0;  // op count entering the pass
  int64_t ops_after = 0;   // op count leaving the pass
  /** True once the pass ran on the lowered device-local module, making the
   *  collective counts below meaningful. */
  bool lowered = false;
  /** Collective counts after the pass ran on the lowered module — the
   *  per-stage Table 3 breakdown (lower-to-spmd vs. optimize-spmd) used to
   *  debug collective formation. */
  CollectiveStats collectives;
};

/** Per-pass statistics of one pipeline execution, in pipeline order. */
struct PipelineStats {
  std::vector<PassStats> passes;
  double verify_seconds = 0;  // total inter-pass verification time
  int64_t verify_runs = 0;    // number of verifier invocations
  double total_seconds = 0;   // whole pipeline wall-clock
  /** Static-analysis pass results (PartitionOptions::analyze): checkers run
   *  and diagnostic counts, so callers (and bench JSONs) can gate on zero
   *  diagnostics without holding the full AnalysisReport. */
  int64_t analysis_checkers = 0;
  int64_t analysis_errors = 0;
  int64_t analysis_warnings = 0;

  /** First pass with the given name, or nullptr. */
  const PassStats* Find(const std::string& name) const {
    for (const PassStats& pass : passes) {
      if (pass.name == name) return &pass;
    }
    return nullptr;
  }

  /** Human-readable per-pass table (name, ms, runs, changes, op delta). */
  std::string ToString() const;
};

/** A printable IR snapshot captured after a stage-tagged pass ran. */
struct StageSnapshot {
  /** Module form the snapshot holds: the PartIR:Core loop form (before SPMD
   *  lowering) or the device-local SPMD module (after). */
  enum class Form { kLoops, kSpmd };

  std::string pass;       // name of the pass the snapshot was taken after
  int tactic_index = -1;  // schedule prefix this stage completes, or -1
  bool final_loops = false;  // loop form after the full schedule
  Form form = Form::kLoops;
  std::shared_ptr<const Module> module;  // immutable, shared across clones
};

}  // namespace partir

#endif  // PARTIR_PASS_STATS_H_
