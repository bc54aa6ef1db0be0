#include "src/pass/pass_manager.h"

#include <chrono>

#include "src/ir/passes.h"
#include "src/ir/verifier.h"
#include "src/support/str_util.h"

namespace partir {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

PassManager::PassManager(PipelineOptions options)
    : options_(std::move(options)) {}

PassManager& PassManager::AddPass(std::unique_ptr<Pass> pass, StageTag tag) {
  PARTIR_CHECK(pass != nullptr) << "PassManager::AddPass: null pass";
  entries_.push_back(Entry{std::move(pass), tag});
  return *this;
}

Status PassManager::RunOne(Entry& entry, PassStats& stats,
                           PipelineState& state) {
  stats.ops_before = state.CurrentOpCount();
  state.changes = 0;
  auto start = Clock::now();
  Status status = entry.pass->Run(state);
  const double seconds = SecondsSince(start);
  stats.seconds = seconds;
  stats.runs = 1;
  if (!status.ok()) {
    return Status(status.code(), StrCat("pass '", entry.pass->name(),
                                        "': ", status.message()));
  }
  stats.changes = state.changes;
  stats.ops_after = state.CurrentOpCount();
  if (state.lowered) {
    stats.lowered = true;
    stats.collectives =
        CountCollectives(*state.result.spmd.module, state.result.spmd.mesh);
  }
  // A pre-lowering pass that changed the partitioning state invalidates any
  // previously materialized loop-form snapshot.
  if (!state.lowered && state.changes > 0) state.loop_snapshot_current = false;
  // Attribute the pass's wall-clock to its tactic's report (the paper's
  // per-tactic timing), once the tactic pass has created that report.
  if (entry.tag.tactic_index >= 0 &&
      entry.tag.tactic_index < static_cast<int>(state.result.tactics.size())) {
    state.result.tactics[entry.tag.tactic_index].tactic_seconds += seconds;
  }
  return Status::Ok();
}

Status PassManager::VerifyAfter(const std::string& pass_name,
                                PipelineState& state) {
  auto start = Clock::now();
  std::vector<std::string> diags = state.VerifyCurrent();
  stats_.verify_seconds += SecondsSince(start);
  ++stats_.verify_runs;
  if (diags.empty()) return Status::Ok();
  return InternalError("IR verification failed after pass '", pass_name,
                       "': ", StrJoin(diags, "; "));
}

Status PassManager::CaptureSnapshot(const Entry& entry, PipelineState& state) {
  if (!options_.capture_snapshots) return Status::Ok();
  StageSnapshot snapshot;
  snapshot.pass = entry.pass->name();
  snapshot.tactic_index = entry.tag.tactic_index;
  snapshot.final_loops = entry.tag.final_loops;
  if (state.lowered) {
    snapshot.form = StageSnapshot::Form::kSpmd;
    snapshot.module = CloneModule(*state.result.spmd.module);
  } else {
    snapshot.form = StageSnapshot::Form::kLoops;
    state.EnsureLoopSnapshot();
    // Verify each materialized loop form exactly once, whether it was
    // produced here or by a pass (MaterializeLoopsPass).
    if (options_.verify_after_each_pass && !state.loop_snapshot_verified) {
      auto start = Clock::now();
      std::vector<std::string> diags = Verify(*state.last_loop_snapshot, &state.ctx.mesh());
      stats_.verify_seconds += SecondsSince(start);
      ++stats_.verify_runs;
      if (!diags.empty()) {
        return InternalError("loop-form snapshot after pass '",
                             entry.pass->name(), "' failed verification: ",
                             StrJoin(diags, "; "));
      }
      state.loop_snapshot_verified = true;
    }
    snapshot.module = state.last_loop_snapshot;
  }
  state.result.snapshots.push_back(std::move(snapshot));
  return Status::Ok();
}

Status PassManager::Run(PipelineState& state) {
  auto total_start = Clock::now();
  stats_ = PipelineStats();  // a re-Run starts its accounting fresh
  stats_.passes.resize(entries_.size());
  for (size_t i = 0; i < entries_.size(); ++i) {
    stats_.passes[i].name = entries_[i].pass->name();
  }
  Status status = Status::Ok();
  for (size_t i = 0; i < entries_.size() && status.ok(); ++i) {
    Entry& entry = entries_[i];
    status = RunOne(entry, stats_.passes[i], state);
    if (status.ok() && options_.verify_after_each_pass) {
      status = VerifyAfter(entry.pass->name(), state);
    }
    if (status.ok() && entry.tag.stage_boundary) {
      status = CaptureSnapshot(entry, state);
    }
  }
  stats_.total_seconds = SecondsSince(total_start);
  state.result.pipeline = stats_;
  return status;
}

}  // namespace partir
