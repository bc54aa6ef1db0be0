#include "src/pass/pass.h"

#include "src/core/materialize.h"
#include "src/ir/verifier.h"

namespace partir {

void PipelineState::EnsureLoopSnapshot() {
  if (!loop_snapshot_current || last_loop_snapshot == nullptr) {
    last_loop_snapshot = MaterializeLoops(ctx);
    loop_snapshot_current = true;
    loop_snapshot_verified = false;
  }
}

int64_t PipelineState::CurrentOpCount() const {
  if (lowered) return CountOps(*result.spmd.main());
  return CountOps(*ctx.func());
}

std::vector<std::string> PipelineState::VerifyCurrent() const {
  if (lowered) return Verify(*result.spmd.module, &result.spmd.mesh);
  return Verify(*ctx.func(), &ctx.mesh());
}

}  // namespace partir
