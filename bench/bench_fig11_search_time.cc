// Reproduces Figure 11 (Appendix A.3.3): AutomaticPartition search time by
// model and number of searched axes. The paper's observation: search time
// grows with the number of axes (decision space), and stays in an amortized
// acceptable range relative to training times.
#include "bench/bench_util.h"
#include "src/autopart/mcts.h"
#include "src/sim/cost_model.h"
#include "src/spmd/lowering.h"
#include "src/spmd/optimize.h"

namespace partir {
namespace {

using bench::Fmt;
using bench::PrintHeader;
using bench::PrintRow;

// Runs the search the AutomaticPartition tactic runs (same options, same
// boundary realization), so the row can show how many of the rewards the
// search consumed were distinct states it actually lowered and simulated.
// "found ms/step" is the estimate of the program the pipeline would ship.
void RunSearch(const std::string& model, Program& step,
               const std::vector<std::string>& axes, int simulations) {
  PartitionContext ctx(step.func(), Mesh({{"batch", 8}, {"model", 4}}));
  ctx.set_boundary_realization(PartitionOptions().boundary_realization);
  AutoOptions options;
  options.simulations = simulations;
  options.max_actions = 4;
  AutoResult found = AutomaticallyPartition(ctx, axes, options);
  SpmdModule spmd = LowerToSpmd(ctx);
  OptimizeSpmd(spmd);
  SimEstimate estimate = EstimateSpmd(spmd, options.device);
  PrintRow({model, StrCat(axes.size()), StrCat(simulations),
            StrCat(found.evaluations), StrCat(found.distinct_states),
            Fmt(found.search_seconds, "%.2f s"),
            Fmt(estimate.step_seconds * 1e3, "%.3f ms")});
}

}  // namespace
}  // namespace partir

int main() {
  using namespace partir;
  using namespace partir::bench;
  PrintHeader("Figure 11: AutomaticPartition search time");
  PrintRow({"model", "#axes", "sims", "evals", "distinct", "search",
            "found ms/step"});
  const int kSims = 48;
  {
    GnsConfig config = GnsConfig::Bench();
    Program step = Program::Capture([&](Module& module) {
      return BuildGnsTrainingStep(module, config);
    });
    RunSearch("GNS", step, {"batch"}, kSims);
    RunSearch("GNS", step, {"batch", "model"}, kSims);
  }
  {
    UNetConfig config = UNetConfig::Bench();
    Program step = Program::Capture([&](Module& module) {
      return BuildUNetTrainingStep(module, config);
    });
    RunSearch("UNet", step, {"batch"}, kSims);
    RunSearch("UNet", step, {"batch", "model"}, kSims);
  }
  {
    TransformerConfig config = TransformerConfig::T32Scaled();
    config.num_layers = 4;
    Program step = Program::Capture([&](Module& module) {
      return BuildTransformerTrainingStep(module, config);
    });
    RunSearch("T32/4L", step, {"batch"}, kSims);
    RunSearch("T32/4L", step, {"batch", "model"}, kSims);
  }
  return 0;
}
