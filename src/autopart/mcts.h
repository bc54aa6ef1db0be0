/**
 * @file
 * The AutomaticPartition tactic's search algorithm: a Monte-Carlo tree
 * search (UCT) over tiling actions, scored by the analytical simulator —
 * the approach of the paper's Section 3 / Appendix A.3.3 (after AutoMap
 * [Alabed et al. 2022, Schaarschmidt et al. 2021]). The search proposes
 * tile<value, dim, axis> actions on function inputs, propagates after each,
 * and seeks minimal estimated step time subject to fitting in device memory.
 * Rewards are memoized per partitioning state (PartitionContext::StateKey):
 * a state reached along several action paths is lowered and simulated once.
 */
#ifndef PARTIR_AUTOPART_MCTS_H_
#define PARTIR_AUTOPART_MCTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/context.h"
#include "src/sim/device_spec.h"

namespace partir {

/** One discovered compiler action. */
struct AutoAction {
  int arg_index;
  int64_t dim;
  std::string axis;
};

/** Search options (the `options` dict of the Table 1 API). */
struct AutoOptions {
  int simulations = 64;      // MCTS iterations
  int max_actions = 6;       // search depth (actions per episode)
  int max_candidates = 24;   // action-space cap (largest tensors first)
  double exploration = 1.2;  // UCT constant
  uint64_t seed = 17;
  DeviceSpec device = Tpu_v3();
};

/** Result of a search: the applied actions and the search's cost. The
 *  strategy's estimate is the pipeline's (PartitionResult::estimate). */
struct AutoResult {
  std::vector<AutoAction> actions;
  double search_seconds = 0;
  int evaluations = 0;      // rewards the search consumed
  int distinct_states = 0;  // of those, states lowered and simulated
};

/**
 * Runs the search over the given mesh axes and *applies* the best action
 * sequence to `ctx` (TileValue + Propagate per action).
 */
AutoResult AutomaticallyPartition(PartitionContext& ctx,
                                  const std::vector<std::string>& axes,
                                  const AutoOptions& options);

}  // namespace partir

#endif  // PARTIR_AUTOPART_MCTS_H_
