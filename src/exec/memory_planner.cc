#include "src/exec/memory_planner.h"

#include <algorithm>
#include <functional>
#include <set>
#include <utility>

#include "src/ir/op_kind.h"
#include "src/support/check.h"

namespace partir {
namespace exec {
namespace {

constexpr int64_t kElementBytes = 4;  // runtime tensors store 4-byte floats

/**
 * Size-class free lists: exact element count -> LIFO stack of slots. With
 * reuse off (the reference program) nothing is ever handed back out, so
 * every value gets a fresh slot.
 */
class FreeLists {
 public:
  explicit FreeLists(bool reuse) : reuse_(reuse) {}

  void Release(int slot, int64_t numel) { lists_[numel].push_back(slot); }

  /** Pops a free slot of exactly `numel` elements, or -1. */
  int Take(int64_t numel) {
    if (!reuse_) return -1;
    auto it = lists_.find(numel);
    if (it == lists_.end() || it->second.empty()) return -1;
    int slot = it->second.back();
    it->second.pop_back();
    return slot;
  }

 private:
  bool reuse_;
  std::map<int64_t, std::vector<int>> lists_;
};

/** True when instruction `kind` may write its result over a dying operand:
 *  elementwise kernels read each element before overwriting it. */
bool SupportsInPlace(OpKind kind) {
  return IsUnaryElementwise(kind) || IsBinaryElementwise(kind);
}

/** Element count of a value; range-typed loop arguments hold one scalar. */
int64_t NumelOf(const Value* value) {
  return value->type().IsTensor() ? value->tensor_type().NumElements() : 1;
}

/** Values defined inside `op`'s regions: block args + results, recursive. */
void CollectRegionDefined(const Operation& op,
                          std::set<const Value*>& defined) {
  for (int r = 0; r < op.num_regions(); ++r) {
    const Block& block = op.region(r).block();
    for (int a = 0; a < block.num_args(); ++a) defined.insert(block.arg(a));
    for (const auto& inner : block.ops()) {
      for (int i = 0; i < inner->num_results(); ++i) {
        defined.insert(inner->result(i));
      }
      CollectRegionDefined(*inner, defined);
    }
  }
}

/**
 * Everything instruction `op` reads: its operands plus, for region ops,
 * every value referenced anywhere inside the regions that is defined
 * outside them (a loop reads its free values on every iteration, so they
 * must stay live across the whole loop instruction).
 */
std::vector<const Value*> CollectReads(const Operation& op) {
  std::vector<const Value*> reads(op.operands().begin(), op.operands().end());
  if (op.num_regions() == 0) return reads;
  std::set<const Value*> defined;
  CollectRegionDefined(op, defined);
  std::function<void(const Operation&)> walk = [&](const Operation& o) {
    for (int r = 0; r < o.num_regions(); ++r) {
      for (const auto& inner : o.region(r).block().ops()) {
        for (const Value* v : inner->operands()) {
          if (defined.count(v) == 0) reads.push_back(v);
        }
        walk(*inner);
      }
    }
  };
  walk(op);
  return reads;
}

/**
 * Plans one loop body's values. Body slots are freshly allocated — never
 * shared with top-level (or sibling-body) slots, because an iteration may
 * run while any outer value is live — but a body-scoped free list reuses
 * them between body values whose body liveness does not overlap; since the
 * plan is fixed, every iteration reuses the same slots. `live_at` is the
 * enclosing top-level instruction index, recorded as the occupancy window
 * of every body value for the peak-live sweep.
 */
void PlanRegionBlock(const Block& body, int live_at, bool reuse,
                     MemoryPlan& plan) {
  PARTIR_CHECK(body.num_ops() > 0 &&
               body.terminator()->kind() == OpKind::kYield)
      << "loop region must end in yield";
  const int num_body = body.num_ops() - 1;

  // Body-local liveness, in body instruction indices. Values not in these
  // maps are outer references, handled by the enclosing scope.
  std::map<const Value*, int> local_last;
  for (int a = 0; a < body.num_args(); ++a) local_last[body.arg(a)] = -1;
  for (int i = 0; i < num_body; ++i) {
    const Operation& op = *body.ops()[i];
    for (int r = 0; r < op.num_results(); ++r) local_last[op.result(r)] = i;
  }
  for (int i = 0; i < num_body; ++i) {
    for (const Value* v : CollectReads(*body.ops()[i])) {
      auto it = local_last.find(v);
      if (it != local_last.end()) it->second = std::max(it->second, i);
    }
  }
  // Yielded values are read by the loop machinery after the body finishes.
  for (const Value* v : body.terminator()->operands()) {
    auto it = local_last.find(v);
    if (it != local_last.end()) it->second = num_body;
  }

  FreeLists free(reuse);
  auto place_local = [&](const Value* value) {
    ValuePlan vp;
    vp.value = value;
    vp.numel = NumelOf(value);
    vp.def = live_at;
    vp.last_use = live_at;
    vp.region_local = true;
    int reused = free.Take(vp.numel);
    if (reused >= 0) {
      vp.slot = reused;
      ++plan.slots_reused;
    } else {
      plan.slot_numels.push_back(vp.numel);
      vp.slot = static_cast<int>(plan.slot_numels.size()) - 1;
    }
    plan.index[value] = static_cast<int>(plan.values.size());
    plan.values.push_back(vp);
  };

  for (int a = 0; a < body.num_args(); ++a) place_local(body.arg(a));

  for (int i = 0; i < num_body; ++i) {
    const Operation& op = *body.ops()[i];

    // In-place adoption, restricted to body-local operands: an outer
    // value's buffer must survive for the next iteration (and for every
    // later top-level reader), so only a dying body-local qualifies.
    const Value* adopted = nullptr;
    if (reuse && op.num_results() == 1 && SupportsInPlace(op.kind())) {
      for (const Value* operand : op.operands()) {
        auto it = local_last.find(operand);
        if (it == local_last.end() || it->second != i) continue;
        if (plan.values[plan.IndexOf(operand)].numel ==
            op.result()->tensor_type().NumElements()) {
          adopted = operand;
          break;
        }
      }
    }

    for (int r = 0; r < op.num_results(); ++r) {
      const Value* result = op.result(r);
      if (r == 0 && adopted != nullptr) {
        ValuePlan vp;
        vp.value = result;
        vp.numel = NumelOf(result);
        vp.def = live_at;
        vp.last_use = live_at;
        vp.region_local = true;
        vp.slot = plan.values[plan.IndexOf(adopted)].slot;
        vp.in_place = true;
        ++plan.in_place_ops;
        plan.index[result] = static_cast<int>(plan.values.size());
        plan.values.push_back(vp);
      } else {
        place_local(result);
      }
    }

    // Nested loops plan their bodies with the same occupancy window.
    if (op.num_regions() > 0) {
      for (int r = 0; r < op.num_regions(); ++r) {
        PlanRegionBlock(op.region(r).block(), live_at, reuse, plan);
      }
    }

    // Reclaim body-local operands whose body-local last use is here (each
    // slot once, even when read twice), then dead results.
    std::set<int> released;
    for (const Value* operand : CollectReads(op)) {
      if (operand == adopted) continue;
      auto it = local_last.find(operand);
      if (it == local_last.end() || it->second != i) continue;
      int slot = plan.values[plan.IndexOf(operand)].slot;
      if (released.insert(slot).second) {
        free.Release(slot, plan.values[plan.IndexOf(operand)].numel);
      }
    }
    for (int r = 0; r < op.num_results(); ++r) {
      const Value* result = op.result(r);
      if (local_last.at(result) == i) {
        const ValuePlan& vp = plan.values[plan.IndexOf(result)];
        free.Release(vp.slot, vp.numel);
      }
    }
  }
}

}  // namespace

MemoryPlan PlanMemory(const Func& func, bool reuse) {
  const Block& body = func.body();
  PARTIR_CHECK(body.num_ops() > 0 &&
               body.terminator()->kind() == OpKind::kReturn)
      << "planning requires a returning function";
  const int num_instructions = body.num_ops() - 1;  // return is not executed

  MemoryPlan plan;
  plan.num_instructions = num_instructions;

  // Enumerate top-level values: args first, then op results in program
  // order. (Loop-body values are added when their loop is planned below.)
  auto add_value = [&plan](const Value* value, int def) {
    ValuePlan vp;
    vp.value = value;
    vp.numel = NumelOf(value);
    vp.def = def;
    vp.last_use = def;  // never-read values die where they are born
    plan.index[value] = static_cast<int>(plan.values.size());
    plan.values.push_back(vp);
  };
  for (int i = 0; i < body.num_args(); ++i) add_value(body.arg(i), -1);
  for (int i = 0; i < num_instructions; ++i) {
    const Operation& op = *body.ops()[i];
    for (int r = 0; r < op.num_results(); ++r) add_value(op.result(r), i);
  }

  // Liveness: last_use is the largest reading instruction — where a loop
  // counts as reading every outer value referenced inside its region — and
  // the return op pins its operands to one-past-the-end so outputs are
  // never reclaimed.
  for (int i = 0; i < num_instructions; ++i) {
    for (const Value* operand : CollectReads(*body.ops()[i])) {
      ValuePlan& vp = plan.values[plan.IndexOf(operand)];
      vp.last_use = std::max(vp.last_use, i);
    }
  }
  for (const Value* operand : body.terminator()->operands()) {
    plan.values[plan.IndexOf(operand)].last_use = num_instructions;
  }

  // Slot assignment: walk in program order, reusing reclaimed slots of the
  // exact element count. A dying operand is released only after the
  // instruction's results are placed — unless the instruction claims it in
  // place, in which case the result inherits the slot directly.
  FreeLists free(reuse);
  auto new_slot = [&plan](int64_t numel) {
    plan.slot_numels.push_back(numel);
    return static_cast<int>(plan.slot_numels.size()) - 1;
  };
  auto place = [&](ValuePlan& vp) {
    int reused = free.Take(vp.numel);
    if (reused >= 0) {
      vp.slot = reused;
      ++plan.slots_reused;
    } else {
      vp.slot = new_slot(vp.numel);
    }
  };

  for (int a = 0; a < body.num_args(); ++a) {
    place(plan.values[plan.IndexOf(body.arg(a))]);
  }
  // Arguments nothing ever reads free up before the first instruction.
  for (int a = 0; a < body.num_args(); ++a) {
    ValuePlan& vp = plan.values[plan.IndexOf(body.arg(a))];
    if (vp.last_use < 0) free.Release(vp.slot, vp.numel);
  }

  for (int i = 0; i < num_instructions; ++i) {
    const Operation& op = *body.ops()[i];

    // In-place: a single-result elementwise op adopts the slot of its
    // first operand that dies here. A value read again later — or
    // returned — never qualifies, because its last_use is past i.
    const Value* adopted = nullptr;
    if (reuse && op.num_results() == 1 && SupportsInPlace(op.kind())) {
      for (const Value* operand : op.operands()) {
        const ValuePlan& ovp = plan.values[plan.IndexOf(operand)];
        if (ovp.last_use == i &&
            ovp.numel == op.result()->tensor_type().NumElements()) {
          adopted = operand;
          break;
        }
      }
    }

    for (int r = 0; r < op.num_results(); ++r) {
      ValuePlan& vp = plan.values[plan.IndexOf(op.result(r))];
      if (r == 0 && adopted != nullptr) {
        vp.slot = plan.values[plan.IndexOf(adopted)].slot;
        vp.in_place = true;
        ++plan.in_place_ops;
      } else {
        place(vp);
      }
    }

    // Loop bodies get their own (fresh, per-iteration-reused) slots.
    if (op.num_regions() > 0) {
      for (int r = 0; r < op.num_regions(); ++r) {
        PlanRegionBlock(op.region(r).block(), i, reuse, plan);
      }
    }

    // Now — and only now — reclaim operands whose last use was this
    // instruction (each slot once, even if the value is read twice).
    const std::vector<const Value*> reads = CollectReads(op);
    for (const Value* operand : reads) {
      if (operand == adopted) continue;  // slot lives on in the result
      ValuePlan& ovp = plan.values[plan.IndexOf(operand)];
      if (ovp.last_use == i && ovp.slot >= 0) {
        free.Release(ovp.slot, ovp.numel);
        ovp.slot = ~ovp.slot;  // mark released, undone below
      }
    }
    for (const Value* operand : reads) {
      ValuePlan& ovp = plan.values[plan.IndexOf(operand)];
      if (ovp.slot < 0) ovp.slot = ~ovp.slot;
    }
    // Results nothing ever reads release immediately as well.
    for (int r = 0; r < op.num_results(); ++r) {
      ValuePlan& vp = plan.values[plan.IndexOf(op.result(r))];
      if (vp.last_use == i) free.Release(vp.slot, vp.numel);
    }
  }

  // Statistics. Arena footprint is the sum of slot sizes; peak live bytes
  // sweeps the merged per-slot occupancy intervals (an in-place handoff
  // keeps its slot continuously occupied, so the pair counts once; a
  // region-local value occupies its slot for its loop's whole window).
  for (int64_t numel : plan.slot_numels) {
    plan.arena_bytes += numel * kElementBytes;
  }
  for (const ValuePlan& vp : plan.values) {
    plan.unplanned_bytes += vp.numel * kElementBytes;
  }
  std::map<int, std::vector<std::pair<int, int>>> intervals;
  for (const ValuePlan& vp : plan.values) {
    int start = std::max(vp.def, 0);
    int end = vp.last_use;
    if (end < start) continue;  // never-read argument: no live window
    intervals[vp.slot].push_back({start, end});
  }
  std::map<int, int64_t> delta;  // instruction boundary -> live-bytes change
  for (auto& entry : intervals) {
    auto& spans = entry.second;
    std::sort(spans.begin(), spans.end());
    int64_t bytes = plan.slot_numels[entry.first] * kElementBytes;
    int cur_start = spans[0].first, cur_end = spans[0].second;
    auto emit = [&](int start, int end) {
      delta[start] += bytes;
      delta[end + 1] -= bytes;
    };
    for (size_t s = 1; s < spans.size(); ++s) {
      if (spans[s].first <= cur_end) {  // overlap: in-place handoff
        cur_end = std::max(cur_end, spans[s].second);
      } else {
        emit(cur_start, cur_end);
        cur_start = spans[s].first;
        cur_end = spans[s].second;
      }
    }
    emit(cur_start, cur_end);
  }
  int64_t live = 0;
  for (const auto& entry : delta) {
    live += entry.second;
    plan.peak_live_bytes = std::max(plan.peak_live_bytes, live);
  }
  return plan;
}

}  // namespace exec
}  // namespace partir
