#include "src/analysis/lint.h"

#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "src/analysis/dataflow.h"
#include "src/ir/op_rules.h"
#include "src/ir/verifier.h"
#include "src/spmd/collectives.h"
#include "src/support/str_util.h"

namespace partir {
namespace analysis {
namespace {

constexpr char kLint[] = "ir-lint";
constexpr char kDead[] = "dead-value";
constexpr char kRedundant[] = "redundant-collective";

/** Abort-free attribute pointer: null when missing or mistyped. */
template <typename T>
const T* AttrPtr(const Operation& op, const std::string& name) {
  auto it = op.attrs().raw().find(name);
  if (it == op.attrs().raw().end()) return nullptr;
  return std::get_if<T>(&it->second);
}

/** The ir-lint errors are the malformed-structure violations of the op
 *  rules (src/ir/op_rules.h) and the verifier's dominance and placement
 *  checks; shape misfits are left to the shape checker. */
void LintStructure(const Module& module, const Mesh* mesh,
                   AnalysisReport& report) {
  for (const Violation& violation : FindViolations(module, mesh)) {
    if (violation.status.code() != StatusCode::kInvalidArgument) continue;
    report.Error(kLint, StrCat("function '", violation.func->name(), "'"),
                 violation.status.message());
  }
}

void LintDeadValues(const Module& module, AnalysisReport& report) {
  for (const auto& func : module.funcs()) {
    if (func->body().num_ops() == 0) continue;
    std::set<const Value*> used;
    WalkOps(func->body(), [&](const Operation& op) {
      for (const Value* operand : op.operands()) used.insert(operand);
    });
    std::function<void(const Block&)> walk = [&](const Block& block) {
      for (int i = 0; i + 1 < block.num_ops(); ++i) {
        const Operation& op = *block.ops()[i];
        bool any_used = op.num_results() == 0;
        for (int r = 0; r < op.num_results(); ++r) {
          if (used.count(op.result(r))) any_used = true;
        }
        if (!any_used) {
          report.Warning(kDead, OpLabel(op),
                         "no result of this op is ever used");
        }
        for (int r = 0; r < op.num_regions(); ++r) {
          walk(op.region(r).block());
        }
      }
    };
    walk(func->body());
  }
}

void LintRedundantCollectives(const Module& module, const Mesh& mesh,
                              AnalysisReport& report) {
  if (mesh.num_axes() > 64) return;  // past the axis bitmask's width
  auto axes_of = [](const Operation& op) -> std::vector<std::string> {
    StatusOr<std::vector<std::string>> axes = CollectiveGroupAxes(op);
    return axes.ok() ? std::move(axes).value() : std::vector<std::string>{};
  };

  for (const auto& func : module.funcs()) {
    if (func->body().num_ops() == 0) continue;
    // Per value, the bitmask of mesh axes it is provably replicated along.
    auto states = RunForwardDataflow<uint64_t>(
        func->body(),
        [](const Value&) { return uint64_t{0}; },  // args: assume sharded
        [&](const Operation& op, const std::vector<const uint64_t*>& operands,
            const std::map<const Value*, uint64_t>&) {
          std::vector<uint64_t> operand_axes;
          for (const uint64_t* axes : operands) operand_axes.push_back(*axes);
          return std::vector<uint64_t>(
              op.num_results(), ReplicatedResultAxes(op, operand_axes, mesh));
        });

    for (const auto& op : func->body().ops()) {
      if (!IsCollective(op->kind()) || op->num_operands() != 1) continue;
      std::vector<std::string> axes = axes_of(*op);
      auto it = states.find(op->operand(0));
      if (it == states.end()) continue;
      if (axes.empty()) {
        report.Warning(kRedundant, OpLabel(*op),
                       "collective over an empty axis list is a no-op");
        continue;
      }
      // Inverse-pair round trips: the boundary-gather realization plus a
      // downstream re-tiling can chain all_gather and all_slice with the
      // same axes_per_dim; optimize-spmd's gather/slice fusion rewrites
      // those away, so a survivor is pure redundant data motion.
      const Operation* producer =
          op->operand(0)->IsBlockArg() ? nullptr : op->operand(0)->def();
      if (producer != nullptr &&
          ((op->kind() == OpKind::kAllSlice &&
            producer->kind() == OpKind::kAllGather) ||
           (op->kind() == OpKind::kAllGather &&
            producer->kind() == OpKind::kAllSlice))) {
        const AxesPerDim* outer = AttrPtr<AxesPerDim>(*op, "axes_per_dim");
        const AxesPerDim* inner =
            AttrPtr<AxesPerDim>(*producer, "axes_per_dim");
        if (outer != nullptr && inner != nullptr && *outer == *inner) {
          report.Warning(
              kRedundant, OpLabel(*op),
              StrCat("undoes the ", OpKindName(producer->kind()), " '%",
                     producer->result(0)->name(),
                     "' it consumes (gather/slice round-trip survived "
                     "optimize-spmd)"));
        }
      }
      bool known = true;
      for (const std::string& axis : axes) known = known && mesh.HasAxis(axis);
      const uint64_t mask = AxisMask(mesh, axes);
      if (!known || (it->second & mask) != mask) continue;
      if (op->kind() == OpKind::kAllReduce) {
        report
            .Warning(kRedundant, OpLabel(*op),
                     "all_reduce of a value already replicated along its "
                     "axes (back-to-back all_reduce?)")
            .notes = {"for reduction=sum this is not even a no-op: it "
                      "multiplies the value by the group size"};
      } else if (op->kind() == OpKind::kAllGather) {
        report.Warning(kRedundant, OpLabel(*op),
                       "all_gather of a value already replicated along the "
                       "gather axes concatenates identical copies");
      } else if (op->kind() == OpKind::kReduceScatter) {
        // A reduce_scatter formed over an already-reduced value is the
        // double-reduction hazard of the rs-formation + boundary-scatter
        // path: every device holds the full sum, so re-reducing scales the
        // result by the group size.
        report
            .Warning(kRedundant, OpLabel(*op),
                     "reduce_scatter of a value already replicated along "
                     "its axes re-reduces identical copies")
            .notes = {"for reduction=sum this scales the result by the "
                      "group size; all_slice is the re-tiling that was "
                      "probably intended"};
      }
    }
  }
}

}  // namespace

void LintModule(const Module& module, const Mesh* mesh,
                AnalysisReport& report) {
  report.checkers_run.push_back("lint");
  LintStructure(module, mesh, report);
  LintDeadValues(module, report);
  if (mesh != nullptr) LintRedundantCollectives(module, *mesh, report);
}

}  // namespace analysis
}  // namespace partir
