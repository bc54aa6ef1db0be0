#include "src/analysis/shape_checker.h"

#include <string>

#include "src/ir/verifier.h"
#include "src/support/str_util.h"

namespace partir {
namespace analysis {
namespace {

constexpr char kShape[] = "shape-check";

void CheckShardings(const SpmdModule& spmd, AnalysisReport& report) {
  if (spmd.module->funcs().empty()) return;
  const Func* main = spmd.main();
  auto check = [&](const ValueSharding& sharding, const Value* value,
                   const char* what, int i) {
    // Formatted only on a finding: loaders run this on every result.
    auto loc = [&] { return StrCat(what, " ", i, " ('", value->name(), "')"); };
    if (!value->type().IsTensor()) return;
    if (!sharding.axes.empty() &&
        static_cast<int>(sharding.axes.size()) !=
            value->tensor_type().rank()) {
      report.Error(kShape, loc(),
                   StrCat("sharding covers ", sharding.axes.size(),
                          " dim(s), the value has rank ",
                          value->tensor_type().rank()));
    }
    for (const auto& dim_axes : sharding.axes) {
      for (const std::string& axis : dim_axes) {
        if (!spmd.mesh.HasAxis(axis)) {
          report.Error(kShape, loc(),
                       StrCat("sharded along unknown mesh axis '", axis,
                              "'"));
        }
      }
    }
  };
  for (size_t i = 0;
       i < spmd.input_shardings.size() &&
       i < static_cast<size_t>(main->body().num_args());
       ++i) {
    check(spmd.input_shardings[i], main->body().arg(i), "input",
          static_cast<int>(i));
  }
  if (main->body().num_ops() == 0) return;
  const Operation* ret = main->body().terminator();
  for (size_t i = 0;
       i < spmd.output_shardings.size() &&
       i < static_cast<size_t>(ret->num_operands());
       ++i) {
    check(spmd.output_shardings[i], ret->operand(i), "output",
          static_cast<int>(i));
  }
}

}  // namespace

void CheckShapes(const SpmdModule& spmd, AnalysisReport& report) {
  report.checkers_run.push_back("shapes");
  if (spmd.module == nullptr) return;
  CheckShardings(spmd, report);
  for (const Violation& violation : FindViolations(*spmd.module, &spmd.mesh)) {
    report.Error(kShape, StrCat("function '", violation.func->name(), "'"),
                 violation.status.message());
  }
}

}  // namespace analysis
}  // namespace partir
