/**
 * @file
 * Shape / divisibility consistency checking over lowered SPMD modules.
 *
 * The lowered module's value types *are* the per-device local shapes. The
 * checker reports every violation of the one op rule set
 * (src/ir/op_rules.h) against the module's mesh — operand shapes that do
 * not fit an op's rule (all_slice / reduce_scatter dims the axis product
 * does not divide, disagreeing elementwise operands, ...) and declared
 * types that differ from the inferred ones — before execution can trip on
 * them. Shardings are validated against the mesh (axis existence, rank
 * agreement). Each op is checked against its operands' declared types, so
 * one bad op does not cascade.
 *
 * Checker id: "shape-check".
 */
#ifndef PARTIR_ANALYSIS_SHAPE_CHECKER_H_
#define PARTIR_ANALYSIS_SHAPE_CHECKER_H_

#include "src/analysis/diagnostics.h"
#include "src/spmd/lowering.h"

namespace partir {
namespace analysis {

void CheckShapes(const SpmdModule& spmd, AnalysisReport& report);

}  // namespace analysis
}  // namespace partir

#endif  // PARTIR_ANALYSIS_SHAPE_CHECKER_H_
