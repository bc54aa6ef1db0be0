/**
 * @file
 * IR lint: structural well-formedness errors plus semantic hygiene
 * warnings, safe to run over untrusted (deserialized, hand-mutated)
 * modules — every malformed construct becomes a diagnostic, never a crash.
 *
 * Checker ids:
 *  - "ir-lint" (errors): the malformed-structure violations of the one op
 *    rule set (src/ir/op_rules.h, walked by FindViolations in
 *    src/ir/verifier.h) — dominance, placement, operand kinds, attribute
 *    presence/types/ranges, regions, mesh axes. Shape misfits are the
 *    shape checker's;
 *  - "dead-value" (warnings): ops none of whose results are ever read;
 *  - "redundant-collective" (warnings): collectives the replication
 *    dataflow proves unnecessary — an all_gather of a value already
 *    replicated along the gather axes, or an all_reduce of an
 *    already-replicated value (for "sum" that is not even a no-op: it
 *    multiplies by the group size — a likely double-reduce bug).
 */
#ifndef PARTIR_ANALYSIS_LINT_H_
#define PARTIR_ANALYSIS_LINT_H_

#include "src/analysis/diagnostics.h"
#include "src/ir/ir.h"
#include "src/mesh/mesh.h"

namespace partir {
namespace analysis {

/**
 * Lints every function of `module`. `mesh` may be null (traced, pre-mesh
 * modules): mesh-axis existence and the replication-based redundancy
 * warnings then stay off.
 */
void LintModule(const Module& module, const Mesh* mesh,
                AnalysisReport& report);

}  // namespace analysis
}  // namespace partir

#endif  // PARTIR_ANALYSIS_LINT_H_
