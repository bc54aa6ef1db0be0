/**
 * @file
 * Module verifier: SSA dominance, op placement (terminators, loop-only
 * ops), and "declared == inferred" for every op — each op's declared
 * result types must equal what its kind's rule in src/ir/op_rules.h
 * infers. The rule set is the single one OpBuilder, the analysis lint and
 * shape checker, and the deserializers share, so a module that verifies
 * is one every pass, the interpreter and the executor can walk without
 * re-checking it. One linear pass over the region tree.
 */
#ifndef PARTIR_IR_VERIFIER_H_
#define PARTIR_IR_VERIFIER_H_

#include <string>
#include <vector>

#include "src/ir/ir.h"
#include "src/mesh/mesh.h"
#include "src/support/status.h"

namespace partir {

/**
 * One broken rule. The status message names the op (or the function) and
 * the rule; its code says what kind of rule broke:
 *  - kInvalidArgument: malformed structure — dominance, placement,
 *    operand kinds, attributes, regions, mesh axes;
 *  - kFailedPrecondition: shapes that do not fit — operand shapes the
 *    rule rejects, or declared result types that differ from the inferred
 *    ones.
 */
struct Violation {
  const Func* func = nullptr;
  Status status;
};

/**
 * Every rule violation in `module`, in walk order. With a `mesh`,
 * collective axes and loop trip counts are checked against it too.
 */
std::vector<Violation> FindViolations(const Module& module,
                                      const Mesh* mesh = nullptr);

/** Verifies a module; returns a list of diagnostics (empty when valid). */
std::vector<std::string> Verify(const Module& module,
                                const Mesh* mesh = nullptr);

/** Verifies a single function — the inter-pass hook of the pass manager,
 *  which verifies the traced function between pre-lowering passes without
 *  touching the rest of its module. */
std::vector<std::string> Verify(const Func& func, const Mesh* mesh = nullptr);

/** Verifies and aborts with diagnostics on failure (for tests/pipelines). */
void VerifyOrDie(const Module& module);

}  // namespace partir

#endif  // PARTIR_IR_VERIFIER_H_
