/**
 * @file
 * The per-op-kind rules of the IR, in one place: for every op kind, its
 * operand count and types, every attribute's presence, variant type and
 * range, its region shape, where it may sit, and the result types these
 * determine.
 *
 * Everything that asks "is this op well formed, and what does it produce?"
 * asks here: OpBuilder takes its result types from InferResultTypes, the
 * verifier compares every op's declared types against it, the analysis
 * lint and shape checker report its violations, and the deserializers
 * reject artifacts that break it.
 */
#ifndef PARTIR_IR_OP_RULES_H_
#define PARTIR_IR_OP_RULES_H_

#include <string>
#include <vector>

#include "src/ir/ir.h"
#include "src/mesh/mesh.h"
#include "src/support/status.h"

namespace partir {

/**
 * Infers the result types of `op` from its operands, attributes and
 * regions, or returns a typed Status whose message names the op and the
 * broken rule:
 *  - kInvalidArgument: the op is malformed — wrong operand count or kind,
 *    a missing, mistyped or out-of-range attribute, a bad region, an
 *    unknown or repeated mesh axis;
 *  - kFailedPrecondition: the op is well formed, but its operand shapes do
 *    not fit the rule (disagreeing dims, indivisible sizes, wrong dtype).
 *
 * Reshape, broadcast_in_dim, constant, iota and the conv gradients take
 * their result from the declared type and validate it; so does a
 * static_slice dim taken in full and tiled after the slice was built.
 * Collective axes are resolved against `mesh` when one is given; without
 * one, the dims that depend on axis sizes are taken from the declared
 * type. Never aborts and never indexes out of bounds, whatever the
 * attribute values.
 */
StatusOr<std::vector<Type>> InferResultTypes(const Operation& op,
                                             const Mesh* mesh);

/**
 * Checks where `op` sits: returns end their function body, yields end a
 * loop body, slices sit inside loops and collectives outside them.
 * kInvalidArgument naming the op when misplaced.
 */
Status CheckPlacement(const Operation& op, bool in_loop, bool is_terminator);

/** How rule violations name an op, e.g. "transpose '%t'". */
std::string OpLabel(const Operation& op);

}  // namespace partir

#endif  // PARTIR_IR_OP_RULES_H_
