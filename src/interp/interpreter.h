/**
 * @file
 * Reference interpreter for the array IR and PartIR:Core. Loops execute with
 * the paper's *sequential* semantics (Figure 13): a #tile loop concatenates
 * per-iteration results along the tiled dim, a #sum loop accumulates them,
 * and an [any] loop evaluates a single iteration. Evaluate is the
 * executable specification against which partitioned programs are
 * verified; EvalOpRef is the per-op kernel set the SPMD runtime's
 * reference program (and the optimized program's generic kernel) calls.
 */
#ifndef PARTIR_INTERP_INTERPRETER_H_
#define PARTIR_INTERP_INTERPRETER_H_

#include <vector>

#include "src/interp/tensor.h"
#include "src/ir/ir.h"

namespace partir {

/** Evaluates a single operation given its operand tensors. */
std::vector<Tensor> EvalOp(const Operation& op,
                           const std::vector<Tensor>& operands);

/**
 * EvalOp over operand pointers: the same kernels without copying operand
 * tensors into the call — the SPMD runtime's generic kernel. A PartIR:Core
 * slice takes the loop's range value (a scalar tensor) as operand 1.
 */
std::vector<Tensor> EvalOpRef(const Operation& op,
                              const std::vector<const Tensor*>& operands);

/**
 * Scalar kernels of the unary / binary elementwise ops. Shared by EvalOpRef
 * and the optimized program's elementwise kernels so the reference and the
 * optimized program stay bit-identical by construction.
 */
float ApplyUnaryOp(OpKind kind, float x);
float ApplyBinaryOp(OpKind kind, float a, float b);

/**
 * Evaluates `func` on the given positional inputs, returning the values of
 * its return op. Handles array ops and PartIR:Core loop/slice ops; SPMD
 * collectives are rejected (use RunSpmd).
 */
std::vector<Tensor> Evaluate(const Func& func,
                             const std::vector<Tensor>& inputs);

/** Builds deterministic random inputs matching a function's signature. */
std::vector<Tensor> MakeRandomInputs(const Func& func, uint64_t seed,
                                     float index_modulus = 0.0f);

}  // namespace partir

#endif  // PARTIR_INTERP_INTERPRETER_H_
