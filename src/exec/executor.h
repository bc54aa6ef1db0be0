/**
 * @file
 * The SPMD runtime: executes a compiled DeviceProgram over the mesh with
 * slot-indexed arenas, in one of two modes — sequential (each instruction
 * on every device in turn) or one thread per device meeting at rendezvous
 * collectives (src/spmd/rendezvous.h), on the executable's worker pool
 * when it has one.
 *
 * Both the reference and the optimized program (device_program.h) run
 * here, so sharding, throttling, dispatch and unsharding exist once. Their
 * outputs are bit-identical: the optimized elementwise kernels share the
 * interpreter's scalar functions, the blocked rank-2 dot accumulates in
 * double over the same index order, every other op goes through the
 * interpreter's own EvalOpRef, and collectives fold in group position
 * order.
 */
#ifndef PARTIR_EXEC_EXECUTOR_H_
#define PARTIR_EXEC_EXECUTOR_H_

#include <vector>

#include "src/exec/device_program.h"
#include "src/interp/tensor.h"
#include "src/spmd/spmd_interpreter.h"
#include "src/support/status.h"

namespace partir {
namespace exec {

/**
 * Runs `program` on every device of `spmd.mesh`. `global_inputs` are
 * global tensors (sharded per the module's input shardings; must already
 * be validated); returns global outputs reassembled per the output
 * shardings; a replica mismatch in an output is an InternalError. Honors
 * RunOptions::num_threads, deterministic, pool and stats.
 */
StatusOr<std::vector<Tensor>> ExecuteCompiled(
    const SpmdModule& spmd, const DeviceProgram& program,
    const std::vector<Tensor>& global_inputs, const RunOptions& options);

}  // namespace exec
}  // namespace partir

#endif  // PARTIR_EXEC_EXECUTOR_H_
