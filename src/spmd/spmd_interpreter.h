/**
 * @file
 * Multi-device SPMD runtime: executes the device-local program on every
 * device of the mesh with real collective semantics (slice / gather /
 * reduce / reduce-scatter / all-to-all across mesh-axis replica groups).
 *
 * There is one runtime, the compiled executor (src/exec/executor.h). It
 * runs a DeviceProgram either sequentially (RunOptions::num_threads == 1:
 * each instruction on every device in turn, collectives one replica group
 * at a time) or with one thread per simulated device meeting at
 * rendezvous collectives (src/spmd/rendezvous.h) that fold each group in
 * deterministic position order.
 *
 * RunOptions::backend only picks which program runs. The *reference
 * program* (ExecBackend::kInterpret) is compiled with every optimization
 * off: one instruction per op, one fresh arena slot per SSA value, and
 * every local op evaluated by the interpreter's EvalOpRef. It is the
 * executable form of the paper's Appendix C theorem (partitioned program +
 * collectives == unpartitioned program). The *optimized program*
 * (ExecBackend::kCompiled) adds slot reuse, in-place updates, fused
 * elementwise chains and a blocked dot. The two are bit-identical, so the
 * planner's and the kernel tier's decisions are the only thing a
 * reference-versus-optimized comparison tests.
 */
#ifndef PARTIR_SPMD_SPMD_INTERPRETER_H_
#define PARTIR_SPMD_SPMD_INTERPRETER_H_

#include <vector>

#include "src/interp/tensor.h"
#include "src/spmd/lowering.h"
#include "src/support/status.h"

namespace partir {

namespace exec {
class WorkerPool;
}  // namespace exec

/** Per-device tensors, indexed by linear device id. */
using PerDevice = std::vector<Tensor>;

/** Per-Run statistics, filled when RunOptions::stats is set. */
struct RunStats {
  /**
   * Fresh tensor-buffer constructions performed by this Run, counted on the
   * calling thread and every device thread it drives. Unlike the process-
   * wide Tensor::allocations() counter, concurrent Runs do not bleed into
   * each other's counts.
   */
  int64_t allocations = 0;
};

/** Which compiled device program the runtime executes. */
enum class ExecBackend {
  /**
   * The reference program, compiled fresh on every Run with every
   * optimization off: one instruction per op, one arena slot per SSA
   * value, no operand moved out of the arena, and every local op
   * (including loop-body ops) evaluated by the interpreter's EvalOpRef.
   */
  kInterpret,
  /**
   * The optimized program (src/exec/device_program.h): liveness slot
   * reuse, in-place elementwise updates, fused elementwise chains and a
   * blocked rank-2 dot. Bit-identical outputs to kInterpret.
   */
  kCompiled,
};

/** Options controlling multi-device execution. */
struct RunOptions {
  /**
   * Worker threads executing device programs. 0 (default) runs one thread
   * per simulated device; 1 runs every device in turn on the calling
   * thread; any other value caps how many device threads run concurrently
   * (a thread waiting at a collective rendezvous releases its slot, so any
   * positive cap is deadlock-free). Values above the device count are
   * clamped.
   */
  int num_threads = 0;
  /**
   * When true (default), collective reductions fold in group-position
   * order: outputs are bit-identical to the sequential mode and across
   * repeated runs. When false, all_reduce / reduce_scatter fold in thread
   * arrival order — correct within float tolerance, not bit-stable.
   */
  bool deterministic = true;
  /**
   * Program to execute. kCompiled (default) runs the module's precompiled
   * optimized DeviceProgram, compiling one ad hoc when the module carries
   * none; kInterpret compiles and runs the reference program. Both go
   * through the same runtime, so num_threads, deterministic, pool and
   * stats mean the same thing for either.
   */
  ExecBackend backend = ExecBackend::kCompiled;
  /**
   * Persistent device worker pool (exec/worker_pool.h). When non-null,
   * `use_pool` is true, and the pool has at least one worker per device,
   * the threaded runtime dispatches device bodies onto the pool's resident
   * threads instead of spawning a fresh std::thread per device per Run.
   * If the pool is busy (another Run holds its submit lease), execution
   * falls back to spawning, so concurrent Runs stay correct.
   */
  exec::WorkerPool* pool = nullptr;
  bool use_pool = true;
  /** When non-null, filled with this Run's statistics. */
  RunStats* stats = nullptr;
};

/** Slices a global tensor into per-device shards per the sharding. */
PerDevice ShardTensor(const Tensor& global, const ValueSharding& sharding,
                      const Mesh& mesh);

/**
 * Reassembles a global tensor from per-device shards. Devices holding the
 * same shard must agree (replica consistency); a disagreement, e.g. an
 * output declared replicated that the devices compute differently, is an
 * InternalError naming the device.
 */
StatusOr<Tensor> UnshardTensor(const PerDevice& shards,
                               const ValueSharding& sharding,
                               const Mesh& mesh);

/**
 * Runs the SPMD program on all devices. `inputs[i]` are the *global* input
 * tensors; they are sharded per the module's input shardings. Returns the
 * *global* outputs, reassembled per the output shardings. Input arity and
 * shape mismatches (including unshardable global dims) are typed errors,
 * reported before any device thread starts; replica mismatches in the
 * outputs are typed errors too.
 */
StatusOr<std::vector<Tensor>> RunSpmd(const SpmdModule& spmd,
                                      const std::vector<Tensor>& global_inputs,
                                      const RunOptions& options = {});

}  // namespace partir

#endif  // PARTIR_SPMD_SPMD_INTERPRETER_H_
