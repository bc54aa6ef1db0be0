#include "src/spmd/spmd_interpreter.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "src/exec/device_program.h"
#include "src/exec/executor.h"

namespace partir {
namespace {

/**
 * Typed validation of a Run request: arity, shardability of every global
 * input, and agreement of the sharded shape with the device-local argument
 * type. Runs before any device thread starts, so all user-facing failure
 * modes surface as Status instead of mid-execution aborts.
 */
Status ValidateSpmdInputs(const SpmdModule& spmd,
                          const std::vector<Tensor>& global_inputs) {
  const Func& func = *spmd.main();
  int expected = func.body().num_args();
  if (static_cast<int>(global_inputs.size()) != expected) {
    return InvalidArgumentError("SPMD program '", func.name(), "' expects ",
                                expected, " inputs, got ",
                                global_inputs.size());
  }
  if (static_cast<int>(spmd.input_shardings.size()) != expected) {
    return InternalError("SPMD module has ", spmd.input_shardings.size(),
                         " input shardings for ", expected, " arguments");
  }
  for (int i = 0; i < expected; ++i) {
    const Value* arg = func.body().arg(i);
    const ValueSharding& sharding = spmd.input_shardings[i];
    std::vector<int64_t> local = global_inputs[i].dims();
    if (local.size() < sharding.axes.size()) {
      return InvalidArgumentError(
          "input ", i, " ('", arg->name(), "') has rank ", local.size(),
          " but its sharding names ", sharding.axes.size(), " dims");
    }
    for (size_t dim = 0; dim < sharding.axes.size(); ++dim) {
      for (const std::string& axis : sharding.axes[dim]) {
        int64_t size = spmd.mesh.AxisSize(axis);
        if (local[dim] % size != 0) {
          return InvalidArgumentError(
              "input ", i, " ('", arg->name(), "') dim ", dim, " of size ",
              local[dim], " is not divisible by mesh axis '", axis,
              "' of size ", size);
        }
        local[dim] /= size;
      }
    }
    if (local != arg->tensor_type().dims()) {
      return InvalidArgumentError(
          "input ", i, " ('", arg->name(), "') shards to shape [",
          StrJoin(local, ","), "], but the device-local program expects [",
          StrJoin(arg->tensor_type().dims(), ","), "]; global shape was [",
          StrJoin(global_inputs[i].dims(), ","), "]");
    }
  }
  return Status::Ok();
}

}  // namespace

PerDevice ShardTensor(const Tensor& global, const ValueSharding& sharding,
                      const Mesh& mesh) {
  int64_t num_devices = mesh.NumDevices();
  PerDevice shards(num_devices);
  for (int64_t d = 0; d < num_devices; ++d) {
    Tensor local = global;
    std::vector<int64_t> coords = mesh.Coordinates(d);
    for (size_t dim = 0; dim < sharding.axes.size(); ++dim) {
      for (const std::string& axis : sharding.axes[dim]) {
        local = local.SliceChunk(static_cast<int64_t>(dim),
                                 coords[mesh.AxisIndex(axis)],
                                 mesh.AxisSize(axis));
      }
    }
    shards[d] = std::move(local);
  }
  return shards;
}

StatusOr<Tensor> UnshardTensor(const PerDevice& shards,
                               const ValueSharding& sharding,
                               const Mesh& mesh) {
  // Reconstruct the global tensor by walking every device's shard into its
  // global offset; devices holding the same chunk (replicas) must agree.
  std::vector<int64_t> global_dims = shards[0].dims();
  for (size_t dim = 0; dim < sharding.axes.size(); ++dim) {
    for (const std::string& axis : sharding.axes[dim]) {
      global_dims[dim] *= mesh.AxisSize(axis);
    }
  }
  Tensor global(global_dims);
  Tensor written(global_dims, -1.0f);  // -1 = unwritten sentinel
  const std::vector<int64_t>& local_dims = shards[0].dims();
  for (int64_t d = 0; d < mesh.NumDevices(); ++d) {
    std::vector<int64_t> coords = mesh.Coordinates(d);
    // Offset of this device's shard in the global tensor (first listed
    // axis outermost, matching all_slice's successive chunking).
    std::vector<int64_t> offsets(global_dims.size(), 0);
    for (size_t dim = 0; dim < sharding.axes.size(); ++dim) {
      int64_t chunk = 0;
      for (const std::string& axis : sharding.axes[dim]) {
        chunk = chunk * mesh.AxisSize(axis) + coords[mesh.AxisIndex(axis)];
      }
      offsets[dim] = chunk * local_dims[dim];
    }
    Status mismatch = Status::Ok();
    ForEachIndex(local_dims, [&](const std::vector<int64_t>& index) {
      if (!mismatch.ok()) return;
      std::vector<int64_t> gindex = index;
      for (size_t i = 0; i < gindex.size(); ++i) gindex[i] += offsets[i];
      float value = shards[d].Get(index);
      if (written.Get(gindex) >= 0.0f) {
        float existing = global.Get(gindex);
        float tolerance =
            1e-3f * std::max(1.0f, std::max(std::abs(existing),
                                            std::abs(value)));
        bool both_nan = std::isnan(existing) && std::isnan(value);
        if (!both_nan && !(std::abs(existing - value) <= tolerance)) {
          mismatch = InternalError("replica mismatch at device ", d, ": ",
                                   existing, " vs ", value);
          return;
        }
      }
      global.Set(gindex, value);
      written.Set(gindex, 1.0f);
    });
    PARTIR_RETURN_IF_ERROR(mismatch);
  }
  return global;
}

StatusOr<std::vector<Tensor>> RunSpmd(const SpmdModule& spmd,
                                      const std::vector<Tensor>& global_inputs,
                                      const RunOptions& options) {
  PARTIR_RETURN_IF_ERROR(ValidateSpmdInputs(spmd, global_inputs));
  // The optimized program is normally compiled once by the
  // compile-device-programs pipeline pass; hand-built (or mutated) modules
  // compile one here per Run. The reference program is always fresh.
  std::shared_ptr<const exec::DeviceProgram> program;
  if (options.backend == ExecBackend::kCompiled) program = spmd.exec_program;
  if (program == nullptr) {
    PARTIR_ASSIGN_OR_RETURN(
        program, exec::CompileDeviceProgram(spmd, options.backend));
  }
  return exec::ExecuteCompiled(spmd, *program, global_inputs, options);
}

}  // namespace partir
