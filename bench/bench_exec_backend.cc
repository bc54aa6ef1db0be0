// Reference vs optimized program on the serving model zoo.
//
// Both backends run through the one SPMD runtime (src/exec/executor.h):
// kInterpret compiles and runs the reference program (one instruction per
// op, one fresh arena slot per SSA value, every local op through the
// interpreter's EvalOpRef) on every Run; kCompiled runs the precompiled
// optimized program (slot reuse, in-place updates, fused elementwise
// chains, blocked dot). For each of the five serving workloads (captured
// at batch 8, the serving bench's max_batch) and each thread count, this
// times Executable::Run under both backends (mean wall clock over a fixed
// window with the sides alternated Run by Run),
// counts fresh tensor allocations per Run (RunStats — exact even under
// concurrency, unlike deltas of the process-wide counter), and reports the
// memory planner's per-device peak arena bytes next to the
// fresh-tensor-per-op baseline. Threaded rows also time the optimized
// program with the persistent worker pool disabled (use_pool = false, one
// spawned thread per device per Run) so the pool's contribution is its own
// column. Output is one JSON object on stdout.
//
// With --enforce-floor, exits non-zero unless the optimized program is at
// least kSpeedupFloor x faster than the reference program on matmul_chain
// sequentially — the CI regression gate for the optimizations.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "bench/bench_util.h"
#include "src/models/serving.h"
#include "src/spmd/spmd_interpreter.h"

namespace partir {
namespace {

using bench::JsonWriter;
using serving::AllServeWorkloads;
using serving::ServeWorkload;
using Clock = std::chrono::steady_clock;

// CI floor: the optimized program must beat the reference program by this
// factor on the matmul_chain workload (sequential mode, which is noise-free in CI).
// Raised from 1.5 when the kernel tier (fused elementwise chains + blocked
// dot) landed.
constexpr double kSpeedupFloor = 2.5;
constexpr int64_t kBenchBatch = 8;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Each side of a comparison runs for at least this much wall clock. A
// matmul_chain Run takes 0.1-0.4 ms, so a best-of-few sample is one lucky
// or unlucky call; a window averages hundreds of them.
constexpr double kWindowMs = 100;

struct Sample {
  double ms = 0;            // mean Run wall clock over the window
  int64_t allocations = 0;  // fresh tensor buffers over one Run
};

// Times every option set in `sides` over a kWindowMs window. The sides
// alternate Run by Run until each has spent the window, so a background
// hiccup lands on all of them alike instead of on one side's samples.
std::vector<Sample> MeasureAlternating(const Executable& exe,
                                       const std::vector<Tensor>& inputs,
                                       const std::vector<RunOptions>& sides) {
  std::vector<Sample> samples(sides.size());
  std::vector<RunStats> stats(sides.size());
  std::vector<double> total_ms(sides.size(), 0);
  int64_t runs = 0;
  auto window_done = [&] {
    return std::all_of(total_ms.begin(), total_ms.end(),
                       [](double ms) { return ms >= kWindowMs; });
  };
  while (!window_done()) {
    for (size_t s = 0; s < sides.size(); ++s) {
      RunOptions options = sides[s];
      options.stats = &stats[s];
      auto start = Clock::now();
      StatusOr<std::vector<Tensor>> out = exe.Run(inputs, options);
      total_ms[s] += MsSince(start);
      if (!out.ok()) PARTIR_FATAL() << out.status().ToString();
    }
    ++runs;
  }
  for (size_t s = 0; s < sides.size(); ++s) {
    samples[s].ms = total_ms[s] / static_cast<double>(runs);
    samples[s].allocations = stats[s].allocations;
  }
  return samples;
}

Executable PartitionOrFallback(Program& program, const ServeWorkload& w) {
  StatusOr<Executable> exe = program.Partition(w.schedule, w.mesh);
  if (!exe.ok()) exe = program.Partition({}, w.mesh);
  if (!exe.ok()) PARTIR_FATAL() << exe.status().ToString();
  return std::move(exe).value();
}

}  // namespace
}  // namespace partir

int main(int argc, char** argv) {
  using namespace partir;
  using bench::JsonWriter;

  bool enforce_floor = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--enforce-floor") == 0) enforce_floor = true;
  }

  JsonWriter json;
  json.BeginObject();
  json.Key("bench").Value("exec_backend");
  json.Key("batch").Value(kBenchBatch);
  json.Key("host_threads")
      .Value(static_cast<int64_t>(std::thread::hardware_concurrency()));
  json.Key("workloads").BeginArray();

  double chain_sequential_speedup = 0;
  for (const ServeWorkload& workload : AllServeWorkloads()) {
    Program program = Program::Capture(workload.build, kBenchBatch);
    Executable exe = PartitionOrFallback(program, workload);
    std::vector<Tensor> inputs =
        program.RandomInputs(2026, workload.index_modulus);
    exec::MemoryStats stats = exe.memory_stats().value();

    json.BeginObject();
    json.Key("name").Value(workload.name);
    json.Key("devices").Value(stats.num_devices);
    json.Key("values").Value(stats.values);
    json.Key("arena_slots").Value(stats.slots);
    json.Key("peak_arena_bytes_per_device").Value(stats.peak_arena_bytes);
    json.Key("peak_live_bytes_per_device").Value(stats.peak_live_bytes);
    json.Key("unplanned_bytes_per_device").Value(stats.unplanned_bytes);
    json.Key("slots_reused").Value(stats.slots_reused);
    json.Key("in_place_ops").Value(stats.in_place_ops);
    json.Key("fused_chains").Value(stats.fused_chains);
    json.Key("fused_instructions").Value(stats.fused_instructions);
    json.Key("runs").BeginArray();
    for (int threads : {1, 2, 0}) {
      RunOptions compiled;
      compiled.num_threads = threads;
      RunOptions interpret = compiled;
      interpret.backend = ExecBackend::kInterpret;
      // Pool off (threaded rows): every Run spawns one thread per device,
      // the pre-pool behavior, timed in the same window so the pool's
      // contribution is its own column.
      RunOptions spawn = compiled;
      spawn.use_pool = false;
      std::vector<RunOptions> sides = {interpret, compiled};
      if (threads != 1) sides.push_back(spawn);
      // Warm every side (the first compiled Run sizes the arenas).
      for (const RunOptions& side : sides) {
        if (!exe.Run(inputs, side).ok()) PARTIR_FATAL() << "warm-up Run";
      }
      std::vector<Sample> samples = MeasureAlternating(exe, inputs, sides);
      const Sample& i_sample = samples[0];
      const Sample& c_sample = samples[1];
      double speedup = i_sample.ms / c_sample.ms;
      if (workload.name == "matmul_chain" && threads == 1) {
        chain_sequential_speedup = speedup;
      }
      json.BeginObject();
      json.Key("threads")
          .Value(threads == 0 ? stats.num_devices
                              : static_cast<int64_t>(threads));
      json.Key("interpret_ms").Value(i_sample.ms);
      json.Key("compiled_ms").Value(c_sample.ms);
      json.Key("compiled_speedup").Value(speedup);
      json.Key("interpret_allocations").Value(i_sample.allocations);
      json.Key("compiled_allocations").Value(c_sample.allocations);
      if (threads != 1) {
        json.Key("compiled_spawn_ms").Value(samples[2].ms);
        json.Key("pool_speedup").Value(samples[2].ms / c_sample.ms);
      }
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.Key("floor").Value(kSpeedupFloor);
  json.Key("floor_workload").Value("matmul_chain");
  json.Key("floor_speedup").Value(chain_sequential_speedup);
  json.Key("floor_ok").Value(chain_sequential_speedup >= kSpeedupFloor);
  json.EndObject();
  std::printf("%s\n", json.str().c_str());

  if (enforce_floor && chain_sequential_speedup < kSpeedupFloor) {
    std::fprintf(stderr,
                 "FAIL: optimized program %.2fx vs reference program on "
                 "matmul_chain (floor %.2fx)\n",
                 chain_sequential_speedup, kSpeedupFloor);
    return 1;
  }
  return 0;
}
