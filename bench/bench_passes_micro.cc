// Micro-benchmarks (google-benchmark) for the compiler passes themselves:
// propagation, SPMD lowering and the collective optimization (OptimizeSpmd
// and its rewrite families in isolation) on generated matmul chains of increasing length, plus the end-to-end
// Program::Partition facade pipeline those passes compose into. After the
// benchmarks, one pipeline run's per-pass timings are emitted as JSON from
// Executable::pipeline_stats() (bench_util.h's JsonWriter).
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

#include "src/core/context.h"
#include "src/ir/builder.h"
#include "src/spmd/lowering.h"
#include "src/spmd/optimize.h"

namespace partir {
namespace {

// Builds a chain of `layers` matmul+tanh blocks, 64x64 weights.
std::unique_ptr<Module> BuildChain(int64_t layers, Func** out_func,
                                   Value** out_x) {
  auto module = std::make_unique<Module>();
  Func* func = module->AddFunc("main");
  Value* x = func->body().AddArg(TensorType({64, 64}), "x");
  std::vector<Value*> weights;
  for (int64_t i = 0; i < layers; ++i) {
    weights.push_back(
        func->body().AddArg(TensorType({64, 64}), StrCat("w", i)));
  }
  OpBuilder builder(&func->body());
  Value* h = x;
  for (int64_t i = 0; i < layers; ++i) {
    h = builder.Tanh(builder.MatMul(h, weights[i]));
  }
  builder.Return({h});
  *out_func = func;
  *out_x = x;
  return module;
}

void BM_Propagation(benchmark::State& state) {
  int64_t layers = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    Func* func;
    Value* x;
    auto module = BuildChain(layers, &func, &x);
    PartitionContext ctx(func, Mesh({{"B", 4}}));
    ctx.TileValue(x, 0, "B");
    state.ResumeTiming();
    ctx.Propagate();
    benchmark::DoNotOptimize(ctx.conflicts().size());
  }
  state.SetItemsProcessed(state.iterations() * layers * 2);
}
BENCHMARK(BM_Propagation)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_SpmdLowering(benchmark::State& state) {
  int64_t layers = state.range(0);
  Func* func;
  Value* x;
  auto module = BuildChain(layers, &func, &x);
  PartitionContext ctx(func, Mesh({{"B", 4}}));
  ctx.TileValue(x, 0, "B");
  ctx.Propagate();
  for (auto _ : state) {
    SpmdModule spmd = LowerToSpmd(ctx);
    benchmark::DoNotOptimize(spmd.main()->body().num_ops());
  }
  state.SetItemsProcessed(state.iterations() * layers * 2);
}
BENCHMARK(BM_SpmdLowering)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_OptimizeSpmd(benchmark::State& state) {
  int64_t layers = state.range(0);
  Func* func;
  Value* x;
  auto module = BuildChain(layers, &func, &x);
  PartitionContext ctx(func, Mesh({{"B", 4}}));
  ctx.TileValue(x, 0, "B");
  ctx.Propagate();
  for (auto _ : state) {
    SpmdModule spmd = LowerToSpmd(ctx);
    OptimizeSpmd(spmd);
    benchmark::DoNotOptimize(spmd.main()->body().num_ops());
  }
  state.SetItemsProcessed(state.iterations() * layers * 2);
}
BENCHMARK(BM_OptimizeSpmd)->Arg(16)->Arg(64)->Arg(256);

// OptimizeSpmd restricted to each rewrite family it combines (gather/slice
// fusion, reduce-scatter formation), and with no family at all (the
// incremental DCE alone). The per-iteration lowering that produces each
// fresh input module is excluded from the measurement.
void BM_Family(benchmark::State& state, unsigned mask) {
  int64_t layers = state.range(0);
  Func* func;
  Value* x;
  auto module = BuildChain(layers, &func, &x);
  PartitionContext ctx(func, Mesh({{"B", 4}}));
  ctx.TileValue(x, 0, "B");
  ctx.Propagate();
  for (auto _ : state) {
    state.PauseTiming();
    SpmdModule spmd = LowerToSpmd(ctx);
    state.ResumeTiming();
    OptimizeSpmd(spmd, mask);
    benchmark::DoNotOptimize(spmd.main()->body().num_ops());
  }
  state.SetItemsProcessed(state.iterations() * layers * 2);
}
void BM_GatherSliceOnly(benchmark::State& state) {
  BM_Family(state, kRewriteGatherSlice);
}
void BM_ReduceScatterOnly(benchmark::State& state) {
  BM_Family(state, kRewriteReduceScatter | kRewriteReduceScatterPartial);
}
void BM_DceOnly(benchmark::State& state) { BM_Family(state, 0); }
BENCHMARK(BM_GatherSliceOnly)->Arg(64)->Arg(256);
BENCHMARK(BM_ReduceScatterOnly)->Arg(64)->Arg(256);
BENCHMARK(BM_DceOnly)->Arg(64)->Arg(256);

// The whole facade pipeline (actions -> propagation -> lowering ->
// collective optimization) through one Program::Partition call. The
// partition cache is disabled so every iteration measures the pipeline
// itself, not the memoized hit path (bench_run_throughput covers that).
void BM_FacadePartition(benchmark::State& state) {
  int64_t layers = state.range(0);
  Program program("main");
  Value* x = program.AddInput(TensorType({64, 64}), "x");
  std::vector<Value*> weights;
  for (int64_t i = 0; i < layers; ++i) {
    weights.push_back(
        program.AddInput(TensorType({64, 64}), StrCat("w", i)));
  }
  Value* h = x;
  for (int64_t i = 0; i < layers; ++i) {
    h = program.builder().Tanh(program.builder().MatMul(h, weights[i]));
  }
  program.Return({h});
  ManualPartition bp{"BP", {{"x", 0}}, "B"};
  PartitionOptions options;
  options.per_tactic_reports = false;
  options.capture_stages = false;
  options.use_cache = false;
  for (auto _ : state) {
    StatusOr<Executable> exe =
        program.Partition({Tactic(bp)}, Mesh({{"B", 4}}), options);
    benchmark::DoNotOptimize(exe.ok());
  }
  state.SetItemsProcessed(state.iterations() * layers * 2);
}
BENCHMARK(BM_FacadePartition)->Arg(16)->Arg(64)->Arg(256);

// One facade pipeline run on the 64-layer chain, per-pass timings emitted
// as JSON from pipeline_stats() — the machine-readable per-pass breakdown
// the whole-pipeline timers above cannot provide.
void EmitPerPassJson() {
  Program program("main");
  Value* x = program.AddInput(TensorType({64, 64}), "x");
  std::vector<Value*> weights;
  for (int64_t i = 0; i < 64; ++i) {
    weights.push_back(program.AddInput(TensorType({64, 64}), StrCat("w", i)));
  }
  Value* h = x;
  for (Value* w : weights) {
    h = program.builder().Tanh(program.builder().MatMul(h, w));
  }
  program.Return({h});
  PartitionOptions options;
  options.per_tactic_reports = false;
  options.use_cache = false;
  StatusOr<Executable> exe = program.Partition(
      {Tactic(ManualPartition{"BP", {{"x", 0}}, "B"})}, Mesh({{"B", 4}}),
      options);
  if (!exe.ok()) PARTIR_FATAL() << exe.status().ToString();
  bench::PrintPipelineStatsJson("passes_micro_per_pass", "chain64",
                                exe->pipeline_stats());
}

}  // namespace
}  // namespace partir

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  partir::EmitPerPassJson();
  return 0;
}
