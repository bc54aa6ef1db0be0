// Differential tests for the optimized device program: every example and
// serving workload runs the optimized program (RunOptions::backend =
// kCompiled, the default) and must be bit-identical (memcmp) to the
// reference program (kInterpret: no slot reuse, no in-place updates, no
// fused kernels), sequentially and threaded. Also covers memory_stats(),
// ad-hoc compilation after module mutation, cache-hit clones, a batcher
// smoke, and a seeded random-program differential test. This suite runs
// under the ThreadSanitizer CI job.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "src/api/partir.h"
#include "src/exec/device_program.h"
#include "src/exec/worker_pool.h"
#include "src/interp/interpreter.h"
#include "src/ir/builder.h"
#include "src/models/gns.h"
#include "src/models/schedules.h"
#include "src/models/serving.h"
#include "src/models/transformer.h"
#include "src/serve/batcher.h"
#include "tests/random_program.h"

namespace partir {
namespace {

using serving::AllServeWorkloads;
using serving::ServeWorkload;
using serving::WorkloadHarness;

void ExpectBitIdentical(const std::vector<Tensor>& a,
                        const std::vector<Tensor>& b,
                        const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].dims(), b[i].dims()) << label << " output " << i;
    EXPECT_EQ(std::memcmp(a[i].data().data(), b[i].data().data(),
                          a[i].data().size() * sizeof(float)),
              0)
        << label << " output " << i << " is not bit-identical";
  }
}

// Runs the reference and the optimized program in sequential,
// fully-threaded and capped-thread modes; asserts the optimized outputs are
// bit-identical to the reference's in every mode.
void ExpectBackendsAgree(const Executable& exe,
                         const std::vector<Tensor>& inputs,
                         const std::string& label) {
  for (int num_threads : {1, 0, 3}) {
    RunOptions compiled;
    compiled.num_threads = num_threads;
    RunOptions interpret = compiled;
    interpret.backend = ExecBackend::kInterpret;
    std::vector<Tensor> want = exe.Run(inputs, interpret).value();
    std::vector<Tensor> got = exe.Run(inputs, compiled).value();
    ExpectBitIdentical(want, got,
                       label + " (threads=" + std::to_string(num_threads) +
                           ")");
  }
}

Program BuildChainProgram(int64_t rows, int64_t inner, int64_t hidden) {
  Program program("chain");
  Value* x = program.AddInput(TensorType({rows, inner}), "x");
  Value* w1 = program.AddInput(TensorType({inner, hidden}), "w1");
  Value* w2 = program.AddInput(TensorType({hidden, inner}), "w2");
  OpBuilder& builder = program.builder();
  program.Return({builder.MatMul(builder.MatMul(x, w1), w2)});
  return program;
}

// ---- The example workloads, both backends bit-for-bit ----

TEST(ExecBackendTest, QuickstartChainBpMpZ3) {
  Program program("main");
  Value* x = program.AddInput(TensorType({256, 8}), "x");
  Value* w1 = program.AddInput(TensorType({8, 16}), "w1");
  Value* w2 = program.AddInput(TensorType({16, 8}), "w2");
  OpBuilder& builder = program.builder();
  program.Return({builder.MatMul(builder.MatMul(x, w1), w2)});
  Mesh mesh({{"B", 4}, {"M", 2}});
  Executable exe =
      program
          .Partition({ManualPartition{"BP", {{"x", 0}}, "B"},
                      ManualPartition{"MP", {{"w1", 1}}, "M"},
                      ManualPartition{"Z3", {{"w1", 0}, {"w2", 1}}, "B"}},
                     mesh)
          .value();
  ExpectBackendsAgree(exe, program.RandomInputs(1), "quickstart");
}

TransformerConfig SmallTransformer() {
  TransformerConfig config;
  config.num_layers = 1;
  config.d_model = 16;
  config.num_heads = 2;
  config.head_dim = 8;
  config.ffw_size = 32;
  config.vocab = 32;
  config.batch = 4;
  config.seq = 4;
  return config;
}

TEST(ExecBackendTest, TransformerTrainingBpMp) {
  TransformerConfig config = SmallTransformer();
  Program program = Program::Capture([&](Module& module) {
    return BuildTransformerTrainingStep(module, config);
  });
  Mesh mesh({{"batch", 2}, {"model", 2}});
  Executable exe =
      program
          .Partition({schedules::TransformerBP(), schedules::TransformerMP()},
                     mesh)
          .value();
  ExpectBackendsAgree(
      exe, program.RandomInputs(21, static_cast<float>(config.vocab)),
      "transformer training");
}

// Differential coverage for the boundary-aware realization of the
// standalone-EMB schedule (PartitionOptions::boundary_realization): the
// new lowering must be bit-identical between the reference and the
// optimized program in sequential, fully-threaded and capped-thread modes,
// and both the boundary-realized and the historical all-all_reduce
// lowerings must agree with the unpartitioned reference evaluation.
// Collective reductions re-associate float sums, so the reference
// comparison uses a tolerance; the backend/threading comparisons stay
// memcmp-strict.
TEST(ExecBackendTest, TransformerEmbBoundaryRealizationDifferential) {
  TransformerConfig config = SmallTransformer();
  Program program = Program::Capture([&](Module& module) {
    return BuildTransformerTrainingStep(module, config);
  });
  Mesh mesh({{"batch", 2}, {"model", 2}});
  std::vector<Tensor> inputs =
      program.RandomInputs(25, static_cast<float>(config.vocab));
  std::vector<Tensor> reference = program.Evaluate(inputs).value();

  PartitionOptions historical_options;
  historical_options.boundary_realization = false;
  struct Variant {
    const char* label;
    Executable exe;
  };
  Variant variants[] = {
      {"EMB boundary",
       program.Partition({schedules::TransformerEMB()}, mesh).value()},
      {"EMB historical",
       program
           .Partition({schedules::TransformerEMB()}, mesh,
                      historical_options)
           .value()},
      {"BP+MP+Z3+EMB boundary",
       program
           .Partition({schedules::TransformerBP(), schedules::TransformerMP(),
                       schedules::TransformerZ3(),
                       schedules::TransformerEMB()},
                      mesh)
           .value()},
  };
  constexpr float kTol = 5e-3f;
  for (Variant& variant : variants) {
    ExpectBackendsAgree(variant.exe, inputs, variant.label);
    for (int num_threads : {1, 0, 3}) {
      RunOptions options;
      options.num_threads = num_threads;
      std::vector<Tensor> got = variant.exe.Run(inputs, options).value();
      ASSERT_EQ(got.size(), reference.size()) << variant.label;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_LT(Tensor::MaxAbsDiff(reference[i], got[i]), kTol)
            << variant.label << " output " << i << " vs reference (threads="
            << num_threads << ")";
      }
    }
  }
}

TEST(ExecBackendTest, TransformerInferenceBp) {
  TransformerConfig config = SmallTransformer();
  Program program = Program::Capture([&](Module& module) {
    return BuildTransformerInference(module, config, /*decode_steps=*/2);
  });
  Mesh mesh({{"batch", 4}});
  Executable exe =
      program.Partition({schedules::InferenceBP()}, mesh).value();
  ExpectBackendsAgree(
      exe, program.RandomInputs(22, static_cast<float>(config.vocab)),
      "transformer inference");
}

TEST(ExecBackendTest, GnsEdgeSharding) {
  GnsConfig config;
  config.message_steps = 2;
  config.num_edges = 16;
  config.num_nodes = 8;
  Program program = Program::Capture(
      [&](Module& module) { return BuildGnsLoss(module, config); });
  Mesh mesh({{"batch", 4}});
  Executable exe = program.Partition({schedules::GnsES()}, mesh).value();
  ExpectBackendsAgree(
      exe, program.RandomInputs(23, static_cast<float>(config.num_nodes)),
      "gns edge sharding");
}

TEST(ExecBackendTest, AutomaticPartitioning) {
  Program program = BuildChainProgram(16, 8, 8);
  Mesh mesh({{"B", 4}});
  AutomaticPartition automatic;
  automatic.name = "auto";
  automatic.axes = {"B"};
  automatic.options.simulations = 16;
  Executable exe = program.Partition({automatic}, mesh).value();
  ExpectBackendsAgree(exe, program.RandomInputs(24), "automatic");
}

// ---- All five serving workloads ----

TEST(ExecBackendTest, ServingWorkloadsAgreeOnBothBackends) {
  for (const ServeWorkload& workload : AllServeWorkloads()) {
    SCOPED_TRACE(workload.name);
    for (int64_t batch : {1, 4}) {
      Program program = Program::Capture(workload.build, batch);
      StatusOr<Executable> exe =
          program.Partition(workload.schedule, workload.mesh);
      if (!exe.ok()) {
        // Batch sizes the schedule cannot shard serve unpartitioned (the
        // batcher's fallback); the optimized program must cover that too.
        exe = program.Partition({}, workload.mesh);
      }
      ASSERT_TRUE(exe.ok()) << exe.status().ToString();
      std::vector<Tensor> inputs =
          program.RandomInputs(31 + batch, workload.index_modulus);
      ExpectBackendsAgree(*exe, inputs,
                          workload.name + "@" + std::to_string(batch));
    }
  }
}

// ---- Memory stats ----

TEST(ExecBackendTest, MemoryStatsReportPlannedArena) {
  Program program = BuildChainProgram(16, 8, 8);
  Mesh mesh({{"B", 4}});
  Executable exe =
      program.Partition({ManualPartition{"BP", {{"x", 0}}, "B"}}, mesh)
          .value();
  exec::MemoryStats stats = exe.memory_stats().value();
  EXPECT_EQ(stats.num_devices, 4);
  EXPECT_GT(stats.values, 0);
  EXPECT_GT(stats.slots, 0);
  EXPECT_LE(stats.slots, stats.values);
  EXPECT_GT(stats.peak_arena_bytes, 0);
  EXPECT_LE(stats.peak_live_bytes, stats.peak_arena_bytes);
  // The arena never exceeds what per-op allocation would have used.
  EXPECT_LE(stats.peak_arena_bytes, stats.unplanned_bytes);
  EXPECT_EQ(stats.total_arena_bytes, stats.peak_arena_bytes * 4);
}

// ---- Invalidation, ad-hoc compilation, cache clones ----

TEST(ExecBackendTest, MutableAccessDropsProgramAndAdHocCompileStillAgrees) {
  Program program = BuildChainProgram(8, 8, 8);
  Mesh mesh({{"B", 4}});
  Executable exe =
      program.Partition({ManualPartition{"BP", {{"x", 0}}, "B"}}, mesh)
          .value();
  ASSERT_NE(exe.spmd().exec_program, nullptr)
      << "pipeline did not compile a device program";
  // A backend stand-in touches the module: the compiled program must drop
  // with the collective plan...
  exe.mutable_spmd();
  EXPECT_EQ(exe.spmd().exec_program, nullptr);
  // ...and the next Run recompiles ad hoc, still bit-identical.
  ExpectBackendsAgree(exe, program.RandomInputs(3), "after invalidation");
}

TEST(ExecBackendTest, CacheHitClonesShareTheCompiledProgram) {
  Program program = BuildChainProgram(8, 8, 8);
  Mesh mesh({{"B", 4}});
  std::vector<Tactic> schedule = {ManualPartition{"BP", {{"x", 0}}, "B"}};
  Executable first = program.Partition(schedule, mesh).value();
  // Same schedule again: a cache hit, deep-cloned. The compiled program is
  // immutable, so the clone shares it — present, identical to the
  // original's, and produced with ZERO additional compilations.
  int64_t compiles_before = exec::CompiledProgramCount();
  Executable second = first.Respecialize(schedule).value();
  EXPECT_EQ(exec::CompiledProgramCount(), compiles_before)
      << "a cache hit recompiled the device program";
  ASSERT_NE(second.spmd().exec_program, nullptr);
  EXPECT_EQ(second.spmd().exec_program.get(), first.spmd().exec_program.get())
      << "cache-hit clones should share one immutable program";
  std::vector<Tensor> inputs = program.RandomInputs(4);
  ExpectBackendsAgree(second, inputs, "cache-hit clone");
  ExpectBitIdentical(first.Run(inputs).value(), second.Run(inputs).value(),
                     "clone vs original");
  // Mutable access drops the shared program without touching the
  // original's, and the next Run still agrees bit-for-bit.
  second.mutable_spmd();
  EXPECT_EQ(second.spmd().exec_program, nullptr);
  ASSERT_NE(first.spmd().exec_program, nullptr);
  ExpectBackendsAgree(second, inputs, "mutated clone");
}

// ---- Kernel tier: fused elementwise chains ----

TEST(ExecBackendTest, ElementwiseChainsFuseAndStayBitIdentical) {
  Program program("elementwise");
  Value* x = program.AddInput(TensorType({32, 16}), "x");
  Value* y = program.AddInput(TensorType({32, 16}), "y");
  OpBuilder& builder = program.builder();
  // A long run of elementwise ops whose intermediates all die immediately:
  // unary, carried-lhs binary, carried-rhs binary, and both-carried forms.
  Value* a = builder.Add(x, y);
  Value* b = builder.Mul(a, a);
  Value* c = builder.Tanh(b);
  Value* d = builder.Sub(y, c);
  Value* e = builder.Max(d, x);
  program.Return({builder.Exp(e)});
  Mesh mesh({{"B", 4}});
  Executable exe =
      program.Partition({ManualPartition{"BP", {{"x", 0}, {"y", 0}}, "B"}},
                        mesh)
          .value();
  exec::MemoryStats stats = exe.memory_stats().value();
  EXPECT_GE(stats.fused_chains, 1) << "no elementwise chain was fused";
  EXPECT_GE(stats.fused_instructions, 2 * stats.fused_chains);
  ExpectBackendsAgree(exe, program.RandomInputs(41), "fused chain");
}

// ---- Compiled PartIR:Core loop regions ----

// A device-local module still carrying loop regions (tile with slices, a
// nested tile inside a sum, and an elementwise tail in a body) must compile
// and agree bit-for-bit with the reference program in every threading
// mode.
TEST(ExecBackendTest, LoopRegionModulesCompileAndAgree) {
  Mesh mesh({{"B", 2}});
  SpmdModule spmd;
  spmd.module = std::make_unique<Module>();
  spmd.mesh = mesh;
  Func* func = spmd.module->AddFunc("main");
  Value* xa = func->body().AddArg(TensorType({8, 4}), "x");
  Value* wa = func->body().AddArg(TensorType({4, 6}), "w");
  OpBuilder builder(&func->body());

  // tile loop: slice x along dim 0, matmul, elementwise tail in the body.
  Operation* tile = builder.Loop("T", 4, "tile", 0, TensorType({8, 6}));
  {
    Block& body = tile->region(0).block();
    OpBuilder inner(&body);
    Value* xs = inner.PSlice(xa, body.arg(0), 0);
    Value* h = inner.MatMul(xs, wa);
    inner.Yield(&body, {inner.Tanh(inner.Mul(h, h))});
  }

  // sum loop with a nested tile loop: exercises recursive compilation and
  // per-iteration slot reuse two regions deep.
  Operation* sum = builder.Loop("S", 2, "sum", -1, TensorType({8, 6}));
  {
    Block& sbody = sum->region(0).block();
    OpBuilder sinner(&sbody);
    Operation* nested = sinner.Loop("N", 2, "tile", 1, TensorType({8, 6}));
    Block& nbody = nested->region(0).block();
    OpBuilder ninner(&nbody);
    Value* part = ninner.PSlice(tile->result(), nbody.arg(0), 1);
    ninner.Yield(&nbody, {ninner.Exp(part)});
    sinner.Yield(&sbody, {sinner.Mul(nested->result(), nested->result())});
  }

  // any loop: evaluates a single iteration.
  Operation* any = builder.Loop("A", 2, "any", -1, TensorType({8, 6}));
  {
    Block& abody = any->region(0).block();
    OpBuilder ainner(&abody);
    ainner.Yield(&abody, {sum->result()});
  }
  builder.Return({tile->result(), any->result()});
  ValueSharding replicated{AxesPerDim{{}, {}}};
  spmd.input_shardings = {replicated, replicated};
  spmd.output_shardings = {replicated, replicated};

  // The whole point: this module compiles instead of erroring out.
  ASSERT_TRUE(exec::CompileDeviceProgram(spmd).ok());

  std::vector<Tensor> inputs = {Tensor::Random({8, 4}, 51),
                                Tensor::Random({4, 6}, 52)};
  RunOptions reference;
  reference.num_threads = 1;
  reference.backend = ExecBackend::kInterpret;
  std::vector<Tensor> want = RunSpmd(spmd, inputs, reference).value();
  // The unpartitioned interpreter's loop semantics agree too (the module
  // is fully replicated, so its device program is the whole program).
  ExpectBitIdentical(Evaluate(*spmd.main(), inputs), want,
                     "loop region vs Evaluate");
  for (int num_threads : {1, 0}) {
    RunOptions compiled;
    compiled.num_threads = num_threads;
    ExpectBitIdentical(RunSpmd(spmd, inputs, compiled).value(), want,
                       "loop region (threads=" +
                           std::to_string(num_threads) + ")");
  }
  // The threaded reference program runs the same loops per device.
  reference.num_threads = 0;
  ExpectBitIdentical(RunSpmd(spmd, inputs, reference).value(), want,
                     "loop region threaded reference");
}

// ---- Persistent worker pool ----

TEST(ExecBackendTest, PersistentPoolStopsSpawningThreadsAcrossRuns) {
  Program program = BuildChainProgram(16, 8, 8);
  Mesh mesh({{"B", 4}});
  Executable exe =
      program.Partition({ManualPartition{"BP", {{"x", 0}}, "B"}}, mesh)
          .value();
  std::vector<Tensor> inputs = program.RandomInputs(61);
  RunOptions sequential;
  sequential.num_threads = 1;
  std::vector<Tensor> want = exe.Run(inputs, sequential).value();

  // The first threaded Run creates the executable's pool...
  ExpectBitIdentical(exe.Run(inputs).value(), want, "first run");
  int64_t created = exec::WorkerPool::threads_created();
  // ...and 1000 back-to-back Runs reuse its resident workers: the
  // process-wide thread-creation count must not move.
  for (int r = 0; r < 1000; ++r) {
    ASSERT_TRUE(exe.Run(inputs).ok());
  }
  // The threaded reference program drives the same pool.
  RunOptions reference;
  reference.backend = ExecBackend::kInterpret;
  ExpectBitIdentical(exe.Run(inputs, reference).value(), want,
                     "reference run");
  EXPECT_EQ(exec::WorkerPool::threads_created(), created)
      << "pooled Runs spawned fresh pool threads";
  ExpectBitIdentical(exe.Run(inputs).value(), want, "last run");
}

TEST(ExecBackendTest, TwoExecutablesDriveIndependentPools) {
  Program program_a = BuildChainProgram(16, 8, 8);
  Program program_b = BuildChainProgram(8, 4, 4);
  Mesh mesh({{"B", 4}});
  Executable a =
      program_a.Partition({ManualPartition{"BP", {{"x", 0}}, "B"}}, mesh)
          .value();
  Executable b =
      program_b.Partition({ManualPartition{"BP", {{"x", 0}}, "B"}}, mesh)
          .value();
  std::vector<Tensor> inputs_a = program_a.RandomInputs(62);
  std::vector<Tensor> inputs_b = program_b.RandomInputs(63);
  RunOptions sequential;
  sequential.num_threads = 1;
  sequential.backend = ExecBackend::kInterpret;
  std::vector<Tensor> want_a = a.Run(inputs_a, sequential).value();
  std::vector<Tensor> want_b = b.Run(inputs_b, sequential).value();
  // Warm both pools, then interleave: neither executable's Runs may spawn.
  ASSERT_TRUE(a.Run(inputs_a).ok());
  ASSERT_TRUE(b.Run(inputs_b).ok());
  int64_t created = exec::WorkerPool::threads_created();
  for (int r = 0; r < 50; ++r) {
    ExpectBitIdentical(a.Run(inputs_a).value(), want_a, "a");
    ExpectBitIdentical(b.Run(inputs_b).value(), want_b, "b");
  }
  EXPECT_EQ(exec::WorkerPool::threads_created(), created);
}

TEST(ExecBackendTest, RespecializeWhilePoolIsLive) {
  Program program = BuildChainProgram(16, 8, 8);
  Mesh mesh({{"B", 4}, {"M", 2}});
  Executable first =
      program.Partition({ManualPartition{"BP", {{"x", 0}}, "B"}}, mesh)
          .value();
  std::vector<Tensor> inputs = program.RandomInputs(64);
  // Warm the first executable's pool, then respecialize while it is live:
  // the new executable gets its own pool and both keep running.
  ASSERT_TRUE(first.Run(inputs).ok());
  Executable second =
      first.Respecialize({ManualPartition{"MP", {{"w1", 1}}, "M"}}).value();
  RunOptions sequential;
  sequential.num_threads = 1;
  sequential.backend = ExecBackend::kInterpret;
  ExpectBitIdentical(second.Run(inputs).value(),
                     second.Run(inputs, sequential).value(),
                     "respecialized while pool live");
  ExpectBitIdentical(first.Run(inputs).value(),
                     first.Run(inputs, sequential).value(),
                     "original after respecialize");
}

TEST(ExecBackendTest, UsePoolFalseStillAgrees) {
  Program program = BuildChainProgram(16, 8, 8);
  Mesh mesh({{"B", 4}});
  Executable exe =
      program.Partition({ManualPartition{"BP", {{"x", 0}}, "B"}}, mesh)
          .value();
  std::vector<Tensor> inputs = program.RandomInputs(65);
  RunOptions pooled;
  RunOptions spawning = pooled;
  spawning.use_pool = false;
  ExpectBitIdentical(exe.Run(inputs, pooled).value(),
                     exe.Run(inputs, spawning).value(),
                     "pool vs spawn");
}

// ---- Per-run allocation statistics ----

TEST(ExecBackendTest, RunStatsCountAllocationsPerRun) {
  Program program = BuildChainProgram(16, 8, 8);
  Mesh mesh({{"B", 4}});
  Executable exe =
      program.Partition({ManualPartition{"BP", {{"x", 0}}, "B"}}, mesh)
          .value();
  std::vector<Tensor> inputs = program.RandomInputs(66);

  RunOptions compiled;
  RunStats stats;
  compiled.stats = &stats;
  ASSERT_TRUE(exe.Run(inputs, compiled).ok());
  EXPECT_GT(stats.allocations, 0);
  int64_t first_run = stats.allocations;
  // Identical Runs allocate identically: per-run counting is deterministic,
  // unlike deltas of the process-wide counter under concurrency.
  ASSERT_TRUE(exe.Run(inputs, compiled).ok());
  EXPECT_EQ(stats.allocations, first_run);
  // The executable reports its latest Run's count through memory_stats().
  exec::MemoryStats mem = exe.memory_stats().value();
  EXPECT_EQ(mem.last_run_allocations, first_run);

  // The reference program fills the same stats.
  RunOptions interpret;
  interpret.backend = ExecBackend::kInterpret;
  interpret.stats = &stats;
  ASSERT_TRUE(exe.Run(inputs, interpret).ok());
  EXPECT_GT(stats.allocations, 0);
}

// ---- Batcher smoke on the optimized program ----

TEST(ExecBackendTest, BatcherServesCompiledBackendBitIdentically) {
  ServeWorkload workload = serving::MatMulChainWorkload();
  WorkloadHarness harness(workload);
  Executable reference =
      harness.unit().Partition(workload.schedule, workload.mesh).value();
  RunOptions sequential;
  sequential.num_threads = 1;
  sequential.backend = ExecBackend::kInterpret;

  Program program = Program::Capture(workload.build, 1);
  BatchOptions options;
  options.max_batch = 4;
  options.max_delay_us = 10000;
  std::unique_ptr<Batcher> batcher =
      program.Serve(workload.schedule, workload.mesh, options).value();

  std::vector<ServeFuture> futures;
  std::vector<std::vector<Tensor>> want;
  for (int r = 0; r < 12; ++r) {
    std::vector<Tensor> inputs = harness.Request(700 + r);
    want.push_back(reference.Run(inputs, sequential).value());
    futures.push_back(batcher->Submit(std::move(inputs)));
  }
  for (int r = 0; r < 12; ++r) {
    ServeResponse response = futures[r].get();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ExpectBitIdentical(response.value(), want[r],
                       "compiled batch request " + std::to_string(r));
  }
  batcher->Shutdown();
  BatcherStats stats = batcher->stats();
  EXPECT_EQ(stats.completed, 12);
  EXPECT_EQ(stats.failed, 0);
}

// ---- Seeded random programs: reference vs optimized vs Evaluate ----

/**
 * Partitions `program` and, unless Partition returns a typed error, checks:
 * the reference and the optimized program agree bit-for-bit in every
 * threading mode, both are within tolerance of the unpartitioned Evaluate,
 * the executable analyzes clean, and the saved program and the saved
 * result both reload to bit-identical outputs. Returns whether it
 * partitioned.
 */
bool CheckPartitioned(Program& program, const std::vector<Tactic>& schedule,
                      const Mesh& mesh, uint64_t seed,
                      const std::string& label) {
  SCOPED_TRACE(label + "\n" + program.Print());
  StatusOr<Executable> exe = program.Partition(schedule, mesh);
  if (!exe.ok()) return false;  // a typed error is an allowed answer

  std::vector<Tensor> inputs = program.RandomInputs(seed);
  std::vector<Tensor> want = program.Evaluate(inputs).value();
  ExpectBackendsAgree(*exe, inputs, label);
  for (ExecBackend backend :
       {ExecBackend::kInterpret, ExecBackend::kCompiled}) {
    RunOptions options;
    options.backend = backend;
    std::vector<Tensor> got = exe->Run(inputs, options).value();
    EXPECT_EQ(got.size(), want.size()) << label;
    for (size_t i = 0; i < got.size() && i < want.size(); ++i) {
      float scale = 1.0f;
      for (float x : want[i].data()) scale = std::max(scale, std::abs(x));
      EXPECT_LE(Tensor::MaxAbsDiff(got[i], want[i]), 1e-4f * scale)
          << label << " output " << i << " vs Evaluate";
    }
  }
  analysis::AnalysisReport report = exe->Analyze();
  EXPECT_TRUE(report.clean()) << label << ":\n" << report.ToString();
  EXPECT_EQ(PersistLegMismatch(program, *exe, schedule, mesh, inputs,
                               exe->Run(inputs).value()),
            "")
      << label;
  return true;
}

TEST(ExecBackendRandomTest, RandomProgramsAgreeWithReferenceAndEvaluate) {
  constexpr int kCases = 200;
  int partitioned = 0;
  for (int i = 0; i < kCases; ++i) {
    const uint64_t seed = 20261000 + i;
    RandomProgramCase c(seed);
    if (CheckPartitioned(c.program(), c.schedule(), c.mesh(), seed,
                         "random program seed " + std::to_string(seed))) {
      ++partitioned;
    }
    if (HasFailure()) break;  // one readable failing seed, not two hundred
  }
  // Most random schedules are valid; a generator that only ever produced
  // rejected schedules would test nothing.
  EXPECT_GE(partitioned, kCases / 2);
}

// Minimized from seed 20261062. x1 arrives tiled {a} on dim 0 and {b} on
// dim 1, but the concatenation needs dim 0 tiled {b, a} (b outer). An
// all_to_all can only move b *inside* a, so resharding must gather and
// re-slice instead of claiming the {b, a} layout.
TEST(ExecBackendRandomTest, ReshardKeepsAxisNestingOrder) {
  Program program("concat");
  Value* x0 = program.AddInput(TensorType({4, 8}), "x0");
  Value* x1 = program.AddInput(TensorType({4, 8}), "x1");
  program.Return({program.builder().Concatenate({x0, x1}, 1)});
  EXPECT_TRUE(CheckPartitioned(
      program,
      {ManualPartition{"t1", {{"x0", 0}, {"x1", 1}}, "b"},
       ManualPartition{"t2", {{"x1", 0}}, "a"}},
      Mesh({{"a", 2}, {"b", 2}}), 3, "reshard nesting order"));
}

// Minimized from seed 20265007. The dot's partial sums over b must end up
// tiled {a, b} on dim 0 to meet x1; a reduce_scatter over b followed by a
// residual all_slice over a would tile it {b, a}, so that rewrite must not
// fire.
TEST(ExecBackendRandomTest, ReduceScatterKeepsAxisNestingOrder) {
  Program program("scatter");
  Value* x1 = program.AddInput(TensorType({4, 4}), "x1");
  Value* x2 = program.AddInput(TensorType({4, 4}), "x2");
  OpBuilder& builder = program.builder();
  program.Return({builder.Add(builder.MatMul(x2, x1), x1)});
  EXPECT_TRUE(CheckPartitioned(
      program,
      {ManualPartition{"t1", {{"x2", kReplicated}, {"x1", 0}}, "a"},
       ManualPartition{"t2", {{"x1", kFirstDivisibleDim}}, "b"}},
      Mesh({{"a", 2}, {"b", 2}}), 3, "reduce_scatter nesting order"));
}

// Minimized from seed 20263633. max(x) is replicated after its all_reduce;
// the dot tiles its broadcast along the contracting dim, and the reshape
// needs the broadcast whole. Gathering identical tiles is a redundant
// collective: OptimizeSpmd must turn it into a local concatenation.
TEST(ExecBackendRandomTest, GatherOfReplicatedValueBecomesLocal) {
  Program program("bcast");
  Value* x = program.AddInput(TensorType({4, 4}), "x");
  Value* y = program.AddInput(TensorType({4, 4}), "y");
  OpBuilder& builder = program.builder();
  Value* tiled = builder.BroadcastInDim(builder.Reduce(x, {0}, "max"),
                                        {4, 4}, {0});
  program.Return(
      {builder.MatMul(tiled, y), builder.Reshape(tiled, {16})});
  const std::vector<Tactic> schedule = {
      ManualPartition{"t", {{"x", 0}, {"y", 0}}, "a"}};
  const Mesh mesh({{"a", 2}});
  EXPECT_TRUE(
      CheckPartitioned(program, schedule, mesh, 3, "replicated gather"));
  EXPECT_EQ(program.Partition(schedule, mesh).value().Collectives().all_gather,
            0);
}

}  // namespace
}  // namespace partir
