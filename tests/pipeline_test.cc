// Tests for the schedule API (Table 1), the simulator/cost model
// (Appendix A.3), the MCTS automatic partitioner, and the GSPMD-style
// baseline — the pieces the experiment harness composes.
#include <gtest/gtest.h>

#include "src/api/partir.h"
#include "src/pass/pipeline.h"
#include "src/autopart/mcts.h"
#include "src/baseline/gspmd.h"
#include "src/ir/builder.h"
#include "src/models/schedules.h"
#include "src/models/transformer.h"
#include "src/schedule/schedule.h"
#include "src/sim/cost_model.h"
#include "src/spmd/collectives.h"
#include "src/spmd/lowering.h"
#include "src/spmd/optimize.h"
#include "tests/fig8_programs.h"

namespace partir {
namespace {

struct Chain {
  Module module;
  Func* func;
  Value* x;
  Value* w1;
  Value* w2;
};

Chain BuildChain(int64_t rows = 64) {
  Chain chain;
  chain.func = chain.module.AddFunc("main");
  chain.x = chain.func->body().AddArg(TensorType({rows, 32}), "x");
  chain.w1 = chain.func->body().AddArg(TensorType({32, 64}), "w1");
  chain.w2 = chain.func->body().AddArg(TensorType({64, 32}), "w2");
  OpBuilder builder(&chain.func->body());
  Value* h = builder.Tanh(builder.MatMul(chain.x, chain.w1));
  Value* out = builder.MatMul(h, chain.w2);
  builder.Return({out});
  return chain;
}

TEST(ScheduleTest, PerTacticReportsShowIncrementalProgress) {
  Chain chain = BuildChain();
  PartitionContext ctx(chain.func, Mesh({{"B", 4}, {"M", 2}}));
  PartitionOptions options;
  options.per_tactic_reports = true;
  ManualPartition bp{"BP", {{"x", 0}}, "B"};
  ManualPartition mp{"MP", {{"w1", 1}}, "M"};
  PartitionResult result = PartirJitOrError(ctx, {bp, mp}, options).value();
  ASSERT_EQ(result.tactics.size(), 2u);
  EXPECT_EQ(result.tactics[0].name, "BP");
  EXPECT_EQ(result.tactics[0].collectives.all_reduce, 0);
  EXPECT_EQ(result.tactics[1].collectives.all_reduce, 1);
  EXPECT_GT(result.tactics[0].estimate.step_seconds, 0);
  // Memory drops as the second tactic shards the weights.
  EXPECT_LE(result.tactics[1].estimate.peak_memory_bytes,
            result.tactics[0].estimate.peak_memory_bytes);
}

TEST(ScheduleTest, AutoTacticReportMatchesTheShippedProgram) {
  // The per-tactic report of an auto-only schedule lowers and optimizes the
  // same state the pipeline ships, through the same OptimizeSpmd loop: its
  // collective counts and estimate are the shipped ones, not an
  // approximation of them.
  TransformerConfig config = TransformerConfig::T32Scaled();
  config.num_layers = 2;
  Program program = Program::Capture([&](Module& module) {
    return BuildTransformerTrainingStep(module, config);
  });
  AutomaticPartition automatic;
  automatic.name = "auto";
  automatic.axes = {"batch", "model"};
  automatic.options.simulations = 24;
  Executable exe =
      program.Partition({automatic}, Mesh({{"batch", 4}, {"model", 2}}))
          .value();
  ASSERT_EQ(exe.tactics().size(), 1u);
  const TacticReport& report = exe.tactics()[0];
  EXPECT_GT(report.actions_applied, 0);
  EXPECT_EQ(report.collectives.ToString(), exe.Collectives().ToString());
  EXPECT_DOUBLE_EQ(report.collectives.comm_bytes,
                   exe.Collectives().comm_bytes);
  EXPECT_DOUBLE_EQ(report.estimate.step_seconds,
                   exe.Estimate().step_seconds);
}

TEST(ScheduleTest, SubstringKeysMatchAllBlocks) {
  TransformerConfig config;
  config.num_layers = 3;
  config.d_model = 16;
  config.num_heads = 4;
  config.head_dim = 4;
  config.ffw_size = 32;
  config.vocab = 32;
  config.batch = 4;
  config.seq = 4;
  Module module;
  Func* loss = BuildTransformerLoss(module, config);
  PartitionContext ctx(loss, Mesh({{"model", 2}}));
  // One key shards all three blocks' wq.
  ManualPartition mp{"MP", {{"wq", 1}}, "model"};
  EXPECT_EQ(ApplyManualTacticOrError(ctx, mp).value(), 3);
}

TEST(ScheduleTest, FirstDivisibleDimSkipsIndivisible) {
  Module module;
  Func* func = module.AddFunc("main");
  Value* w = func->body().AddArg(TensorType({3, 3, 8, 16}), "w");
  OpBuilder builder(&func->body());
  builder.Return({builder.Neg(w)});
  PartitionContext ctx(func, Mesh({{"B", 4}}));
  ManualPartition z{"Z", {{"w", kFirstDivisibleDim}}, "B"};
  EXPECT_EQ(ApplyManualTacticOrError(ctx, z).value(), 1);
  EXPECT_EQ(ctx.state(w).DimOfAxis("B"), 2);  // first dim divisible by 4
}

TEST(ScheduleTest, ReplicatedMarksAtomic) {
  Chain chain = BuildChain();
  PartitionContext ctx(chain.func, Mesh({{"B", 4}}));
  ManualPartition z2{"Z2", {{"w1", kReplicated}}, "B"};
  ASSERT_TRUE(ApplyManualTacticOrError(ctx, z2).ok());
  EXPECT_TRUE(ctx.IsAtomic(chain.w1, "B"));
  // A later tile on the atomic value is refused.
  EXPECT_FALSE(ctx.TileValue(chain.w1, 0, "B"));
}

TEST(ScheduleTest, NonIncrementalModeDefersToOnePropagation) {
  Chain chain = BuildChain();
  PartitionContext ctx(chain.func, Mesh({{"B", 4}}));
  PartitionOptions options;
  options.incremental = false;
  options.per_tactic_reports = false;
  // Conflicting seeds: with incrementality BP would win at the first
  // matmul; amalgamated, the conflict blocks propagation entirely.
  ManualPartition bp{"BP", {{"x", 0}}, "B"};
  ManualPartition z{"Z", {{"w1", 1}}, "B"};
  PartitionResult result = PartirJitOrError(ctx, {bp, z}, options).value();
  EXPECT_FALSE(result.conflicts.empty());
}

TEST(SimTest, FlopsOfDotIs2MNK) {
  Chain chain = BuildChain();
  // 64x32 @ 32x64: 2*64*64*32 flops; then tanh 64*64; 64x64 @ 64x32.
  const Operation* dot1 = chain.func->body().ops()[0]->kind() == OpKind::kDot
                              ? chain.func->body().ops()[0].get()
                              : nullptr;
  ASSERT_NE(dot1, nullptr);
  EXPECT_DOUBLE_EQ(OpFlops(*dot1), 2.0 * 64 * 64 * 32);
  double total = FuncFlops(*chain.func);
  EXPECT_DOUBLE_EQ(total,
                   2.0 * 64 * 64 * 32 + 64 * 64 + 2.0 * 64 * 32 * 64);
}

TEST(SimTest, PeakMemoryTracksLiveRanges) {
  Module module;
  Func* func = module.AddFunc("main");
  Value* x = func->body().AddArg(TensorType({1024}), "x");  // 4 KB
  OpBuilder builder(&func->body());
  Value* a = builder.Neg(x);     // +4KB (x still live)
  Value* b = builder.Exp(a);     // +4KB (x dead after? x used only by a)
  Value* c = builder.Tanh(b);
  builder.Return({c});
  double peak = EstimatePeakMemory(*func);
  // At most three 4KB values live simultaneously.
  EXPECT_LE(peak, 3 * 4096.0);
  EXPECT_GE(peak, 2 * 4096.0);
}

TEST(SimTest, ShardingReducesEstimatedMemoryAndCompute) {
  Chain big = BuildChain(256);
  PartitionContext ctx(big.func, Mesh({{"B", 8}}));
  SpmdModule unsharded = LowerToSpmd(ctx);
  SimEstimate before = EstimateSpmd(unsharded, Tpu_v3());
  ASSERT_TRUE(ctx.TileValue(big.x, 0, "B"));
  ctx.Propagate();
  SpmdModule sharded = LowerToSpmd(ctx);
  OptimizeSpmd(sharded);
  SimEstimate after = EstimateSpmd(sharded, Tpu_v3());
  EXPECT_LT(after.peak_memory_bytes, before.peak_memory_bytes);
  EXPECT_LT(after.compute_seconds, before.compute_seconds);
}

TEST(SimTest, HardwareModelIsDeterministic) {
  Chain chain = BuildChain();
  PartitionContext ctx(chain.func, Mesh({{"B", 4}}));
  ASSERT_TRUE(ctx.TileValue(chain.x, 0, "B"));
  ctx.Propagate();
  SpmdModule spmd = LowerToSpmd(ctx);
  OptimizeSpmd(spmd);
  SimEstimate first = MeasureOnHardwareModel(spmd, Tpu_v3());
  SimEstimate second = MeasureOnHardwareModel(spmd, Tpu_v3());
  EXPECT_DOUBLE_EQ(first.step_seconds, second.step_seconds);
  // Measured peak is below the conservative estimate (App. A.3.2).
  SimEstimate estimate = EstimateSpmd(spmd, Tpu_v3());
  EXPECT_LE(first.peak_memory_bytes, estimate.peak_memory_bytes);
}

TEST(SimTest, MfuDefinition) {
  DeviceSpec device = Tpu_v3();
  // 100 * flops / time / (devices * peak).
  double mfu = Mfu(device.peak_flops, 1.0, 1, device);
  EXPECT_DOUBLE_EQ(mfu, 100.0);
  EXPECT_DOUBLE_EQ(Mfu(device.peak_flops, 2.0, 1, device), 50.0);
}

TEST(AutoPartTest, DiscoversBatchParallelismOnChain) {
  // A compute-heavy chain where batch sharding is the clear win.
  Module module;
  Func* func = module.AddFunc("main");
  Value* x = func->body().AddArg(TensorType({512, 256}), "x");
  std::vector<Value*> weights;
  for (int i = 0; i < 4; ++i) {
    weights.push_back(
        func->body().AddArg(TensorType({256, 256}), StrCat("w", i)));
  }
  OpBuilder builder(&func->body());
  Value* h = x;
  for (Value* w : weights) h = builder.Tanh(builder.MatMul(h, w));
  builder.Return({h});

  PartitionContext ctx(func, Mesh({{"B", 8}}));
  AutoOptions options;
  options.simulations = 24;
  options.max_actions = 2;
  AutoResult result = AutomaticallyPartition(ctx, {"B"}, options);
  ASSERT_FALSE(result.actions.empty());
  // The input batch dim must be sharded.
  EXPECT_TRUE(ctx.state(x).HasAxis("B"));
  EXPECT_EQ(ctx.state(x).DimOfAxis("B"), 0);
  EXPECT_GT(result.evaluations, 0);
}

TEST(AutoPartTest, SearchMatchesPinsAndLowersEachStateOnce) {
  // T32/2L over {batch, model}, seeds 1-4: the chosen actions and the
  // shipped program pinned from the search that lowered every reward. The
  // reward memo keeps the rewards consumed (evaluations) and lowers only
  // the distinct states among them.
  struct SearchPin {
    uint64_t seed;
    AutoAction action;
  };
  const std::vector<SearchPin> pins = {{1, {57, 0, "batch"}},
                                       {2, {57, 0, "batch"}},
                                       {3, {58, 0, "batch"}},
                                       {4, {57, 0, "batch"}}};
  TransformerConfig config = TransformerConfig::T32Scaled();
  config.num_layers = 2;
  for (const SearchPin& pin : pins) {
    SCOPED_TRACE(StrCat("seed ", pin.seed));
    Module module;
    PartitionContext ctx(BuildTransformerTrainingStep(module, config),
                         Mesh({{"batch", 4}, {"model", 2}}));
    ctx.set_boundary_realization(true);
    AutoOptions options;
    options.simulations = 24;
    options.max_actions = 4;
    options.seed = pin.seed;
    AutoResult found =
        AutomaticallyPartition(ctx, {"batch", "model"}, options);
    ASSERT_EQ(found.actions.size(), 1u);
    EXPECT_EQ(found.actions[0].arg_index, pin.action.arg_index);
    EXPECT_EQ(found.actions[0].dim, pin.action.dim);
    EXPECT_EQ(found.actions[0].axis, pin.action.axis);
    EXPECT_EQ(found.evaluations, 49);
    EXPECT_GT(found.distinct_states, 0);
    EXPECT_LT(found.distinct_states, found.evaluations);

    SpmdModule spmd = LowerToSpmd(ctx);
    OptimizeSpmd(spmd);
    EXPECT_EQ(CountCollectives(*spmd.module, spmd.mesh).ToString(),
              "AG=0 AR=20 RS=0 A2A=0");
    EXPECT_NEAR(EstimateSpmd(spmd, options.device).step_seconds,
                0.00080817509088076456, 1e-9 * 0.00080817509088076456);
  }
}

TEST(AutoPartTest, RespectsMemoryLimit) {
  // With a tiny HBM limit, the unsharded program is penalized and the
  // search must shard something.
  Module module;
  Func* func = module.AddFunc("main");
  Value* x = func->body().AddArg(TensorType({1024, 512}), "x");
  Value* w = func->body().AddArg(TensorType({512, 1024}), "w");
  OpBuilder builder(&func->body());
  builder.Return({builder.MatMul(x, w)});
  PartitionContext ctx(func, Mesh({{"B", 8}}));
  AutoOptions options;
  options.simulations = 16;
  options.max_actions = 2;
  options.device.hbm_bytes = 3e6;  // 3 MB: full tensors do not fit
  AutoResult result = AutomaticallyPartition(ctx, {"B"}, options);
  EXPECT_FALSE(result.actions.empty());
}

TEST(BaselineTest, GspmdResolvesConflictHeuristically) {
  // The Section 5.2.3 conflict: x(dim0) and w1(dim1) seeded on the same
  // axis at once. PartIR refuses; the baseline's cost heuristic picks the
  // factor with the larger tensor (x) and partitions anyway.
  Chain chain = BuildChain(256);
  PartitionContext ctx(chain.func, Mesh({{"B", 4}}));
  GspmdResult result = GspmdPartition(
      ctx, {{"x", 0, "B"}, {"w1", 1, "B"}}, {});
  EXPECT_GT(result.heuristic_resolutions, 0);
  const Operation* mm1 = chain.func->body().ops()[0].get();
  EXPECT_FALSE(ctx.nest(mm1).empty());
}

TEST(BaselineTest, GspmdMinusIgnoresInternalConstraints) {
  Chain chain = BuildChain();
  Module module2;
  // Tag an internal value so a constraint can reference it.
  PartitionContext ctx(chain.func, Mesh({{"B", 4}}));
  GspmdOptions options;
  options.use_internal_constraints = false;
  GspmdResult result = GspmdPartition(
      ctx, {{"x", 0, "B"}}, {{"w1", 1, "B"}}, options);
  // The internal annotation was ignored: w1 is not sharded.
  EXPECT_TRUE(ctx.state(chain.w1).tiles.empty());
}

TEST(BaselineTest, GspmdMatchesPartirOnConflictFreeSchedule) {
  // On a conflict-free BP schedule both systems produce the same counts.
  Chain a = BuildChain();
  PartitionContext partir_ctx(a.func, Mesh({{"B", 4}}));
  PartitionOptions options;
  options.per_tactic_reports = false;
  ManualPartition bp{"BP", {{"x", 0}}, "B"};
  PartitionResult partir = PartirJitOrError(partir_ctx, {bp}, options).value();

  Chain b = BuildChain();
  PartitionContext gspmd_ctx(b.func, Mesh({{"B", 4}}));
  GspmdResult gspmd = GspmdPartition(gspmd_ctx, {{"x", 0, "B"}}, {});
  CollectiveStats gspmd_stats =
      CountCollectives(*gspmd.spmd.module, gspmd.spmd.mesh);
  EXPECT_EQ(partir.collectives.all_reduce, gspmd_stats.all_reduce);
  EXPECT_EQ(partir.collectives.all_gather, gspmd_stats.all_gather);
}

// ---- Per-tactic report pins (the Fig. 8 programs) ----

struct ReportPin {
  const char* name;
  int64_t ag, ar, rs, a2a;
  double comm_bytes;
  double step_seconds;
};

struct ReportCase {
  const char* program;
  bool incremental;
  bool form_reduce_scatter;
  std::vector<ReportPin> reports;
};

// Every report of every Fig. 8 program in both modes and both variants,
// pinned from the pipeline that still lowered the last report separately.
// In incremental mode with the full rewrite set the last report now copies
// the final lowering; everywhere else it is its own pass.
std::vector<ReportCase> ReportPins() {
  return {
      {"T32", true, true,
       {{"BP", 0, 20, 0, 0, 10099719, 0.00058088651321815544},
        {"MP", 0, 28, 0, 0, 7085063, 0.00036978283897327077},
        {"Z3", 19, 19, 9, 0, 8920071, 0.00033164783452882372},
        {"EMB", 47, 22, 17, 0, 10365959, 0.00036181014138272709}}},
      {"T32", true, false,
       {{"BP", 0, 20, 0, 0, 10099719, 0.00058088651321815544},
        {"MP", 0, 28, 0, 0, 7085063, 0.00036978283897327077},
        {"Z3", 19, 19, 9, 0, 8920071, 0.00033164783452882372},
        {"EMB", 47, 22, 17, 0, 10365959, 0.00036181014138272709}}},
      {"T32", false, true,
       {{"BP", 4, 0, 0, 0, 5515776, 0.0021632959968563743},
        {"MP", 74, 0, 0, 0, 18622976, 0.0022940639968563746},
        {"Z3", 80, 0, 0, 0, 25963008, 0.0023208140768563746},
        {"EMB", 80, 0, 0, 0, 26094080, 0.0023211417568563745}}},
      {"T32", false, false,
       {{"BP", 4, 0, 0, 0, 5515776, 0.0021632959968563743},
        {"MP", 74, 0, 0, 0, 18622976, 0.0022940639968563746},
        {"Z3", 80, 0, 0, 0, 25963008, 0.0023208140768563746},
        {"EMB", 80, 0, 0, 0, 26094080, 0.0023211417568563745}}},
      {"UNet", true, true,
       {{"BP", 0, 172, 0, 0, 26628959, 0.0013555786233585901},
        {"MP", 0, 266, 0, 0, 16365823, 0.0010317599357015195},
        {"Z3", 245, 95, 171, 0, 23402111, 0.001046685429034854}}},
      {"UNet", true, false,
       {{"BP", 0, 172, 0, 0, 26628959, 0.0013555786233585901},
        {"MP", 0, 266, 0, 0, 16365823, 0.0010317599357015195},
        {"Z3", 245, 95, 171, 0, 23402111, 0.001046685429034854}}},
      {"UNet", false, true,
       {{"BP", 3, 0, 0, 0, 86016, 0.0031503452022763924},
        {"MP", 253, 0, 0, 0, 35762176, 0.0035895356022763924},
        {"Z3", 761, 0, 0, 0, 71083056, 0.0043890378022763913}}},
      {"UNet", false, false,
       {{"BP", 3, 0, 0, 0, 86016, 0.0031503452022763924},
        {"MP", 253, 0, 0, 0, 35762176, 0.0035895356022763924},
        {"Z3", 761, 0, 0, 0, 71083056, 0.0043890378022763913}}},
      {"GNS", true, true,
       {{"ES", 0, 322, 0, 0, 7055552, 0.00088812988000002671}}},
      {"GNS", true, false,
       {{"ES", 0, 322, 0, 0, 7055552, 0.00088812988000002671}}},
      {"GNS", false, true,
       {{"ES", 146, 0, 0, 0, 286720, 0.0010716449911111136}}},
      {"GNS", false, false,
       {{"ES", 146, 0, 0, 0, 286720, 0.0010716449911111136}}},
      {"IT32", true, true,
       {{"BP", 0, 0, 0, 0, 0, 0.00011593500444444459},
        {"MP", 0, 36, 0, 0, 589824, 0.00012266481777777798}}},
      {"IT32", true, false,
       {{"BP", 0, 0, 0, 0, 0, 0.00011593500444444459},
        {"MP", 0, 36, 0, 0, 589824, 0.00012266481777777798}}},
      {"IT32", false, true,
       {{"BP", 9, 0, 0, 0, 13440, 0.00052612614243902804},
        {"MP", 135, 0, 0, 0, 23606400, 0.00076150854243902852}}},
      {"IT32", false, false,
       {{"BP", 9, 0, 0, 0, 13440, 0.00052612614243902804},
        {"MP", 135, 0, 0, 0, 23606400, 0.00076150854243902852}}},
  };
}

TEST(ScheduleTest, PerTacticReportsMatchPinsInEveryModeAndVariant) {
  for (const Fig8Program& program : Fig8Programs()) {
    for (const ReportCase& pin : ReportPins()) {
      if (program.name != pin.program) continue;
      SCOPED_TRACE(StrCat(program.name, " incremental=", pin.incremental,
                          " form_reduce_scatter=", pin.form_reduce_scatter));
      Module module;
      PartitionContext ctx(program.build(module), Fig8Mesh());
      PartitionOptions options;
      options.incremental = pin.incremental;
      PipelineVariant variant;
      variant.form_reduce_scatter = pin.form_reduce_scatter;
      PartitionResult result =
          RunPartitionPipeline(ctx, program.schedule, options, variant)
              .value();
      ASSERT_EQ(result.tactics.size(), pin.reports.size());
      for (size_t i = 0; i < pin.reports.size(); ++i) {
        const ReportPin& want = pin.reports[i];
        const TacticReport& got = result.tactics[i];
        EXPECT_EQ(got.name, want.name);
        EXPECT_EQ(got.collectives.all_gather, want.ag) << want.name;
        EXPECT_EQ(got.collectives.all_reduce, want.ar) << want.name;
        EXPECT_EQ(got.collectives.reduce_scatter, want.rs) << want.name;
        EXPECT_EQ(got.collectives.all_to_all, want.a2a) << want.name;
        EXPECT_DOUBLE_EQ(got.collectives.comm_bytes, want.comm_bytes)
            << want.name;
        EXPECT_NEAR(got.estimate.step_seconds, want.step_seconds,
                    1e-9 * want.step_seconds)
            << want.name;
      }
      // The last report is lowered on its own exactly when its state or
      // rewrite set differs from what the pipeline ships.
      const std::string last_report =
          StrCat("report[", pin.reports.size() - 1, "]");
      EXPECT_EQ(result.pipeline.Find(last_report) == nullptr,
                pin.incremental && pin.form_reduce_scatter);
    }
  }
}

}  // namespace
}  // namespace partir
