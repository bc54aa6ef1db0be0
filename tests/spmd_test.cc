// Tests for SPMD lowering, collective fusion, and end-to-end equivalence of
// the device-local program with the unpartitioned program under the
// multi-device interpreter (the executable Appendix C theorem).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>

#include "src/core/context.h"
#include "src/interp/interpreter.h"
#include "src/ir/builder.h"
#include "src/ir/passes.h"
#include "src/ir/printer.h"
#include "src/ir/verifier.h"
#include "src/models/gns.h"
#include "src/models/schedules.h"
#include "src/models/transformer.h"
#include "src/models/unet.h"
#include "src/schedule/schedule.h"
#include "src/sim/cost_model.h"
#include "src/spmd/lowering.h"
#include "src/spmd/optimize.h"
#include "src/spmd/spmd_interpreter.h"

namespace partir {
namespace {

constexpr float kTol = 2e-3f;

// Lowers, optimizes, runs on all devices, and compares with the reference.
void ExpectSpmdEquivalent(PartitionContext& ctx, uint64_t seed,
                          float index_modulus = 0.0f) {
  SpmdModule spmd = LowerToSpmd(ctx);
  OptimizeSpmd(spmd);
  std::vector<Tensor> inputs =
      MakeRandomInputs(*ctx.func(), seed, index_modulus);
  std::vector<Tensor> want = Evaluate(*ctx.func(), inputs);
  std::vector<Tensor> got = RunSpmd(spmd, inputs).value();
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].dims(), got[i].dims());
    EXPECT_LT(Tensor::MaxAbsDiff(want[i], got[i]), kTol)
        << "output " << i << " diverged;\n"
        << Print(*spmd.module);
  }
}

struct Chain {
  Module module;
  Func* func;
  Value* x;
  Value* w1;
  Value* w2;
  Value* out;
};

Chain BuildChain() {
  Chain chain;
  chain.func = chain.module.AddFunc("main");
  chain.x = chain.func->body().AddArg(TensorType({16, 8}), "x");
  chain.w1 = chain.func->body().AddArg(TensorType({8, 12}), "w1");
  chain.w2 = chain.func->body().AddArg(TensorType({12, 8}), "w2");
  OpBuilder builder(&chain.func->body());
  Value* x1 = builder.MatMul(chain.x, chain.w1);
  chain.out = builder.MatMul(x1, chain.w2);
  builder.Return({chain.out});
  return chain;
}

TEST(SpmdLoweringTest, BatchParallelLocalTypes) {
  Chain chain = BuildChain();
  PartitionContext ctx(chain.func, Mesh({{"B", 4}, {"M", 2}}));
  ASSERT_TRUE(ctx.TileValue(chain.x, 0, "B"));
  ctx.Propagate();
  SpmdModule spmd = LowerToSpmd(ctx);
  OptimizeSpmd(spmd);

  // Device-local x is 4x8 (Listing 2); weights stay full.
  Func* main = spmd.main();
  EXPECT_EQ(main->body().arg(0)->tensor_type(), TensorType({4, 8}));
  EXPECT_EQ(main->body().arg(1)->tensor_type(), TensorType({8, 12}));
  CollectiveStats stats = CountCollectives(*spmd.module, spmd.mesh);
  EXPECT_EQ(stats.all_gather, 0);
  EXPECT_EQ(stats.all_reduce, 0);
  ExpectSpmdEquivalent(ctx, 200);
}

TEST(SpmdLoweringTest, MegatronIntroducesOneAllReduce) {
  // Listing 3: BP+MP. The second matmul contracts over the M-sharded dim.
  Chain chain = BuildChain();
  PartitionContext ctx(chain.func, Mesh({{"B", 4}, {"M", 2}}));
  ASSERT_TRUE(ctx.TileValue(chain.x, 0, "B"));
  ctx.Propagate();
  ASSERT_TRUE(ctx.TileValue(chain.w1, 1, "M"));
  ctx.Propagate();
  SpmdModule spmd = LowerToSpmd(ctx);
  OptimizeSpmd(spmd);

  CollectiveStats stats = CountCollectives(*spmd.module, spmd.mesh);
  EXPECT_EQ(stats.all_reduce, 1);
  EXPECT_EQ(stats.all_gather, 0);
  EXPECT_EQ(spmd.main()->body().arg(1)->tensor_type(), TensorType({8, 6}));
  EXPECT_EQ(spmd.main()->body().arg(2)->tensor_type(), TensorType({6, 8}));
  ExpectSpmdEquivalent(ctx, 201);
}

TEST(SpmdLoweringTest, FsdpGathersParametersAtUse) {
  // Listing 4: BP+MP+Z3. The weights are additionally sharded over B and
  // must be all_gathered before their (single) use.
  Chain chain = BuildChain();
  PartitionContext ctx(chain.func, Mesh({{"B", 4}, {"M", 2}}));
  ASSERT_TRUE(ctx.TileValue(chain.x, 0, "B"));
  ctx.Propagate();
  ASSERT_TRUE(ctx.TileValue(chain.w1, 1, "M"));
  ctx.Propagate();
  ASSERT_TRUE(ctx.TileValue(chain.w1, 0, "B"));
  ASSERT_TRUE(ctx.TileValue(chain.w2, 1, "B"));
  ctx.Propagate();
  SpmdModule spmd = LowerToSpmd(ctx);
  OptimizeSpmd(spmd);

  CollectiveStats stats = CountCollectives(*spmd.module, spmd.mesh);
  EXPECT_EQ(stats.all_gather, 2);  // one per parameter
  EXPECT_EQ(stats.all_reduce, 1);  // Megatron reduction
  // w1 local: 8x12 / (B on dim0, M on dim1) = 2x6.
  EXPECT_EQ(spmd.main()->body().arg(1)->tensor_type(), TensorType({2, 6}));
  ExpectSpmdEquivalent(ctx, 202);
}

TEST(SpmdLoweringTest, OutputShardingTurnsAllReduceIntoReduceScatter) {
  // Section 2.4 "ES strategy": sharding the return value on the model axis
  // converts the all_reduce into a reduce_scatter.
  Chain chain = BuildChain();
  PartitionContext ctx(chain.func, Mesh({{"B", 4}, {"M", 2}}));
  ASSERT_TRUE(ctx.TileValue(chain.x, 0, "B"));
  ctx.Propagate();
  ASSERT_TRUE(ctx.TileValue(chain.w1, 1, "M"));
  ctx.Propagate();
  // Shard the output activation on M along its feature dim.
  ASSERT_TRUE(ctx.TileValue(chain.out, 1, "M"));
  SpmdModule spmd = LowerToSpmd(ctx);
  OptimizeSpmd(spmd);

  CollectiveStats stats = CountCollectives(*spmd.module, spmd.mesh);
  EXPECT_EQ(stats.reduce_scatter, 1);
  EXPECT_EQ(stats.all_reduce, 0);
  ExpectSpmdEquivalent(ctx, 203);
}

TEST(SpmdLoweringTest, AtomicZ2GathersShardedDelta) {
  Module module;
  Func* func = module.AddFunc("main");
  Value* param = func->body().AddArg(TensorType({64, 8}), "param");
  Value* grad = func->body().AddArg(TensorType({64, 8}), "grad");
  OpBuilder builder(&func->body());
  Value* updated = builder.Sub(param, grad);
  builder.Return({updated});

  PartitionContext ctx(func, Mesh({{"B", 4}}));
  ctx.AtomicValue(param, "B");
  ASSERT_TRUE(ctx.TileValue(grad, 0, "B"));
  ctx.Propagate();
  SpmdModule spmd = LowerToSpmd(ctx);
  OptimizeSpmd(spmd);

  // The sharded grad must be gathered to update the replicated param.
  CollectiveStats stats = CountCollectives(*spmd.module, spmd.mesh);
  EXPECT_EQ(stats.all_gather, 1);
  ExpectSpmdEquivalent(ctx, 204);
}

TEST(SpmdLoweringTest, PerUseGatherIsNotCSEd) {
  // A parameter used twice (forward and "backward") is gathered twice —
  // the FSDP re-gather (Design decision #4, paper Section 2.3).
  Module module;
  Func* func = module.AddFunc("main");
  Value* x = func->body().AddArg(TensorType({16, 8}), "x");
  Value* w = func->body().AddArg(TensorType({8, 8}), "w");
  OpBuilder builder(&func->body());
  Value* h1 = builder.MatMul(x, w);
  Value* h2 = builder.MatMul(h1, w);  // second use of w
  builder.Return({h2});

  PartitionContext ctx(func, Mesh({{"B", 4}}));
  ASSERT_TRUE(ctx.TileValue(x, 0, "B"));
  ctx.Propagate();
  ASSERT_TRUE(ctx.TileValue(w, 0, "B"));  // Z3-style weight sharding
  ctx.Propagate();
  SpmdModule spmd = LowerToSpmd(ctx);
  OptimizeSpmd(spmd);
  CollectiveStats stats = CountCollectives(*spmd.module, spmd.mesh);
  EXPECT_EQ(stats.all_gather, 2);
  ExpectSpmdEquivalent(ctx, 205);
}

TEST(SpmdLoweringTest, PlacementMoveEmitsAllToAll) {
  // A value realized tiled on dim 1 but required tiled on dim 0 by its
  // consumer moves the shard dim: an all_to_all (the redistribution of
  // Appendix C.5 / Figure 16). We arrange it via a concatenate whose concat
  // dim blocks propagation of the producer's tiling.
  Module module;
  Func* func = module.AddFunc("main");
  Value* x = func->body().AddArg(TensorType({8, 8}), "x");
  Value* w = func->body().AddArg(TensorType({8, 8}), "w");
  Value* y = func->body().AddArg(TensorType({8, 16}), "y");
  OpBuilder builder(&func->body());
  Value* p = builder.MatMul(x, w);
  Value* c = builder.Concatenate({p, p}, 1);  // dim 1 concat: blocked there
  Value* sum = builder.Add(c, y);
  builder.Return({sum});

  PartitionContext ctx(func, Mesh({{"a", 2}}));
  // Tactic 1: shard w's columns -> p realized tiled on dim 1.
  ASSERT_TRUE(ctx.TileValue(w, 1, "a"));
  ctx.Propagate();
  // Tactic 2: shard y's rows -> the add (and backward, the concat) adopt
  // tiling on dim 0; p is then *required* on dim 0 but realized on dim 1.
  ASSERT_TRUE(ctx.TileValue(y, 0, "a"));
  ctx.Propagate();
  SpmdModule spmd = LowerToSpmd(ctx);
  OptimizeSpmd(spmd);
  CollectiveStats stats = CountCollectives(*spmd.module, spmd.mesh);
  EXPECT_GE(stats.all_to_all, 1);
  ExpectSpmdEquivalent(ctx, 206);
}

TEST(SpmdInterpreterTest, ShardUnshardRoundTrip) {
  Mesh mesh({{"a", 2}, {"b", 2}});
  Tensor global = Tensor::Random({8, 4}, 77);
  ValueSharding sharding{AxesPerDim{{"a"}, {"b"}}};
  PerDevice shards = ShardTensor(global, sharding, mesh);
  EXPECT_EQ(shards[0].dims(), (std::vector<int64_t>{4, 2}));
  Tensor back = UnshardTensor(shards, sharding, mesh).value();
  EXPECT_LT(Tensor::MaxAbsDiff(back, global), 1e-6f);
}

TEST(SpmdInterpreterTest, DeepShardingTwoAxesOneDim) {
  Mesh mesh({{"a", 2}, {"b", 2}});
  Tensor global = Tensor::Random({8, 4}, 78);
  ValueSharding sharding{AxesPerDim{{"a", "b"}, {}}};
  PerDevice shards = ShardTensor(global, sharding, mesh);
  EXPECT_EQ(shards[0].dims(), (std::vector<int64_t>{2, 4}));
  Tensor back = UnshardTensor(shards, sharding, mesh).value();
  EXPECT_LT(Tensor::MaxAbsDiff(back, global), 1e-6f);
}

TEST(SpmdInterpreterTest, ReplicaMismatchIsDetected) {
  Mesh mesh({{"a", 2}});
  ValueSharding replicated{AxesPerDim{{}, {}}};
  PerDevice shards = {Tensor({2, 2}, {1, 2, 3, 4}),
                      Tensor({2, 2}, {9, 9, 9, 9})};
  StatusOr<Tensor> result = UnshardTensor(shards, replicated, mesh);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("replica mismatch"),
            std::string::npos)
      << result.status().ToString();
}

TEST(SpmdOptimizeTest, GatherOfSliceCancels) {
  Mesh mesh({{"a", 4}});
  Module module;
  Func* func = module.AddFunc("main");
  Value* x = func->body().AddArg(TensorType({16, 4}), "x");
  OpBuilder builder(&func->body());
  builder.SetMesh(mesh);
  Value* sliced = builder.AllSlice(x, {{"a"}, {}});
  Value* gathered = builder.AllGather(sliced, {{"a"}, {}});
  builder.Return({gathered});

  SpmdModule spmd;
  spmd.module = std::make_unique<Module>();
  CloneFunc(*func, *spmd.module, "main", nullptr);
  spmd.mesh = mesh;
  OptimizeSpmd(spmd);
  CollectiveStats stats = CountCollectives(*spmd.module, spmd.mesh);
  EXPECT_EQ(stats.all_gather, 0);
  EXPECT_EQ(stats.all_slice, 0);
}

TEST(SpmdOptimizeTest, SliceOfSplatConstantShrinks) {
  Mesh mesh({{"a", 4}});
  SpmdModule spmd;
  spmd.module = std::make_unique<Module>();
  spmd.mesh = mesh;
  Func* func = spmd.module->AddFunc("main");
  OpBuilder builder(&func->body());
  builder.SetMesh(mesh);
  Value* c = builder.Constant(1.0, {16, 4});
  Value* sliced = builder.AllSlice(c, {{"a"}, {}});
  builder.Return({sliced});
  OptimizeSpmd(spmd);
  CollectiveStats stats = CountCollectives(*spmd.module, spmd.mesh);
  EXPECT_EQ(stats.all_slice, 0);
  // The function now returns a local 4x4 constant.
  Value* result = spmd.main()->results()[0];
  EXPECT_EQ(result->tensor_type(), TensorType({4, 4}));
}

TEST(SpmdOptimizeTest, GatherSliceAcrossDimsBecomesAllToAll) {
  Mesh mesh({{"a", 2}});
  SpmdModule spmd;
  spmd.module = std::make_unique<Module>();
  spmd.mesh = mesh;
  Func* func = spmd.module->AddFunc("main");
  Value* x = func->body().AddArg(TensorType({4, 4}), "x");
  OpBuilder builder(&func->body());
  builder.SetMesh(mesh);
  Value* gathered = builder.AllGather(x, {{"a"}, {}});
  Value* sliced = builder.AllSlice(gathered, {{}, {"a"}});
  builder.Return({sliced});
  OptimizeSpmd(spmd);
  CollectiveStats stats = CountCollectives(*spmd.module, spmd.mesh);
  EXPECT_EQ(stats.all_to_all, 1);
  EXPECT_EQ(stats.all_gather, 0);
  EXPECT_EQ(stats.all_slice, 0);
}

// ---- Reduce-scatter formation (the kRewriteReduceScatter family) ----

/** Builds an empty device-local module over `mesh` with a builder wired to
 *  its main function. */
SpmdModule EmptySpmd(const Mesh& mesh, OpBuilder& builder) {
  SpmdModule spmd;
  spmd.module = std::make_unique<Module>();
  spmd.mesh = mesh;
  spmd.module->AddFunc("main");
  builder.SetInsertionBlock(&spmd.main()->body());
  builder.SetMesh(mesh);
  return spmd;
}

TEST(SpmdOptimizeTest, ReduceScatterFormsAcrossPartialAxisOverlap) {
  // The embedding-style multi-axis chain: a gradient all_reduced over axis
  // "a" but sliced to a parameter sharded over "a" *and* "b". The sliced
  // axis outside the reduction survives as a residual all_slice; the
  // overlap still forms a reduce_scatter.
  Mesh mesh({{"a", 2}, {"b", 2}});
  OpBuilder builder(nullptr);
  SpmdModule spmd = EmptySpmd(mesh, builder);
  Value* x = spmd.main()->body().AddArg(TensorType({8, 8}), "x");
  Value* reduced = builder.AllReduce(x, {"a"}, "sum");
  Value* sliced = builder.AllSlice(reduced, {{"a"}, {"b"}});
  builder.Return({sliced});

  EXPECT_GT(
      OptimizeSpmd(spmd, kRewriteReduceScatter | kRewriteReduceScatterPartial),
      0);
  CollectiveStats stats = CountCollectives(*spmd.module, spmd.mesh);
  EXPECT_EQ(stats.all_reduce, 0);
  EXPECT_EQ(stats.reduce_scatter, 1);
  EXPECT_EQ(stats.all_slice, 1);  // residual slice over the unreduced axis
  EXPECT_EQ(spmd.main()->results()[0]->tensor_type(), TensorType({4, 4}));
}

TEST(SpmdOptimizeTest, PartialOverlapKeepsResidualAllReduce) {
  // Reduced over {a, c}, sliced over {a, b}: reduce_scatter on the overlap
  // {a}, residual all_reduce on {c}, residual all_slice on {b}.
  Mesh mesh({{"a", 2}, {"b", 2}, {"c", 2}});
  OpBuilder builder(nullptr);
  SpmdModule spmd = EmptySpmd(mesh, builder);
  Value* x = spmd.main()->body().AddArg(TensorType({8, 8}), "x");
  Value* reduced = builder.AllReduce(x, {"a", "c"}, "sum");
  Value* sliced = builder.AllSlice(reduced, {{"a"}, {"b"}});
  builder.Return({sliced});

  OptimizeSpmd(spmd);
  CollectiveStats stats = CountCollectives(*spmd.module, spmd.mesh);
  EXPECT_EQ(stats.reduce_scatter, 1);
  EXPECT_EQ(stats.all_reduce, 1);
  EXPECT_EQ(stats.all_slice, 1);
  EXPECT_EQ(spmd.main()->results()[0]->tensor_type(), TensorType({4, 4}));
}

TEST(SpmdOptimizeTest, PartialOverlapIsGatedBehindItsRewriteBit) {
  // Without kRewriteReduceScatterPartial the legacy subset-only behavior
  // holds: a partially overlapping chain is left alone.
  Mesh mesh({{"a", 2}, {"b", 2}});
  OpBuilder builder(nullptr);
  SpmdModule spmd = EmptySpmd(mesh, builder);
  Value* x = spmd.main()->body().AddArg(TensorType({8, 8}), "x");
  Value* reduced = builder.AllReduce(x, {"a"}, "sum");
  Value* sliced = builder.AllSlice(reduced, {{"a"}, {"b"}});
  builder.Return({sliced});

  EXPECT_EQ(OptimizeSpmd(spmd, kRewriteReduceScatter), 0);
  CollectiveStats stats = CountCollectives(*spmd.module, spmd.mesh);
  EXPECT_EQ(stats.all_reduce, 1);
  EXPECT_EQ(stats.reduce_scatter, 0);
}

TEST(SpmdOptimizeTest, AdjacentAllReducesMergeAndFullyScatter) {
  // all_reduce("b") of all_reduce("a") merges into one multi-axis
  // all_reduce, which the following two-axis slice turns into a single
  // reduce_scatter — the chain across multiple mesh axes.
  Mesh mesh({{"a", 2}, {"b", 2}});
  OpBuilder builder(nullptr);
  SpmdModule spmd = EmptySpmd(mesh, builder);
  Value* x = spmd.main()->body().AddArg(TensorType({8, 8}), "x");
  Value* ar_a = builder.AllReduce(x, {"a"}, "sum");
  Value* ar_b = builder.AllReduce(ar_a, {"b"}, "sum");
  Value* sliced = builder.AllSlice(ar_b, {{"a"}, {"b"}});
  builder.Return({sliced});

  OptimizeSpmd(spmd);
  CollectiveStats stats = CountCollectives(*spmd.module, spmd.mesh);
  EXPECT_EQ(stats.all_reduce, 0);
  EXPECT_EQ(stats.reduce_scatter, 1);
  EXPECT_EQ(stats.all_slice, 0);
  EXPECT_EQ(spmd.main()->results()[0]->tensor_type(), TensorType({4, 4}));
}

TEST(SpmdOptimizeTest, SubsetFormationUnchangedByPartialBit) {
  // The legacy subset case (sliced axes all reduced) forms the same
  // reduce_scatter + leftover all_reduce with or without the partial bit.
  for (unsigned mask :
       {kRewriteReduceScatter,
        kRewriteReduceScatter | kRewriteReduceScatterPartial}) {
    Mesh mesh({{"a", 2}, {"b", 2}});
    OpBuilder builder(nullptr);
    SpmdModule spmd = EmptySpmd(mesh, builder);
    Value* x = spmd.main()->body().AddArg(TensorType({8, 8}), "x");
    Value* reduced = builder.AllReduce(x, {"a", "b"}, "sum");
    Value* sliced = builder.AllSlice(reduced, {{"a"}, {}});
    builder.Return({sliced});
    EXPECT_GT(OptimizeSpmd(spmd, mask), 0);
    CollectiveStats stats = CountCollectives(*spmd.module, spmd.mesh);
    EXPECT_EQ(stats.reduce_scatter, 1) << "mask " << mask;
    EXPECT_EQ(stats.all_reduce, 1) << "mask " << mask;  // leftover {b}
  }
}

// ---- Cascades: rewrites enabled by other rewrites, in one call ----

TEST(SpmdOptimizeTest, AccumulationChainFoldsToOneAllReduce) {
  // add(add(add(AR(p), AR(q)), AR(r)), AR(s)): each add sees the all_reduce
  // its inner add was just rewritten into, so the whole gradient
  // accumulation needs one all_reduce after one call.
  Mesh mesh({{"a", 4}});
  OpBuilder builder(nullptr);
  SpmdModule spmd = EmptySpmd(mesh, builder);
  Value* acc = nullptr;
  for (int i = 0; i < 4; ++i) {
    Value* partial = spmd.main()->body().AddArg(TensorType({8, 8}), "p");
    Value* reduced = builder.AllReduce(partial, {"a"}, "sum");
    acc = acc == nullptr ? reduced : builder.Add(acc, reduced);
  }
  builder.Return({acc});
  ASSERT_EQ(CountCollectives(*spmd.module, mesh).all_reduce, 4);

  EXPECT_EQ(OptimizeSpmd(spmd), 3);
  EXPECT_EQ(CountCollectives(*spmd.module, mesh).all_reduce, 1);
  EXPECT_EQ(spmd.main()->results()[0]->def()->kind(), OpKind::kAllReduce);
  EXPECT_EQ(OptimizeSpmd(spmd), 0);
  EXPECT_TRUE(Verify(*spmd.module).empty());
}

TEST(SpmdOptimizeTest, GatherCancelsItsSliceBeforeReduceScatterFormation) {
  // all_gather(all_slice(all_reduce(x))) over the same axes is the
  // all_reduce itself: the cancellation wins over turning the slice into a
  // reduce_scatter, which the gather could no longer cancel against.
  Mesh mesh({{"a", 2}});
  OpBuilder builder(nullptr);
  SpmdModule spmd = EmptySpmd(mesh, builder);
  Value* x = spmd.main()->body().AddArg(TensorType({8, 4}), "x");
  Value* reduced = builder.AllReduce(x, {"a"}, "sum");
  Value* sliced = builder.AllSlice(reduced, {{"a"}, {}});
  builder.Return({builder.AllGather(sliced, {{"a"}, {}})});

  EXPECT_EQ(OptimizeSpmd(spmd), 1);
  CollectiveStats stats = CountCollectives(*spmd.module, mesh);
  EXPECT_EQ(stats.all_reduce, 1);
  EXPECT_EQ(stats.reduce_scatter, 0);
  EXPECT_EQ(stats.all_gather, 0);
  EXPECT_EQ(stats.all_slice, 0);
  EXPECT_EQ(OptimizeSpmd(spmd), 0);
}

// all_reduce(x) feeding a transpose and `slices` identical all_slices over
// the reduced axis: the transpose can only commute into the all_reduce once
// the slices stop using it.
SpmdModule TransposeBesideSlices(const Mesh& mesh, int slices) {
  OpBuilder builder(nullptr);
  SpmdModule spmd = EmptySpmd(mesh, builder);
  Value* x = spmd.main()->body().AddArg(TensorType({8, 4}), "x");
  Value* reduced = builder.AllReduce(x, {"a"}, "sum");
  std::vector<Value*> results = {builder.Transpose(reduced, {1, 0})};
  for (int i = 0; i < slices; ++i) {
    results.push_back(builder.AllSlice(reduced, {{"a"}, {}}));
  }
  builder.Return(results);
  return spmd;
}

void ExpectTransposeCommuted(const SpmdModule& spmd) {
  CollectiveStats stats = CountCollectives(*spmd.module, spmd.mesh);
  EXPECT_EQ(stats.all_reduce, 1);
  EXPECT_EQ(stats.reduce_scatter, 1);
  EXPECT_EQ(stats.all_slice, 0);
  const Operation* reduce = spmd.main()->results()[0]->def();
  ASSERT_EQ(reduce->kind(), OpKind::kAllReduce);
  EXPECT_EQ(reduce->operand(0)->def()->kind(), OpKind::kTranspose);
  EXPECT_TRUE(Verify(*spmd.module).empty());
}

TEST(SpmdOptimizeTest, TransposeCommutesOnceItsAllReduceLosesTheSliceUser) {
  // The transpose is visited while the all_reduce still has two uses; the
  // slice's reduce_scatter rewrite drops the all_reduce to one use, which
  // sends the transpose back through the worklist.
  Mesh mesh({{"a", 2}});
  SpmdModule spmd = TransposeBesideSlices(mesh, 1);
  EXPECT_EQ(OptimizeSpmd(spmd), 2);
  ExpectTransposeCommuted(spmd);
  EXPECT_EQ(OptimizeSpmd(spmd), 0);
}

TEST(SpmdOptimizeTest, TransposeCommutesOnceSliceCseDropsTheLastExtraUse) {
  // Two identical slices: the first becomes a reduce_scatter, the second is
  // CSE'd onto it, and only then is the all_reduce single-use.
  Mesh mesh({{"a", 2}});
  SpmdModule spmd = TransposeBesideSlices(mesh, 2);
  EXPECT_EQ(OptimizeSpmd(spmd), 3);
  ExpectTransposeCommuted(spmd);
  EXPECT_EQ(spmd.main()->results()[1], spmd.main()->results()[2]);
  EXPECT_EQ(OptimizeSpmd(spmd), 0);
}

// Random chains of collectives, transposes, adds and sliced constants over
// two mesh axes: whatever order the rewrites enable each other in, one
// OptimizeSpmd call must leave a verified module at its fixpoint.
SpmdModule RandomCollectiveChain(uint32_t seed) {
  std::mt19937 rng(seed);
  auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  const std::vector<std::string> axes = {"a", "b"};
  auto axis_subset = [&](bool allow_empty) {
    std::vector<std::string> subset;
    size_t bits = allow_empty ? pick(4) : 1 + pick(3);
    for (size_t i = 0; i < axes.size(); ++i) {
      if ((bits >> i) & 1) subset.push_back(axes[i]);
    }
    if (pick(2) == 0) std::reverse(subset.begin(), subset.end());
    return subset;
  };
  OpBuilder builder(nullptr);
  SpmdModule spmd = EmptySpmd(Mesh({{"a", 2}, {"b", 2}}), builder);
  std::vector<Value*> values;
  for (int i = 0; i < 2; ++i) {
    values.push_back(spmd.main()->body().AddArg(TensorType({8, 8}), "x"));
  }
  auto recent = [&](size_t k) {  // one of the last k values
    return values[values.size() - 1 - pick(std::min(values.size(), k))];
  };
  int num_ops = 3 + static_cast<int>(pick(12));
  for (int i = 0; i < num_ops; ++i) {
    // Mostly extend one of the latest values, so chains get deep.
    Value* v = pick(2) == 0 ? values[pick(values.size())] : recent(3);
    std::vector<int64_t> dims = v->tensor_type().dims();
    size_t dim = pick(2);
    AxesPerDim one_axis(2);
    one_axis[dim].push_back(axes[pick(2)]);
    switch (pick(6)) {
      case 0: {
        std::vector<std::string> reduced = axis_subset(pick(4) == 0);
        Value* sum = builder.AllReduce(v, reduced);
        values.push_back(sum);
        // Often a transpose that commutes only into a single-use
        // all_reduce, then a slice over a reduced axis whose
        // reduce_scatter formation takes that second use away.
        if (!reduced.empty() && dims[dim] % 2 == 0 && pick(2) == 0) {
          if (pick(2) == 0) values.push_back(builder.Transpose(sum, {1, 0}));
          AxesPerDim sliced(2);
          sliced[dim].push_back(reduced[pick(reduced.size())]);
          values.push_back(builder.AllSlice(sum, sliced));
        }
        break;
      }
      case 1:
        if (dims[dim] % 2 == 0) values.push_back(builder.AllSlice(v, one_axis));
        break;
      case 2:
        values.push_back(builder.AllGather(v, one_axis));
        break;
      case 3:
        values.push_back(builder.Transpose(
            v, pick(2) == 0 ? std::vector<int64_t>{1, 0}
                            : std::vector<int64_t>{0, 1}));
        break;
      case 4: {
        std::vector<Value*> same_shape;
        for (Value* w : values) {
          if (w->tensor_type().dims() == dims) same_shape.push_back(w);
        }
        values.push_back(builder.Add(v, same_shape[pick(same_shape.size())]));
        break;
      }
      case 5:
        if (dims[dim] % 2 == 0) {
          values.push_back(
              builder.AllSlice(builder.Constant(1.0, dims), one_axis));
        }
        break;
    }
  }
  std::vector<Value*> results;
  size_t num_results = 1 + pick(3);
  for (size_t i = 0; i < num_results; ++i) results.push_back(recent(4));
  builder.Return(results);
  return spmd;
}

TEST(SpmdOptimizeTest, RandomCollectiveChainsReachAFixpointInOneCall) {
  for (uint32_t seed = 0; seed < 2000; ++seed) {
    for (unsigned mask : {kRewriteAllSpmd, kRewriteGatherSlice,
                          kRewriteReduceScatter}) {
      SpmdModule spmd = RandomCollectiveChain(seed);
      OptimizeSpmd(spmd, mask);
      EXPECT_TRUE(Verify(*spmd.module).empty())
          << "seed " << seed << " mask " << mask;
      EXPECT_EQ(OptimizeSpmd(spmd, mask), 0)
          << "seed " << seed << " mask " << mask << "\n"
          << Print(*spmd.module);
    }
  }
}

// ---- Fixpoint and golden values on the Fig. 8 programs ----

// What OptimizeSpmd leaves behind after one tactic prefix: collective
// counts and bytes, op count and the simulator's estimate.
struct OptimizedShape {
  int64_t all_gather, all_reduce, reduce_scatter, all_to_all, all_slice;
  int64_t ops;
  double comm_bytes, step_seconds, peak_memory_bytes;
};

struct Fig8Program {
  const char* name;
  std::function<Func*(Module&)> build;
  std::vector<ManualPartition> schedule;
  // One entry per tactic prefix. A drift means the optimizer now reaches a
  // different fixpoint: fix the visit order or rewrite priority, not these.
  std::vector<OptimizedShape> golden;
};

std::vector<ManualPartition> Manual(const std::vector<Tactic>& tactics) {
  std::vector<ManualPartition> manual;
  for (const Tactic& tactic : tactics) {
    manual.push_back(std::get<ManualPartition>(tactic));
  }
  return manual;
}

std::vector<Fig8Program> Fig8Programs() {
  using namespace schedules;
  TransformerConfig infer = TransformerConfig::T32Scaled();
  infer.seq = 16;
  return {
      {"T32",
       [](Module& m) {
         return BuildTransformerTrainingStep(m,
                                             TransformerConfig::T32Scaled());
       },
       Manual(TransformerBPMPZ3EMB()),
       {{0, 290, 0, 0, 0, 9833, 147832839, 0.0084729330184648097, 507350788},
        {0, 418, 0, 0, 0, 9961, 99598343, 0.0050952742305472969, 287149828},
        {259, 289, 129, 0, 0, 10220, 115195911, 0.0047241258927699873,
         241733380},
        {707, 292, 257, 0, 0, 10799, 146171399, 0.0052876300662902439,
         209784580}}},
      {"UNet",
       [](Module& m) { return BuildUNetTrainingStep(m, UNetConfig::Bench()); },
       {UNetBP(), UNetMP(), UNetZ3()},
       {{0, 172, 0, 0, 0, 5515, 26628959, 0.0013555786233585901, 65125252},
        {0, 266, 0, 0, 0, 5609, 16365823, 0.0010317599357015195, 37467012},
        {245, 95, 171, 0, 0, 5854, 23402111, 0.001046685429034854, 16263284}}},
      {"GNS",
       [](Module& m) { return BuildGnsTrainingStep(m, GnsConfig::Bench()); },
       {GnsES()},
       {{0, 322, 0, 0, 0, 12843, 7055552, 0.00088812988000002671, 21731348}}},
      {"IT32",
       [infer](Module& m) { return BuildTransformerInference(m, infer, 8); },
       {InferenceBP(), TransformerMP()},
       {{0, 0, 0, 0, 0, 13677, 0, 0.0016532832711110134, 93944000},
        {0, 576, 0, 0, 0, 14253, 9437184, 0.0017609602844445187, 47405248}}},
  };
}

TEST(SpmdOptimizeTest, Fig8ProgramsReachTheGoldenFixpointInOneCall) {
  Mesh mesh({{"batch", 8}, {"model", 2}});
  for (const Fig8Program& program : Fig8Programs()) {
    Module module;
    PartitionContext ctx(program.build(module), mesh);
    ctx.set_boundary_realization(true);
    for (size_t prefix = 0; prefix < program.schedule.size(); ++prefix) {
      SCOPED_TRACE(StrCat(program.name, " prefix ", prefix + 1));
      ASSERT_TRUE(
          ApplyManualTacticOrError(ctx, program.schedule[prefix]).ok());
      ctx.Propagate();
      SpmdModule spmd = LowerToSpmd(ctx);
      OptimizeSpmd(spmd);
      EXPECT_EQ(OptimizeSpmd(spmd), 0) << "not at a fixpoint";
      CollectiveStats stats = CountCollectives(*spmd.module, spmd.mesh);
      SimEstimate estimate = EstimateSpmd(spmd, Tpu_v3());
      OptimizedShape got{stats.all_gather,     stats.all_reduce,
                         stats.reduce_scatter, stats.all_to_all,
                         stats.all_slice,      CountOps(*spmd.main()),
                         stats.comm_bytes,     estimate.step_seconds,
                         estimate.peak_memory_bytes};
      ASSERT_LT(prefix, program.golden.size());
      const OptimizedShape& want = program.golden[prefix];
      EXPECT_EQ(got.all_gather, want.all_gather);
      EXPECT_EQ(got.all_reduce, want.all_reduce);
      EXPECT_EQ(got.reduce_scatter, want.reduce_scatter);
      EXPECT_EQ(got.all_to_all, want.all_to_all);
      EXPECT_EQ(got.all_slice, want.all_slice);
      EXPECT_EQ(got.ops, want.ops);
      EXPECT_DOUBLE_EQ(got.comm_bytes, want.comm_bytes);
      EXPECT_DOUBLE_EQ(got.step_seconds, want.step_seconds);
      EXPECT_DOUBLE_EQ(got.peak_memory_bytes, want.peak_memory_bytes);
    }
  }
}

// End-to-end property sweep: model x schedule x mesh. Every partitioned
// program must match the reference bit-for-bit (within float tolerance).
struct E2eParam {
  const char* name;
  int64_t b_size;
  int64_t m_size;
  int schedule;  // 0=BP, 1=BP+MP, 2=BP+MP+Z3, 3=MP only, 4=output-sharded
};

class SpmdE2eTest : public ::testing::TestWithParam<E2eParam> {};

TEST_P(SpmdE2eTest, PartitionedEqualsUnpartitioned) {
  const E2eParam& param = GetParam();
  Chain chain = BuildChain();
  PartitionContext ctx(chain.func,
                       Mesh({{"B", param.b_size}, {"M", param.m_size}}));
  switch (param.schedule) {
    case 0:
      ASSERT_TRUE(ctx.TileValue(chain.x, 0, "B"));
      ctx.Propagate();
      break;
    case 1:
      ASSERT_TRUE(ctx.TileValue(chain.x, 0, "B"));
      ctx.Propagate();
      ASSERT_TRUE(ctx.TileValue(chain.w1, 1, "M"));
      ctx.Propagate();
      break;
    case 2:
      ASSERT_TRUE(ctx.TileValue(chain.x, 0, "B"));
      ctx.Propagate();
      ASSERT_TRUE(ctx.TileValue(chain.w1, 1, "M"));
      ctx.Propagate();
      ASSERT_TRUE(ctx.TileValue(chain.w1, 0, "B"));
      ASSERT_TRUE(ctx.TileValue(chain.w2, 1, "B"));
      ctx.Propagate();
      break;
    case 3:
      ASSERT_TRUE(ctx.TileValue(chain.w1, 1, "M"));
      ctx.Propagate();
      break;
    case 4:
      ASSERT_TRUE(ctx.TileValue(chain.x, 0, "B"));
      ctx.Propagate();
      ASSERT_TRUE(ctx.TileValue(chain.w1, 1, "M"));
      ctx.Propagate();
      ASSERT_TRUE(ctx.TileValue(chain.out, 1, "M"));
      break;
  }
  ExpectSpmdEquivalent(ctx, 300 + param.schedule);
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, SpmdE2eTest,
    ::testing::Values(E2eParam{"bp_4x2", 4, 2, 0}, E2eParam{"bp_2x2", 2, 2, 0},
                      E2eParam{"bpmp_4x2", 4, 2, 1},
                      E2eParam{"bpmp_2x4", 2, 4, 1},
                      E2eParam{"fsdp_4x2", 4, 2, 2},
                      E2eParam{"fsdp_2x2", 2, 2, 2},
                      E2eParam{"mp_4x2", 4, 2, 3},
                      E2eParam{"es_4x2", 4, 2, 4},
                      E2eParam{"bp_16x1", 16, 1, 0},
                      E2eParam{"fsdp_8x1", 8, 1, 2}),
    [](const ::testing::TestParamInfo<E2eParam>& info) {
      return info.param.name;
    });

// Graph block with gather/scatter, lowered end-to-end.
TEST(SpmdE2eExtraTest, EdgeShardedGraphBlock) {
  Module module;
  Func* func = module.AddFunc("main");
  Value* nodes = func->body().AddArg(TensorType({10, 6}), "nodes");
  Value* senders =
      func->body().AddArg(TensorType({24}, DType::kS32), "senders");
  Value* w = func->body().AddArg(TensorType({6, 6}), "w");
  OpBuilder builder(&func->body());
  Value* edge_feats = builder.Gather(nodes, senders);
  Value* messages = builder.Tanh(builder.MatMul(edge_feats, w));
  Value* aggregated = builder.ScatterAdd(senders, messages, 10);
  Value* updated = builder.Add(nodes, aggregated);
  builder.Return({updated});

  PartitionContext ctx(func, Mesh({{"batch", 4}}));
  ASSERT_TRUE(ctx.TileValue(senders, 0, "batch"));
  ctx.Propagate();
  SpmdModule spmd = LowerToSpmd(ctx);
  OptimizeSpmd(spmd);
  CollectiveStats stats = CountCollectives(*spmd.module, spmd.mesh);
  // One AllReduce for the scatter partials (edge sharding).
  EXPECT_EQ(stats.all_reduce, 1);
  ExpectSpmdEquivalent(ctx, 400, /*index_modulus=*/10.0f);
}

TEST(SpmdE2eExtraTest, ConvolutionChannelsSharded) {
  Module module;
  Func* func = module.AddFunc("main");
  Value* img = func->body().AddArg(TensorType({4, 6, 6, 4}), "img");
  Value* f1 = func->body().AddArg(TensorType({3, 3, 4, 8}), "f1");
  Value* f2 = func->body().AddArg(TensorType({3, 3, 8, 4}), "f2");
  OpBuilder builder(&func->body());
  Value* h = builder.Convolution(img, f1);
  Value* out = builder.Convolution(h, f2);
  builder.Return({out});

  PartitionContext ctx(func, Mesh({{"B", 2}, {"M", 2}}));
  ASSERT_TRUE(ctx.TileValue(img, 0, "B"));
  ctx.Propagate();
  ASSERT_TRUE(ctx.TileValue(f1, 3, "M"));
  ctx.Propagate();
  SpmdModule spmd = LowerToSpmd(ctx);
  OptimizeSpmd(spmd);
  // Megatron-style conv sharding: the second conv contracts the sharded
  // channel dim -> one AllReduce.
  CollectiveStats stats = CountCollectives(*spmd.module, spmd.mesh);
  EXPECT_EQ(stats.all_reduce, 1);
  ExpectSpmdEquivalent(ctx, 401);
}

}  // namespace
}  // namespace partir
