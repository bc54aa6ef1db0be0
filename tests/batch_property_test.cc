// Property tests for the batching invariants, over seeded random batch
// compositions on all five serving workloads (src/models/serving.h):
//   * stacking -> Run -> de-stacking equals per-request unbatched Run,
//     bit-identically (the deterministic runtime's group-position-ordered
//     collectives make this exact, not approximate);
//   * executed batch sizes never exceed BatchOptions::max_batch;
//   * deadline-expired requests resolve kDeadlineExceeded — never a silent
//     drop, and never an executed slot;
//   * batch sizes the schedule cannot shard fall back to an unpartitioned
//     executable and still return correct outputs;
// plus direct properties of the stacking helpers themselves.
#include <gtest/gtest.h>

#include <chrono>
#include <random>

#include "src/models/serving.h"
#include "src/serve/batcher.h"
#include "src/spmd/batching.h"

namespace partir {
namespace {

using Micros = std::chrono::microseconds;
using serving::AllServeWorkloads;
using serving::ServeWorkload;
using serving::WorkloadHarness;

bool BitIdentical(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].dims() != b[i].dims() || a[i].data() != b[i].data()) return false;
  }
  return true;
}

/** Per-request unbatched reference: the unit executable's reference
 *  program, run sequentially (fallback to unpartitioned when the
 *  schedule cannot shard the unit batch, as the batcher itself would). */
Executable UnitReference(WorkloadHarness& harness, const ServeWorkload& w) {
  StatusOr<Executable> exe = harness.unit().Partition(w.schedule, w.mesh);
  if (exe.ok()) return std::move(exe).value();
  return harness.unit().Partition({}, w.mesh).value();
}

TEST(BatchPropertyTest, StackRunDestackEqualsPerRequestRunOnAllWorkloads) {
  std::mt19937 rng(2026);
  const int64_t kMaxBatch = 4;
  for (const ServeWorkload& workload : AllServeWorkloads()) {
    SCOPED_TRACE(workload.name);
    WorkloadHarness harness(workload);
    Executable reference = UnitReference(harness, workload);
    RunOptions sequential;
    sequential.num_threads = 1;
    sequential.backend = ExecBackend::kInterpret;

    Program program = Program::Capture(workload.build, 1);
    BatchOptions options;
    options.max_batch = kMaxBatch;
    options.max_delay_us = 30000;  // bursts coalesce into one batch
    std::unique_ptr<Batcher> batcher =
        program.Serve(workload.schedule, workload.mesh, options).value();

    std::uniform_int_distribution<int64_t> batch_size(1, kMaxBatch);
    const int kTrials = 3;
    uint64_t seed = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      const int64_t k = batch_size(rng);
      std::vector<ServeFuture> futures;
      std::vector<std::vector<Tensor>> want;
      for (int64_t r = 0; r < k; ++r) {
        std::vector<Tensor> inputs = harness.Request(1000 + seed++);
        want.push_back(reference.Run(inputs, sequential).value());
        futures.push_back(batcher->Submit(std::move(inputs)));
      }
      for (int64_t r = 0; r < k; ++r) {
        ServeResponse response = futures[r].get();
        ASSERT_TRUE(response.ok()) << response.status().ToString();
        EXPECT_TRUE(BitIdentical(response.value(), want[r]))
            << "trial " << trial << " request " << r << " of batch " << k;
      }
    }
    batcher->Shutdown();
    BatcherStats stats = batcher->stats();
    EXPECT_LE(stats.max_batch_observed, kMaxBatch);
    EXPECT_EQ(stats.failed, 0);
    EXPECT_EQ(stats.expired, 0);
  }
}

TEST(BatchPropertyTest, BatchSizesNeverExceedMaxBatchUnderBursts) {
  ServeWorkload workload = serving::MatMulChainWorkload();
  Program program = Program::Capture(workload.build, 1);
  WorkloadHarness harness(workload);
  BatchOptions options;
  options.max_batch = 3;
  options.max_delay_us = 10000;
  std::unique_ptr<Batcher> batcher =
      program.Serve(workload.schedule, workload.mesh, options).value();
  std::vector<ServeFuture> futures;
  for (int r = 0; r < 20; ++r) {
    futures.push_back(batcher->Submit(harness.Request(50 + r)));
  }
  for (ServeFuture& future : futures) {
    EXPECT_TRUE(future.get().ok());
  }
  batcher->Shutdown();
  BatcherStats stats = batcher->stats();
  EXPECT_LE(stats.max_batch_observed, 3);
  EXPECT_EQ(stats.batched_requests, 20);
  // A 20-request burst against max_batch=3 must split into >= 7 batches.
  EXPECT_GE(stats.batches, 7);
}

TEST(BatchPropertyTest, ExpiredRequestsGetDeadlineExceededNotSilentDrops) {
  ServeWorkload workload = serving::MatMulChainWorkload();
  Program program = Program::Capture(workload.build, 1);
  WorkloadHarness harness(workload);
  BatchOptions options;
  options.max_batch = 4;
  options.max_delay_us = 500;
  std::unique_ptr<Batcher> batcher =
      program.Serve(workload.schedule, workload.mesh, options).value();

  // A zero timeout is already expired when the dispatcher first sees the
  // request: deterministic kDeadlineExceeded, while normal requests around
  // it complete.
  ServeFuture alive_before = batcher->Submit(harness.Request(1));
  ServeFuture dead = batcher->Submit(harness.Request(2), Micros(0));
  ServeFuture alive_after = batcher->Submit(harness.Request(3));

  ServeResponse dead_response = dead.get();
  ASSERT_FALSE(dead_response.ok());
  EXPECT_EQ(dead_response.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(alive_before.get().ok());
  EXPECT_TRUE(alive_after.get().ok());

  batcher->Shutdown();
  BatcherStats stats = batcher->stats();
  EXPECT_EQ(stats.expired, 1);
  EXPECT_EQ(stats.completed, 2);
  // Accounting closes: every submitted request resolved one way.
  EXPECT_EQ(stats.submitted, stats.completed + stats.expired + stats.failed);
}

TEST(BatchPropertyTest, UnshardableBatchSizesFallBackAndStayCorrect) {
  // The attention workload's unit batch dim is 1 over a size-2 mesh axis:
  // odd coalesced sizes cannot shard dim 0, so the batcher must compile
  // them unpartitioned — and their outputs must still match per-request
  // references bit-identically.
  ServeWorkload workload = serving::AttentionWorkload();
  WorkloadHarness harness(workload);
  Executable reference = UnitReference(harness, workload);
  RunOptions sequential;
  sequential.num_threads = 1;
  sequential.backend = ExecBackend::kInterpret;

  Program program = Program::Capture(workload.build, 1);
  BatchOptions options;
  options.max_batch = 3;
  options.max_delay_us = 30000;
  std::unique_ptr<Batcher> batcher =
      program.Serve(workload.schedule, workload.mesh, options).value();
  std::vector<ServeFuture> futures;
  std::vector<std::vector<Tensor>> want;
  for (int r = 0; r < 3; ++r) {  // one full batch of 3 (odd -> fallback)
    std::vector<Tensor> inputs = harness.Request(70 + r);
    want.push_back(reference.Run(inputs, sequential).value());
    futures.push_back(batcher->Submit(std::move(inputs)));
  }
  for (int r = 0; r < 3; ++r) {
    ServeResponse response = futures[r].get();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(BitIdentical(response.value(), want[r]));
  }
  batcher->Shutdown();
  EXPECT_GE(batcher->stats().fallbacks, 1);
}

// ---- The stacking helpers themselves ----

TEST(BatchStackingTest, StackUnstackRoundTripsSeededRandomTensors) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<int64_t> dim(1, 5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<int64_t> dims = {dim(rng), dim(rng), dim(rng)};
    int64_t parts = dim(rng);
    std::vector<Tensor> originals;
    std::vector<const Tensor*> pointers;
    for (int64_t p = 0; p < parts; ++p) {
      originals.push_back(Tensor::Random(dims, trial * 10 + p));
    }
    for (const Tensor& original : originals) pointers.push_back(&original);
    Tensor stacked = StackBatch(pointers).value();
    ASSERT_EQ(stacked.dim(0), dims[0] * parts);
    std::vector<Tensor> back = UnstackBatch(stacked, parts).value();
    ASSERT_EQ(back.size(), originals.size());
    for (int64_t p = 0; p < parts; ++p) {
      EXPECT_EQ(back[p].dims(), originals[p].dims());
      EXPECT_EQ(back[p].data(), originals[p].data());
    }
  }
}

TEST(BatchStackingTest, MixedShapesAndBadSplitsAreTypedErrors) {
  Tensor a({2, 3}, 1.0f);
  Tensor b({3, 3}, 2.0f);
  StatusOr<Tensor> mixed = StackBatch({&a, &b});
  ASSERT_FALSE(mixed.ok());
  EXPECT_EQ(mixed.status().code(), StatusCode::kInvalidArgument);

  StatusOr<std::vector<Tensor>> bad_split = UnstackBatch(a, 5);
  ASSERT_FALSE(bad_split.ok());
  EXPECT_EQ(bad_split.status().code(), StatusCode::kInvalidArgument);

  EXPECT_FALSE(StackBatch({}).ok());
}

TEST(BatchStackingTest, ClassifyBatchDimsSeparatesSharedFromBatched) {
  EXPECT_EQ(ClassifyBatchDims({8, 16}, {8, 16}, 3).value(),
            BatchDimKind::kShared);
  EXPECT_EQ(ClassifyBatchDims({8, 16}, {24, 16}, 3).value(),
            BatchDimKind::kBatched);
  // Wrong scale factor, scaled non-batch dim, changed rank: typed errors.
  EXPECT_FALSE(ClassifyBatchDims({8, 16}, {16, 16}, 3).ok());
  EXPECT_FALSE(ClassifyBatchDims({8, 16}, {24, 32}, 3).ok());
  EXPECT_FALSE(ClassifyBatchDims({8, 16}, {24, 16, 1}, 3).ok());
}

}  // namespace
}  // namespace partir
