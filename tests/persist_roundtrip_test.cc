// Round-trip property tests for the persistent-cache serializer: every
// example and serving workload's PartitionResult must survive
// serialize -> deserialize with bit-identical Run outputs on both
// execution backends and identical stage-snapshot prints; traced modules
// must round-trip through Program::Save / Program::Load with equal
// structural fingerprints. This suite runs under the ThreadSanitizer and
// debug-verify CI jobs.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <functional>

#include "src/api/partir.h"
#include "src/ir/fingerprint.h"
#include "src/ir/printer.h"
#include "src/models/gns.h"
#include "src/models/schedules.h"
#include "src/models/serving.h"
#include "src/models/transformer.h"
#include "src/persist/serializer.h"
#include "src/persist/store.h"
#include "src/serve/batcher.h"

namespace partir {
namespace {

using serving::AllServeWorkloads;
using serving::ServeWorkload;

/** Unique temp directory removed on scope exit. */
struct ScopedDir {
  explicit ScopedDir(const std::string& tag) {
    static int counter = 0;
    path = (std::filesystem::temp_directory_path() /
            (tag + "." + std::to_string(::getpid()) + "." +
             std::to_string(counter++)))
               .string();
    std::filesystem::create_directories(path);
  }
  ~ScopedDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

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

/**
 * The round-trip property: serialize + deserialize the result, then check
 * the copy is observably identical — printed SPMD module, shardings,
 * metadata, every stage snapshot (including the aliasing structure), and
 * bit-identical Run outputs on the interpreting and compiled backends.
 */
void ExpectRoundTrips(const PartitionResult& original,
                      const std::vector<Tensor>& inputs,
                      const std::string& label) {
  std::string bytes = persist::SerializePartitionResult(original);
  StatusOr<PartitionResult> restored =
      persist::DeserializePartitionResult(bytes);
  ASSERT_TRUE(restored.ok()) << label << ": " << restored.status().ToString();

  EXPECT_EQ(Print(*original.spmd.module), Print(*restored->spmd.module))
      << label;
  EXPECT_EQ(original.spmd.mesh.ToString(), restored->spmd.mesh.ToString());
  ASSERT_EQ(original.spmd.input_shardings.size(),
            restored->spmd.input_shardings.size());
  for (size_t i = 0; i < original.spmd.input_shardings.size(); ++i) {
    EXPECT_EQ(original.spmd.input_shardings[i].axes,
              restored->spmd.input_shardings[i].axes);
  }
  ASSERT_EQ(original.spmd.output_shardings.size(),
            restored->spmd.output_shardings.size());
  for (size_t i = 0; i < original.spmd.output_shardings.size(); ++i) {
    EXPECT_EQ(original.spmd.output_shardings[i].axes,
              restored->spmd.output_shardings[i].axes);
  }

  // A compiled device program present before must be present after (and
  // the collective plan is always rebuilt).
  EXPECT_EQ(original.spmd.exec_program != nullptr,
            restored->spmd.exec_program != nullptr)
      << label;
  EXPECT_NE(restored->spmd.plan, nullptr) << label;

  // Metadata fidelity.
  EXPECT_EQ(original.collectives.ToString(), restored->collectives.ToString());
  EXPECT_EQ(original.estimate.ToString(), restored->estimate.ToString());
  EXPECT_EQ(original.partition_seconds, restored->partition_seconds);
  ASSERT_EQ(original.tactics.size(), restored->tactics.size());
  for (size_t i = 0; i < original.tactics.size(); ++i) {
    EXPECT_EQ(original.tactics[i].name, restored->tactics[i].name);
    EXPECT_EQ(original.tactics[i].actions_applied,
              restored->tactics[i].actions_applied);
    EXPECT_EQ(original.tactics[i].collectives.ToString(),
              restored->tactics[i].collectives.ToString());
    EXPECT_EQ(original.tactics[i].estimate.ToString(),
              restored->tactics[i].estimate.ToString());
  }
  ASSERT_EQ(original.conflicts.size(), restored->conflicts.size());
  for (size_t i = 0; i < original.conflicts.size(); ++i) {
    EXPECT_EQ(original.conflicts[i].axis, restored->conflicts[i].axis);
    EXPECT_EQ(original.conflicts[i].reason, restored->conflicts[i].reason);
  }
  ASSERT_EQ(original.pipeline.passes.size(), restored->pipeline.passes.size());
  EXPECT_EQ(original.pipeline.ToString(), restored->pipeline.ToString());

  // Stage snapshots: identical prints, and aliasing preserved — snapshots
  // sharing one module before the round trip share one after.
  ASSERT_EQ(original.snapshots.size(), restored->snapshots.size()) << label;
  for (size_t i = 0; i < original.snapshots.size(); ++i) {
    EXPECT_EQ(original.snapshots[i].pass, restored->snapshots[i].pass);
    EXPECT_EQ(original.snapshots[i].tactic_index,
              restored->snapshots[i].tactic_index);
    EXPECT_EQ(original.snapshots[i].final_loops,
              restored->snapshots[i].final_loops);
    EXPECT_EQ(original.snapshots[i].form, restored->snapshots[i].form);
    EXPECT_EQ(Print(*original.snapshots[i].module),
              Print(*restored->snapshots[i].module))
        << label << " snapshot " << i;
    for (size_t j = 0; j < i; ++j) {
      EXPECT_EQ(original.snapshots[i].module == original.snapshots[j].module,
                restored->snapshots[i].module == restored->snapshots[j].module)
          << label << " aliasing between snapshots " << j << " and " << i;
    }
  }

  // Execution fidelity, both backends, sequential and threaded.
  for (int num_threads : {1, 0}) {
    for (ExecBackend backend :
         {ExecBackend::kInterpret, ExecBackend::kCompiled}) {
      RunOptions run;
      run.num_threads = num_threads;
      run.backend = backend;
      StatusOr<std::vector<Tensor>> want = RunSpmd(original.spmd, inputs, run);
      StatusOr<std::vector<Tensor>> got = RunSpmd(restored->spmd, inputs, run);
      ASSERT_TRUE(want.ok()) << label << ": " << want.status().ToString();
      ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
      ExpectBitIdentical(*want, *got, label);
    }
  }
}

/** Runs the full pipeline with stage capture on and checks the property. */
void CheckWorkload(Program& program, const std::vector<Tactic>& schedule,
                   const Mesh& mesh, const std::vector<Tensor>& inputs,
                   const std::string& label) {
  PartitionOptions options;
  options.capture_stages = true;
  PartitionContext ctx(program.func(), mesh);
  StatusOr<PartitionResult> result = PartirJitOrError(ctx, schedule, options);
  ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
  ExpectRoundTrips(*result, inputs, label);
}

Program BuildChainProgram() {
  Program program("main");
  Value* x = program.AddInput(TensorType({256, 8}), "x");
  Value* w1 = program.AddInput(TensorType({8, 16}), "w1");
  Value* w2 = program.AddInput(TensorType({16, 8}), "w2");
  OpBuilder& builder = program.builder();
  program.Return({builder.MatMul(builder.MatMul(x, w1), w2)});
  return program;
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

// ---- The example workloads ----

TEST(PersistRoundTripTest, QuickstartChainBpMpZ3) {
  Program program = BuildChainProgram();
  CheckWorkload(program,
                {ManualPartition{"BP", {{"x", 0}}, "B"},
                 ManualPartition{"MP", {{"w1", 1}}, "M"},
                 ManualPartition{"Z3", {{"w1", 0}, {"w2", 1}}, "B"}},
                Mesh({{"B", 4}, {"M", 2}}), program.RandomInputs(1),
                "quickstart");
}

TEST(PersistRoundTripTest, TransformerTrainingBpMp) {
  TransformerConfig config = SmallTransformer();
  Program program = Program::Capture([&](Module& module) {
    return BuildTransformerTrainingStep(module, config);
  });
  CheckWorkload(
      program, {schedules::TransformerBP(), schedules::TransformerMP()},
      Mesh({{"batch", 2}, {"model", 2}}),
      program.RandomInputs(21, static_cast<float>(config.vocab)),
      "transformer training");
}

TEST(PersistRoundTripTest, TransformerInferenceBp) {
  TransformerConfig config = SmallTransformer();
  Program program = Program::Capture([&](Module& module) {
    return BuildTransformerInference(module, config, /*decode_steps=*/2);
  });
  CheckWorkload(program, {schedules::InferenceBP()}, Mesh({{"batch", 4}}),
                program.RandomInputs(22, static_cast<float>(config.vocab)),
                "transformer inference");
}

TEST(PersistRoundTripTest, GnsEdgeSharding) {
  GnsConfig config;
  config.message_steps = 2;
  config.num_edges = 16;
  config.num_nodes = 8;
  Program program = Program::Capture(
      [&](Module& module) { return BuildGnsLoss(module, config); });
  CheckWorkload(program, {schedules::GnsES()}, Mesh({{"batch", 4}}),
                program.RandomInputs(23, static_cast<float>(config.num_nodes)),
                "gns edge sharding");
}

TEST(PersistRoundTripTest, AutomaticPartitioning) {
  Program program = BuildChainProgram();
  AutomaticPartition automatic;
  automatic.name = "auto";
  automatic.axes = {"B"};
  automatic.options.simulations = 16;
  CheckWorkload(program, {automatic}, Mesh({{"B", 4}}),
                program.RandomInputs(24), "automatic");
}

// ---- All five serving workloads ----

TEST(PersistRoundTripTest, ServingWorkloadsRoundTrip) {
  for (const ServeWorkload& workload : AllServeWorkloads()) {
    SCOPED_TRACE(workload.name);
    Program program = Program::Capture(workload.build, /*batch=*/4);
    std::vector<Tensor> inputs =
        program.RandomInputs(31, workload.index_modulus);
    PartitionContext ctx(program.func(), workload.mesh);
    PartitionOptions options;
    options.capture_stages = true;
    StatusOr<PartitionResult> result =
        PartirJitOrError(ctx, workload.schedule, options);
    if (!result.ok()) {
      // Batch sizes the schedule cannot shard serve unpartitioned (the
      // batcher's fallback); the serializer must cover that shape too.
      PartitionContext fallback(program.func(), workload.mesh);
      result = PartirJitOrError(fallback, {}, options);
    }
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectRoundTrips(*result, inputs, workload.name);
  }
}

// ---- Module and Program facade round trips ----

TEST(PersistRoundTripTest, ModuleBytesRoundTripPrintAndFingerprint) {
  Program program = BuildChainProgram();
  std::string bytes = persist::SerializeModule(program.module());
  StatusOr<std::unique_ptr<Module>> restored =
      persist::DeserializeModule(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(Print(*program.func()), Print(*(*restored)->main()));
  EXPECT_EQ(FingerprintFunc(*program.func()),
            FingerprintFunc(*(*restored)->main()));
  // Deterministic bytes: re-serializing the restored module is identical.
  EXPECT_EQ(bytes, persist::SerializeModule(**restored));
}

TEST(PersistRoundTripTest, ProgramSaveLoadPartitionsIdentically) {
  ScopedDir dir("partir-saveload");
  std::string path = dir.path + "/chain.program";

  Program original = BuildChainProgram();
  ASSERT_TRUE(original.Save(path).ok());

  StatusOr<Program> loaded = Program::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(original.Print(), loaded->Print());
  EXPECT_EQ(original.TraceFingerprint(), loaded->TraceFingerprint());
  EXPECT_TRUE(loaded->sealed());
  EXPECT_EQ(original.num_inputs(), loaded->num_inputs());

  // The loaded program partitions and runs identically to the original.
  Mesh mesh({{"B", 4}, {"M", 2}});
  std::vector<Tactic> schedule = {ManualPartition{"BP", {{"x", 0}}, "B"},
                                  ManualPartition{"MP", {{"w1", 1}}, "M"}};
  Executable exe_a = original.Partition(schedule, mesh).value();
  Executable exe_b = loaded->Partition(schedule, mesh).value();
  std::vector<Tensor> inputs = original.RandomInputs(7);
  ExpectBitIdentical(exe_a.Run(inputs).value(), exe_b.Run(inputs).value(),
                     "save/load");
}

TEST(PersistRoundTripTest, ExecutableSaveResultRoundTrips) {
  ScopedDir dir("partir-saveresult");
  std::string path = dir.path + "/chain.result";

  Program program = BuildChainProgram();
  Mesh mesh({{"B", 4}});
  Executable exe =
      program.Partition({ManualPartition{"BP", {{"x", 0}}, "B"}}, mesh)
          .value();
  ASSERT_TRUE(exe.SaveResult(path).ok());

  StatusOr<std::string> bytes = persist::ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  StatusOr<std::string> payload = persist::DecodeEntry(
      *bytes, persist::PayloadKind::kPartitionResult,
      "partir-partition-result");
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  StatusOr<PartitionResult> restored =
      persist::DeserializePartitionResult(*payload);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  std::vector<Tensor> inputs = program.RandomInputs(9);
  ExpectBitIdentical(exe.Run(inputs).value(),
                     RunSpmd(restored->spmd, inputs, {}).value(),
                     "SaveResult");
}

// ---- The serving batcher warms from disk ----

TEST(PersistRoundTripTest, BatcherWarmsFromDiskCache) {
  ScopedDir dir("partir-batcher-cache");
  ServeWorkload workload = serving::MatMulChainWorkload();

  BatchOptions batch_options;
  batch_options.max_batch = 2;
  batch_options.max_delay_us = 0;
  PartitionOptions partition_options;
  partition_options.cache_dir = dir.path;

  auto factory = [&](const std::string&, int64_t batch) {
    return StatusOr<Program>(Program::Capture(workload.build, batch));
  };
  serving::WorkloadHarness harness(workload);
  std::vector<Tensor> outputs_cold;

  // Process-A stand-in: compile through an empty disk cache and persist.
  {
    auto cache = std::make_shared<PartitionCache>();
    Batcher batcher(factory, workload.schedule, workload.mesh, batch_options,
                    partition_options, cache);
    ServeFuture future = batcher.Submit(harness.Request(1));
    ServeResponse response = future.get();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    outputs_cold = *response;
    PartitionCacheStats stats = cache->stats();
    EXPECT_EQ(stats.disk_hits, 0);
    EXPECT_GT(stats.disk_misses, 0);
    cache->FlushDiskWrites();
    EXPECT_GT(cache->stats().disk_writes, 0);
  }

  // Process-B stand-in: a fresh batcher + fresh cache over the same
  // directory must warm from disk instead of recompiling.
  {
    auto cache = std::make_shared<PartitionCache>();
    Batcher batcher(factory, workload.schedule, workload.mesh, batch_options,
                    partition_options, cache);
    ServeFuture future = batcher.Submit(harness.Request(1));
    ServeResponse response = future.get();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ExpectBitIdentical(outputs_cold, *response, "disk-warm batcher");
    PartitionCacheStats stats = cache->stats();
    EXPECT_GT(stats.disk_hits, 0);
    EXPECT_EQ(stats.disk_corrupt, 0);
  }
}


// ---- Forged artifacts ----
//
// Each forgery keeps a valid frame and checksum around IR that breaks one
// op rule. Every loader must answer with kDataLoss — Program::Load, the
// partition cache's disk tier (which then recompiles to the cold result)
// and DeserializePartitionResult — never with a crash or a wrong answer.

/** x·w -> transpose: the program every forgery starts from. */
Program BuildDotTransposeProgram() {
  Program program("forge");
  Value* x = program.AddInput(TensorType({8, 4}), "x");
  Value* w = program.AddInput(TensorType({4, 8}), "w");
  OpBuilder& builder = program.builder();
  program.Return({builder.Transpose(builder.MatMul(x, w), {1, 0})});
  return program;
}

Operation* FirstOp(Module& module, OpKind kind) {
  Operation* found = nullptr;
  WalkOps(module.main()->body(), [&](Operation& op) {
    if (found == nullptr && op.kind() == kind) found = &op;
  });
  PARTIR_CHECK(found != nullptr) << "no " << OpKindName(kind) << " op";
  return found;
}

/** A builder inserting at the front of `module`'s main body. */
OpBuilder FrontBuilder(Module& module) {
  Block& body = module.main()->body();
  OpBuilder builder(&body);
  builder.SetInsertionPoint(&body, 0);
  return builder;
}

struct Forgery {
  std::string name;
  std::function<void(Module&)> apply;
};

std::vector<Forgery> Forgeries() {
  return {
      {"transpose perm={1,7}",
       [](Module& m) {
         FirstOp(m, OpKind::kTranspose)
             ->attrs()
             .Set("perm", std::vector<int64_t>{1, 7});
       }},
      {"dot lhs_contract={5}",
       [](Module& m) {
         FirstOp(m, OpKind::kDot)
             ->attrs()
             .Set("lhs_contract", std::vector<int64_t>{5});
       }},
      {"perm of string type",
       [](Module& m) {
         FirstOp(m, OpKind::kTranspose)
             ->attrs()
             .Set("perm", std::string("1,0"));
       }},
      {"wrong declared result type",
       [](Module& m) {
         FirstOp(m, OpKind::kTranspose)
             ->result()
             ->set_type(TensorType({3, 3}));
       }},
      {"missing required attribute",
       [](Module& m) { FirstOp(m, OpKind::kTranspose)->attrs() = AttrMap(); }},
      {"loop without a yield",
       [](Module& m) {
         FrontBuilder(m).Loop("B", 2, "tile", 0, TensorType({8, 4}));
       }},
      {"unknown collective axis",
       [](Module& m) {
         FrontBuilder(m).AllReduce(m.main()->body().arg(0), {"Q"});
       }},
  };
}

/** The partition-result bytes of `result` with `forgery` applied. */
std::string ForgeResult(const std::string& bytes, const Forgery& forgery) {
  StatusOr<PartitionResult> result =
      persist::DeserializePartitionResult(bytes);
  PARTIR_CHECK(result.ok()) << result.status().ToString();
  forgery.apply(*result->spmd.module);
  return persist::SerializePartitionResult(*result);
}

/** The cache key stored in a framed entry's header. */
std::string EntryKey(const std::string& entry) {
  persist::ByteReader reader(entry);
  for (int i = 0; i < 8; ++i) reader.ReadU8();  // magic
  reader.ReadU32();                             // format version
  reader.ReadU32();                             // payload kind
  return reader.ReadStr();
}

TEST(PersistForgedArtifactTest, EveryLoaderRejectsForgedIrWithDataLoss) {
  const Mesh mesh({{"B", 2}});
  const std::vector<Tactic> schedule = {
      ManualPartition{"BP", {{"x", 0}}, "B"}};
  Program reference = BuildDotTransposeProgram();
  const std::vector<Tensor> inputs = reference.RandomInputs(41);
  const std::vector<Tensor> cold =
      reference.Partition(schedule, mesh).value().Run(inputs).value();
  PartitionContext ctx(reference.func(), mesh);
  const std::string result_bytes = persist::SerializePartitionResult(
      PartirJitOrError(ctx, schedule, {}).value());

  for (const Forgery& forgery : Forgeries()) {
    SCOPED_TRACE(forgery.name);
    ScopedDir dir("partir-forged");

    // Program::Load over a forged Program::Save file.
    const std::string program_path = dir.path + "/forged.program";
    Program forged = BuildDotTransposeProgram();
    forgery.apply(forged.module());
    ASSERT_TRUE(forged.Save(program_path).ok());
    StatusOr<Program> loaded = Program::Load(program_path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << loaded.status().ToString();

    // DeserializePartitionResult over forged result bytes.
    const std::string forged_bytes = ForgeResult(result_bytes, forgery);
    StatusOr<PartitionResult> restored =
        persist::DeserializePartitionResult(forged_bytes);
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.status().code(), StatusCode::kDataLoss)
        << restored.status().ToString();

    // A forged disk-tier entry: counted as corrupt, then recompiled.
    PartitionOptions options;
    options.cache_dir = dir.path + "/cache";
    {
      Program program = BuildDotTransposeProgram();
      ASSERT_TRUE(program.Partition(schedule, mesh, options).ok());
      program.partition_cache()->FlushDiskWrites();
    }
    int entries = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(options.cache_dir)) {
      const std::string path = entry.path().string();
      StatusOr<std::string> bytes = persist::ReadFileToString(path);
      ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
      const std::string key = EntryKey(*bytes);
      StatusOr<std::string> payload = persist::DecodeEntry(
          *bytes, persist::PayloadKind::kPartitionResult, key);
      ASSERT_TRUE(payload.ok()) << payload.status().ToString();
      ASSERT_TRUE(persist::WriteFileAtomic(
                      path, persist::EncodeEntry(
                                persist::PayloadKind::kPartitionResult, key,
                                ForgeResult(*payload, forgery)))
                      .ok());
      ++entries;
    }
    ASSERT_EQ(entries, 1);
    Program program = BuildDotTransposeProgram();
    StatusOr<Executable> exe = program.Partition(schedule, mesh, options);
    ASSERT_TRUE(exe.ok()) << exe.status().ToString();
    PartitionCacheStats stats = program.cache_stats();
    EXPECT_EQ(stats.disk_hits, 0);
    EXPECT_EQ(stats.disk_corrupt, 1);
    ExpectBitIdentical(cold, exe->Run(inputs).value(), forgery.name);
  }
}

}  // namespace
}  // namespace partir
