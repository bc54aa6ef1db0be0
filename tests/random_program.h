/**
 * @file
 * Seeded random programs and schedules for differential tests: the
 * generator behind ExecBackendRandomTest (reference vs optimized vs
 * Evaluate, plus a save/load leg) and the propagation equivalence pins.
 */
#ifndef PARTIR_TESTS_RANDOM_PROGRAM_H_
#define PARTIR_TESTS_RANDOM_PROGRAM_H_

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <functional>
#include <initializer_list>
#include <random>
#include <string>
#include <vector>

#include "src/api/partir.h"
#include "src/ir/builder.h"
#include "src/persist/serializer.h"
#include "src/persist/store.h"

namespace partir {

/**
 * Builds a random traced program over OpBuilder's array ops and a random
 * ManualPartition schedule for it. Every dim is a multiple of the mesh's
 * device count, so any dim may be sharded on either axis or both; ops that
 * would break that (slices, concatenations) keep to multiples of it.
 */
class RandomProgramCase {
 public:
  explicit RandomProgramCase(uint64_t seed) : rng_(seed), program_("random") {
    // A 1- or 2-axis mesh with axes of size 2 or 4 (at most 8 devices).
    std::vector<MeshAxis> axes = {{"a", Pick({2, 4})}};
    if (Coin()) axes.push_back({"b", axes[0].size == 4 ? 2 : Pick({2, 4})});
    mesh_ = Mesh(axes);
    unit_ = mesh_.NumDevices();

    const int num_inputs = Uniform(1, 3);
    for (int i = 0; i < num_inputs; ++i) {
      std::string name = "x" + std::to_string(i);
      pool_.push_back(program_.AddInput(TensorType({Dim(), Dim()}), name));
      input_names_.push_back(name);
    }
    const int num_ops = Uniform(4, 12);
    for (int i = 0; i < num_ops; ++i) pool_.push_back(RandomOp());
    // The last two values and a random one, so few ops are dead code.
    std::vector<Value*> outputs = {pool_.back()};
    for (Value* extra : {pool_[pool_.size() - 2], Operand()}) {
      if (std::find(outputs.begin(), outputs.end(), extra) == outputs.end()) {
        outputs.push_back(extra);
      }
    }
    program_.Return(outputs);

    const int num_tactics = Uniform(1, 3);
    for (int t = 0; t < num_tactics; ++t) {
      ManualPartition tactic;
      tactic.name = "t" + std::to_string(t);
      tactic.axis = axes[Uniform(0, static_cast<int>(axes.size()) - 1)].name;
      const int num_keys = Uniform(1, 2);
      for (int k = 0; k < num_keys; ++k) {
        const std::string& key =
            input_names_[Uniform(0, static_cast<int>(input_names_.size()) - 1)];
        // Dim 2 is out of range for the rank-2 inputs: a typed error.
        tactic.inputs.push_back(
            {key, Pick({0, 1, 1, 0, kFirstDivisibleDim, kReplicated, 2})});
      }
      schedule_.push_back(tactic);
    }
  }

  Program& program() { return program_; }
  const Mesh& mesh() const { return mesh_; }
  const std::vector<Tactic>& schedule() const { return schedule_; }

 private:
  int Uniform(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }
  bool Coin() { return Uniform(0, 1) == 1; }
  int64_t Pick(std::initializer_list<int64_t> options) {
    return options.begin()[Uniform(0, static_cast<int>(options.size()) - 1)];
  }
  int64_t Dim() { return unit_ * Pick({1, 2}); }

  /** An operand for the next op: usually one of the two newest values,
   *  so ops chain into each other instead of fanning out from inputs. */
  Value* Operand() {
    const int n = static_cast<int>(pool_.size());
    if (n > 2 && Uniform(0, 2) > 0) return pool_[n - 1 - Uniform(0, 1)];
    return pool_[Uniform(0, n - 1)];
  }

  /** A random pool value of rank `rank`, or null when there is none. */
  Value* PickOfRank(int64_t rank) {
    std::vector<Value*> matches;
    for (Value* v : pool_) {
      if (v->tensor_type().rank() == rank) matches.push_back(v);
    }
    if (matches.empty()) return nullptr;
    return matches[Uniform(0, static_cast<int>(matches.size()) - 1)];
  }
  /** A random pool value other than `avoid` whose dims satisfy `pred`,
   *  else `fallback`. */
  Value* PickWhere(const std::function<bool(const Value*)>& pred,
                   Value* fallback, const Value* avoid = nullptr) {
    std::vector<Value*> matches;
    for (Value* v : pool_) {
      if (v != avoid && pred(v)) matches.push_back(v);
    }
    if (matches.empty()) return fallback;
    return matches[Uniform(0, static_cast<int>(matches.size()) - 1)];
  }

  Value* RandomOp() {
    OpBuilder& b = program_.builder();
    Value* v = Operand();
    const std::vector<int64_t> dims = v->tensor_type().dims();
    const int64_t rank = v->tensor_type().rank();
    switch (Uniform(0, 8)) {
      case 0: {  // MatMul of two rank-2 values (the rhs transposed if needed)
        Value* lhs = rank == 2 ? v : PickOfRank(2);
        if (lhs == nullptr) break;
        int64_t k = lhs->tensor_type().dim(1);
        Value* rhs = PickWhere(
            [k](const Value* c) {
              return c->tensor_type().rank() == 2 &&
                     c->tensor_type().dim(0) == k;
            },
            nullptr);
        if (rhs == nullptr) rhs = b.Transpose(lhs, {1, 0});
        return b.MatMul(lhs, rhs);
      }
      case 1: {  // Add / Mul / Sub / Max with a same-shape partner
        Value* rhs = PickWhere(
            [&](const Value* c) { return c->tensor_type().dims() == dims; },
            v, v);
        OpKind kind = static_cast<OpKind>(
            Pick({static_cast<int64_t>(OpKind::kAdd),
                  static_cast<int64_t>(OpKind::kMul),
                  static_cast<int64_t>(OpKind::kSub),
                  static_cast<int64_t>(OpKind::kMax)}));
        return Coin() ? b.Binary(kind, v, rhs) : b.Binary(kind, rhs, v);
      }
      case 2:  // Exp (of a tanh, so nothing overflows) / Tanh / Neg
        switch (Uniform(0, 2)) {
          case 0:
            return b.Exp(b.Tanh(v));
          case 1:
            return b.Tanh(v);
          default:
            return b.Neg(v);
        }
      case 3: {  // Transpose: reverse a rank-2, rotate a rank-3
        if (rank == 2) return b.Transpose(v, {1, 0});
        if (rank == 3) return b.Transpose(v, {2, 0, 1});
        break;
      }
      case 4: {  // Reshape: split a rank-2 trailing dim, or merge it back
        if (rank == 2 && dims[1] % (2 * unit_) == 0) {
          return b.Reshape(v, {dims[0], 2, dims[1] / 2});
        }
        if (rank == 3) return b.Reshape(v, {dims[0], dims[1] * dims[2]});
        break;
      }
      case 5: {  // Reduce one dim of a rank >= 2 value (sum or max)
        if (rank < 2) break;
        return b.Reduce(v, {Uniform(0, static_cast<int>(rank) - 1)},
                        Coin() ? "sum" : "max");
      }
      case 6: {  // BroadcastInDim: rank 1 -> 2, rank 2 -> 3
        if (rank == 1) {
          return Coin() ? b.BroadcastInDim(v, {dims[0], Dim()}, {0})
                        : b.BroadcastInDim(v, {Dim(), dims[0]}, {1});
        }
        if (rank == 2) {
          return b.BroadcastInDim(v, {dims[0], unit_, dims[1]}, {0, 2});
        }
        break;
      }
      case 7: {  // Concatenate with a partner agreeing off the concat dim
        const int64_t dim = Uniform(0, static_cast<int>(rank) - 1);
        if (dims[dim] > 2 * unit_) break;
        Value* other = PickWhere(
            [&](const Value* c) {
              const std::vector<int64_t>& cd = c->tensor_type().dims();
              if (cd.size() != dims.size() || cd[dim] > 2 * unit_) {
                return false;
              }
              for (size_t i = 0; i < cd.size(); ++i) {
                if (static_cast<int64_t>(i) != dim && cd[i] != dims[i]) {
                  return false;
                }
              }
              return true;
            },
            v, v);
        return b.Concatenate({v, other}, dim);
      }
      case 8: {  // StaticSlice a window of whole device-count units
        const int64_t dim = Uniform(0, static_cast<int>(rank) - 1);
        const int64_t units = dims[dim] / unit_;
        if (dims[dim] % unit_ != 0 || units < 2) break;
        const int64_t len = Uniform(1, static_cast<int>(units) - 1);
        const int64_t start = Uniform(0, static_cast<int>(units - len));
        std::vector<int64_t> starts(rank, 0);
        std::vector<int64_t> limits = dims;
        starts[dim] = start * unit_;
        limits[dim] = (start + len) * unit_;
        return b.StaticSlice(v, starts, limits);
      }
      default:
        break;
    }
    return b.Tanh(v);  // the drawn op does not fit `v`
  }

  std::mt19937_64 rng_;
  Program program_;
  Mesh mesh_{std::vector<MeshAxis>{}};
  int64_t unit_ = 1;
  std::vector<Value*> pool_;
  std::vector<std::string> input_names_;
  std::vector<Tactic> schedule_;
};


/** The first difference between two output lists, or "" when they are
 *  memcmp-identical. */
inline std::string BitMismatch(const std::vector<Tensor>& want,
                               const std::vector<Tensor>& got) {
  if (want.size() != got.size()) return "output count differs";
  for (size_t i = 0; i < want.size(); ++i) {
    if (want[i].dims() != got[i].dims() ||
        std::memcmp(want[i].data().data(), got[i].data().data(),
                    want[i].data().size() * sizeof(float)) != 0) {
      return "output " + std::to_string(i) + " differs";
    }
  }
  return "";
}

/**
 * The persist leg of the differential test. The program goes
 * Program::Save -> Load -> Partition, and `exe` (its partition under
 * `schedule`) goes SaveResult -> DeserializePartitionResult -> Run; both
 * must reproduce `direct`, the outputs of `exe` on `inputs`, bit for bit.
 * Returns what went wrong, or "" when both legs agree.
 */
inline std::string PersistLegMismatch(const Program& program,
                                      const Executable& exe,
                                      const std::vector<Tactic>& schedule,
                                      const Mesh& mesh,
                                      const std::vector<Tensor>& inputs,
                                      const std::vector<Tensor>& direct) {
  const std::string base =
      (std::filesystem::temp_directory_path() /
       ("partir-random-" + std::to_string(::getpid())))
          .string();
  struct Cleanup {
    std::string path;
    ~Cleanup() {
      std::error_code ec;
      std::filesystem::remove(path + ".program", ec);
      std::filesystem::remove(path + ".result", ec);
    }
  } cleanup{base};

  if (Status saved = program.Save(base + ".program"); !saved.ok()) {
    return "Program::Save: " + saved.ToString();
  }
  StatusOr<Program> loaded = Program::Load(base + ".program");
  if (!loaded.ok()) return "Program::Load: " + loaded.status().ToString();
  StatusOr<Executable> reloaded = loaded->Partition(schedule, mesh);
  if (!reloaded.ok()) {
    return "Partition of the loaded program: " + reloaded.status().ToString();
  }
  StatusOr<std::vector<Tensor>> got = reloaded->Run(inputs);
  if (!got.ok()) return "Run of the loaded program: " + got.status().ToString();
  if (std::string diff = BitMismatch(direct, *got); !diff.empty()) {
    return "loaded program: " + diff;
  }

  if (Status saved = exe.SaveResult(base + ".result"); !saved.ok()) {
    return "SaveResult: " + saved.ToString();
  }
  StatusOr<std::string> bytes = persist::ReadFileToString(base + ".result");
  if (!bytes.ok()) return "reading the result: " + bytes.status().ToString();
  StatusOr<std::string> payload =
      persist::DecodeEntry(*bytes, persist::PayloadKind::kPartitionResult,
                           "partir-partition-result");
  if (!payload.ok()) return "DecodeEntry: " + payload.status().ToString();
  StatusOr<PartitionResult> restored =
      persist::DeserializePartitionResult(*payload);
  if (!restored.ok()) {
    return "DeserializePartitionResult: " + restored.status().ToString();
  }
  got = RunSpmd(restored->spmd, inputs, {});
  if (!got.ok()) return "Run of the loaded result: " + got.status().ToString();
  if (std::string diff = BitMismatch(direct, *got); !diff.empty()) {
    return "loaded result: " + diff;
  }
  return "";
}

}  // namespace partir

#endif  // PARTIR_TESTS_RANDOM_PROGRAM_H_
