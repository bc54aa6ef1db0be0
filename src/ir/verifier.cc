#include "src/ir/verifier.h"

#include <cstdint>

#include "src/ir/op_rules.h"
#include "src/support/str_util.h"

namespace partir {
namespace {

/** An insert-only open-addressing set of pointers: no per-element
 *  allocation, so marking every op of a large module stays cheap. */
class PointerSet {
 public:
  bool Contains(const void* p) const {
    if (slots_.empty()) return false;
    for (size_t i = Slot(p);; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i] == p) return true;
      if (slots_[i] == nullptr) return false;
    }
  }

  void Insert(const void* p) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    size_t i = Slot(p);
    while (slots_[i] != nullptr && slots_[i] != p) {
      i = (i + 1) & (slots_.size() - 1);
    }
    if (slots_[i] == nullptr) ++size_;
    slots_[i] = p;
  }

 private:
  size_t Slot(const void* p) const {
    return static_cast<size_t>(
        (reinterpret_cast<uintptr_t>(p) * 0x9E3779B97F4A7C15ULL) >>
        (64 - log2_size_));
  }

  void Grow() {
    std::vector<const void*> old = std::move(slots_);
    log2_size_ = old.empty() ? 6 : log2_size_ + 1;
    slots_.assign(size_t{1} << log2_size_, nullptr);
    size_ = 0;
    for (const void* p : old) {
      if (p != nullptr) Insert(p);
    }
  }

  std::vector<const void*> slots_;
  size_t size_ = 0;
  int log2_size_ = 0;
};

class Verifier {
 public:
  Verifier(const Func& func, const Mesh* mesh, std::vector<Violation>& out)
      : func_(func), mesh_(mesh), out_(out) {}

  void Run() {
    const Block& body = func_.body();
    if (body.num_ops() == 0 || body.ops().back()->kind() != OpKind::kReturn) {
      out_.push_back({&func_, InvalidArgumentError(
                                  "func @", func_.name(),
                                  " is empty or does not end in return")});
      return;
    }
    VisitBlock(body, /*depth=*/0);
  }

 private:
  void Malformed(const Operation& op, const std::string& rule) {
    out_.push_back({&func_, InvalidArgumentError(OpLabel(op), ": ", rule)});
  }

  /** Visits `block`, nested `depth` loops deep. A value is visible from
   *  its definition to the end of its block, nested regions included: a
   *  block argument while its block is open, an op result once its op was
   *  visited in an open block. */
  void VisitBlock(const Block& block, int depth) {
    open_.push_back(&block);
    const int num_ops = block.num_ops();
    for (int i = 0; i < num_ops; ++i) {
      const Operation& op = *block.ops()[i];
      for (const Value* operand : op.operands()) {
        if (!Visible(operand)) {
          Malformed(op, "uses a value that does not dominate it");
          break;
        }
      }
      Status placed = CheckPlacement(op, /*in_loop=*/depth > 0,
                                     /*is_terminator=*/i == num_ops - 1);
      if (!placed.ok()) out_.push_back({&func_, std::move(placed)});
      CheckTypes(op);
      for (int r = 0; r < op.num_regions(); ++r) {
        VisitBlock(op.region(r).block(), depth + 1);
      }
      visited_.Insert(&op);
    }
    open_.pop_back();
  }

  bool Visible(const Value* value) const {
    if (value == nullptr) return false;
    const Block* owner = value->IsBlockArg() ? value->owner_block()
                                             : value->def()->parent();
    bool open = false;
    for (const Block* block : open_) open = open || block == owner;
    return open && (value->IsBlockArg() || visited_.Contains(value->def()));
  }

  void CheckTypes(const Operation& op) {
    StatusOr<std::vector<Type>> inferred = InferResultTypes(op, mesh_);
    if (!inferred.ok()) {
      out_.push_back({&func_, inferred.status()});
      return;
    }
    if (static_cast<int>(inferred->size()) != op.num_results()) {
      out_.push_back({&func_, FailedPreconditionError(
                                  OpLabel(op), ": declares ",
                                  op.num_results(), " result(s), the rule "
                                  "gives ", inferred->size())});
      return;
    }
    for (int r = 0; r < op.num_results(); ++r) {
      if (op.result(r)->type() != (*inferred)[r]) {
        out_.push_back({&func_, FailedPreconditionError(
                                    OpLabel(op), ": declared result ", r,
                                    " ", op.result(r)->type().ToString(),
                                    " differs from the inferred ",
                                    (*inferred)[r].ToString())});
      }
    }
  }

  const Func& func_;
  const Mesh* mesh_;
  std::vector<Violation>& out_;
  std::vector<const Block*> open_;  // the block being visited and its parents
  PointerSet visited_;               // ops whose results are defined
};

std::vector<std::string> Messages(const std::vector<Violation>& violations) {
  std::vector<std::string> messages;
  messages.reserve(violations.size());
  for (const Violation& violation : violations) {
    messages.push_back(violation.status.message());
  }
  return messages;
}

}  // namespace

std::vector<Violation> FindViolations(const Module& module,
                                      const Mesh* mesh) {
  std::vector<Violation> violations;
  for (const auto& func : module.funcs()) {
    Verifier(*func, mesh, violations).Run();
  }
  return violations;
}

std::vector<std::string> Verify(const Module& module, const Mesh* mesh) {
  return Messages(FindViolations(module, mesh));
}

std::vector<std::string> Verify(const Func& func, const Mesh* mesh) {
  std::vector<Violation> violations;
  Verifier(func, mesh, violations).Run();
  return Messages(violations);
}

void VerifyOrDie(const Module& module) {
  std::vector<std::string> diags = Verify(module);
  if (!diags.empty()) {
    PARTIR_CHECK(false) << "module verification failed:\n"
                        << StrJoin(diags, "\n");
  }
}

}  // namespace partir
