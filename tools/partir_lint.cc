/**
 * @file
 * partir_lint: runs the static analysis suite (src/analysis/) over saved
 * PartIR artifacts — either a traced program (Program::Save) or a full
 * partition result (Executable::SaveResult).
 *
 *   partir_lint [--no-warnings] <file>...
 *
 * For a saved program the structural lint runs (no mesh, no lowered form);
 * for a saved partition result the full suite runs: lint, shape
 * consistency, collective deadlock/mismatch detection and memory-plan
 * verification over the recompiled device program.
 *
 * Exit status: 0 when every file analyzed without errors, 1 when any file
 * produced error diagnostics, 2 on usage or I/O/decode failure. Corrupted
 * input is a typed message, never a crash; the loaders verify every module
 * against the op rules (src/ir/op_rules.h), so IR that breaks them is a
 * decode failure (kDataLoss) rather than a module to analyze.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "src/analysis/analyze.h"
#include "src/persist/serializer.h"
#include "src/persist/store.h"

namespace {

constexpr char kProgramKey[] = "partir-program";
constexpr char kResultKey[] = "partir-partition-result";

struct LintOutcome {
  bool decoded = false;  // file was readable and of a known kind
  partir::analysis::AnalysisReport report;
  std::string what;  // "program" or "partition result"
  std::string error;
};

LintOutcome LintFile(const std::string& path) {
  LintOutcome outcome;
  partir::StatusOr<std::string> bytes =
      partir::persist::ReadFileToString(path);
  if (!bytes.ok()) {
    outcome.error = bytes.status().ToString();
    return outcome;
  }

  // Try both payload kinds: the entry header records which facade wrote the
  // file, so exactly one of these can succeed.
  partir::StatusOr<std::string> payload = partir::persist::DecodeEntry(
      bytes.value(), partir::persist::PayloadKind::kModule, kProgramKey);
  if (payload.ok()) {
    partir::StatusOr<std::unique_ptr<partir::Module>> module =
        partir::persist::DeserializeModule(payload.value());
    if (!module.ok()) {
      outcome.error = module.status().ToString();
      return outcome;
    }
    outcome.decoded = true;
    outcome.what = "program";
    outcome.report = partir::analysis::AnalyzeModule(*module.value());
    return outcome;
  }

  payload = partir::persist::DecodeEntry(
      bytes.value(), partir::persist::PayloadKind::kPartitionResult,
      kResultKey);
  if (payload.ok()) {
    partir::StatusOr<partir::PartitionResult> result =
        partir::persist::DeserializePartitionResult(payload.value());
    if (!result.ok()) {
      outcome.error = result.status().ToString();
      return outcome;
    }
    outcome.decoded = true;
    outcome.what = "partition result";
    outcome.report = partir::analysis::AnalyzeSpmd(result.value().spmd);
    return outcome;
  }

  outcome.error = partir::StrCat(
      "not a saved PartIR program or partition result (",
      payload.status().ToString(), ")");
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  bool show_warnings = true;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--no-warnings") {
      show_warnings = false;
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: partir_lint [--no-warnings] <file>...\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return 2;
    } else {
      paths.push_back(std::move(arg));
    }
  }
  if (paths.empty()) {
    std::fprintf(stderr, "usage: partir_lint [--no-warnings] <file>...\n");
    return 2;
  }

  int exit_code = 0;
  for (const std::string& path : paths) {
    LintOutcome outcome = LintFile(path);
    if (!outcome.decoded) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), outcome.error.c_str());
      exit_code = 2;
      continue;
    }
    const partir::analysis::AnalysisReport& report = outcome.report;
    std::printf("%s: %s, %lld checker(s), %lld error(s), %lld warning(s)\n",
                path.c_str(), outcome.what.c_str(),
                static_cast<long long>(report.checkers_run.size()),
                static_cast<long long>(report.errors()),
                static_cast<long long>(report.warnings()));
    for (const partir::analysis::Diagnostic& diag : report.diagnostics) {
      if (!show_warnings &&
          diag.severity != partir::analysis::Severity::kError) {
        continue;
      }
      std::printf("  %s\n", diag.ToString().c_str());
    }
    if (report.errors() > 0 && exit_code == 0) exit_code = 1;
  }
  return exit_code;
}
