// Benchmark binary: runs one workload through the public PartIR API, checks
// every output, and prints each metric with its unit. The last line of
// standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   partir_perfbench --workload compile|serve_decode|serve_chain
//                    --seed N --seconds S --trace 0|1
//                    --out-dir DIR --tmp-dir DIR
//
// Untraced runs report the end-to-end figures. A traced run measures the
// workload twice, first untraced and then with spans on, each for half the
// time; it reports the per-layer figures of the traced half, a self-time
// per layer, and the tracing overhead, and writes trace.json and
// self_time.txt to --out-dir.
//
// Exit codes: 0 ok; 1 an output was wrong; 2 bad usage; 3 the build is not
// a Release build with the library's Release defaults.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"
#include "trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/** Fixed open-loop rates (requests/s), about a third of each model's
 *  closed-loop peak on a 4-core x86 host. */
constexpr double kDecodeRps = 100;
constexpr double kChainRps = 10000;

int Usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: partir_perfbench --workload "
               "compile|serve_decode|serve_chain --seed N --seconds S "
               "--trace 0|1 --out-dir DIR --tmp-dir DIR\n",
               message);
  return 2;
}

Report RunWorkload(const RunConfig& config) {
  if (config.workload == "compile") return RunCompile(config);
  if (config.workload == "serve_decode") {
    return RunServe(config, "transformer_infer", kDecodeRps);
  }
  return RunServe(config, "matmul_chain", kChainRps);
}

/** The figure the tracing overhead is stated on. */
const char* HeadlineMetric(const std::string& workload) {
  return workload == "compile" ? "partition_s" : "serve.latency_p50_ms";
}

std::string JsonNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void PrintResult(const Report& report) {
  std::printf("%-34s %20s  %s\n", "metric", "value", "unit");
  for (const Metric& metric : report.metrics()) {
    std::printf("%-34s %20.6f  %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  const double failed_frac =
      report.attempted() > 0
          ? static_cast<double>(report.failed()) / report.attempted()
          : 1.0;
  std::printf("%-34s %20.6f  %s\n", "failed_frac", failed_frac, "ratio");
  for (const std::string& failure : report.failures()) {
    std::printf("FAILED: %s\n", failure.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted());
  json += ", \"failed\": " + std::to_string(report.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : report.metrics()) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + metric.name + "\": {\"value\": " +
            JsonNumber(metric.value) + ", \"unit\": \"" + metric.unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  RunConfig config;
  config.seconds = 0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else if (flag == "--tmp-dir") {
      config.tmp_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  if (config.workload != "compile" && config.workload != "serve_decode" &&
      config.workload != "serve_chain") {
    return Usage("unknown --workload");
  }
  if (!have_seed || config.seconds <= 0 || (trace != 0 && trace != 1) ||
      config.out_dir.empty() || config.tmp_dir.empty()) {
    return Usage("--seed, --seconds > 0, --trace 0|1, --out-dir and "
                 "--tmp-dir are required");
  }
  config.trace = trace == 1;

  // A user's persistent cache must not turn cold runs warm: every disk
  // access goes to a private directory under --tmp-dir.
  unsetenv("PARTIR_CACHE_DIR");

  // verify_passes and analyze default from NDEBUG in the including file;
  // figures from any other configuration are not comparable.
  const partir::PartitionOptions defaults;
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::printf("env {\"build_type\": \"%s\", \"verify_passes\": %s, "
              "\"analyze\": %s, \"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d}\n",
              build_type.c_str(), defaults.verify_passes ? "true" : "false",
              defaults.analyze ? "true" : "false", config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              trace);
  if (build_type != "Release" || defaults.verify_passes || defaults.analyze) {
    std::fprintf(stderr,
                 "error: refusing to report: need a Release build with "
                 "verify_passes and analyze off by default\n");
    return 3;
  }

  Report report;
  if (!config.trace) {
    report = RunWorkload(config);
  } else {
    RunConfig half = config;
    half.seconds = config.seconds / 2;
    half.setups = 1;
    half.min_rounds = 1;
    Report untraced = RunWorkload(half);
    Tracer::Get().Enable();
    report = RunWorkload(half);
    Tracer::Get().Disable();
    report.Merge(untraced);

    const Metric* base = untraced.Find(HeadlineMetric(config.workload));
    const Metric* traced = report.Find(HeadlineMetric(config.workload));
    report.Add("trace.overhead_pct", "%",
               base != nullptr && traced != nullptr && base->value > 0
                   ? 100.0 * (traced->value - base->value) / base->value
                   : 0);
    for (const auto& [layer, ms] : Tracer::Get().SelfMsByLayer()) {
      report.Add("self_ms." + layer, "ms", ms);
    }
    report.Add("trace.spans", "count",
               static_cast<double>(Tracer::Get().size()));
    report.Add("trace.dropped", "count",
               static_cast<double>(Tracer::Get().dropped()));
    std::filesystem::create_directories(config.out_dir);
    if (!Tracer::Get().Write(config.out_dir)) {
      std::fprintf(stderr, "error: cannot write the trace to %s\n",
                   config.out_dir.c_str());
      return 1;
    }
    std::printf("trace written to %s/trace.json and %s/self_time.txt\n",
                config.out_dir.c_str(), config.out_dir.c_str());
  }

  PrintResult(report);
  return report.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
