#include "bench.h"

#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <vector>
#include <filesystem>
#include <system_error>

#include "trace.h"

namespace perfbench {

// Failure messages kept for the report; the rest are only counted.
constexpr size_t kMaxFailureMessages = 20;

void Report::Add(const std::string& name, const std::string& unit,
                 double value) {
  metrics_.push_back(Metric{name, unit, value});
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < kMaxFailureMessages) failures_.push_back(what);
}

void Report::Merge(const Report& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const std::string& failure : other.failures_) {
    if (failures_.size() < kMaxFailureMessages) failures_.push_back(failure);
  }
}

const Metric* Report::Find(const std::string& name) const {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) return &metric;
  }
  return nullptr;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(values.size()));
  return values[std::min(rank, values.size() - 1)];
}

double TailQuantile(size_t samples) {
  for (double q : {0.99, 0.95, 0.90}) {
    if ((1 - q) * static_cast<double>(samples) >= 10 - 1e-9) return q;
  }
  return 0.5;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

// Receives each probe's checksum, so the probe's work cannot be elided.
std::atomic<uint64_t> probe_sink{0};

/** Faults in a fresh 16 MiB mapping page by page, then does random
 *  read-modify-writes over it. The mapping is private to the probe, so the
 *  library's heap state cannot change the probe's speed. */
uint64_t ProbeWork() {
  constexpr size_t kBytes = size_t{16} << 20;
  void* mapping = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mapping == MAP_FAILED) PARTIR_FATAL() << "probe: mmap failed";
  uint64_t* words = static_cast<uint64_t*>(mapping);
  constexpr size_t kWords = kBytes / sizeof(uint64_t);
  constexpr size_t kWordsPerPage = 4096 / sizeof(uint64_t);
  for (size_t i = 0; i < kWords; i += kWordsPerPage) words[i] = i;
  uint64_t x = 88172645463325252ULL, sum = 0;
  for (uint64_t i = 0; i < 1500000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    uint64_t& slot = words[x & (kWords - 1)];
    slot = slot * 31 + i;
    sum += words[(x >> 24) & (kWords - 1)];
  }
  munmap(mapping, kBytes);
  return sum;
}

}  // namespace

void HostSpeed::Probe() {
  Clock::time_point start = Clock::now();
  probe_sink.store(ProbeWork(), std::memory_order_relaxed);
  Clock::time_point end = Clock::now();
  probes_.push_back(Sample{
      start, end, std::chrono::duration<double>(end - start).count()});
}

double HostSpeed::Factor(Clock::time_point start,
                         Clock::time_point end) const {
  const Sample* before = nullptr;
  const Sample* after = nullptr;
  for (const Sample& probe : probes_) {
    if (probe.end <= start) before = &probe;
    if (after == nullptr && probe.start >= end) after = &probe;
  }
  double total = 0;
  int count = 0;
  for (const Sample* probe : {before, after}) {
    if (probe != nullptr) {
      total += probe->seconds;
      ++count;
    }
  }
  return count == 0 ? 1.0 : total / count / kProbeNominalSeconds;
}

double HostSpeed::Normalized(Clock::time_point start,
                             Clock::time_point end) const {
  return std::chrono::duration<double>(end - start).count() /
         Factor(start, end);
}

double HostSpeed::MedianFactor() const {
  std::vector<double> factors;
  for (const Sample& probe : probes_) {
    factors.push_back(probe.seconds / kProbeNominalSeconds);
  }
  return factors.empty() ? 1.0 : Median(factors);
}

ScratchDir::ScratchDir(const std::string& parent) {
  std::filesystem::create_directories(parent);
  std::string pattern = parent + "/cache-XXXXXX";
  std::vector<char> buffer(pattern.begin(), pattern.end());
  buffer.push_back('\0');
  if (mkdtemp(buffer.data()) == nullptr) {
    PARTIR_FATAL() << "cannot create a scratch directory under " << parent;
  }
  path_ = buffer.data();
}

ScratchDir::~ScratchDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

// ---- Pipeline statistics ----

namespace {

bool StartsWith(const std::string& text, const std::string& prefix) {
  return text.compare(0, prefix.size(), prefix) == 0;
}

/** Trace layer a pipeline pass belongs to. */
const char* PassLayer(const std::string& pass_name) {
  if (pass_name == "lower-to-spmd" || pass_name == "fuse-gather-slice" ||
      pass_name == "form-reduce-scatter" || pass_name == "dce" ||
      pass_name == "plan-collectives") {
    return "spmd";
  }
  if (pass_name == "compile-device-programs") return "exec";
  if (StartsWith(pass_name, "tactic[") &&
      pass_name.size() >= 5 &&
      pass_name.compare(pass_name.size() - 5, 5, ":auto") == 0) {
    return "autopart";
  }
  return "pass";
}

}  // namespace

void PassBreakdown::Accumulate(const partir::PipelineStats& stats) {
  double named_ms = 0;
  auto take = [&](double& slot, double seconds) {
    slot += seconds * 1e3;
    named_ms += seconds * 1e3;
  };
  for (const partir::PassStats& pass : stats.passes) {
    if (pass.name == "propagate") {
      take(propagate_ms, pass.seconds);
    } else if (StartsWith(pass.name, "report[")) {
      take(report_ms, pass.seconds);
    } else if (pass.name == "lower-to-spmd") {
      take(lower_ms, pass.seconds);
    } else if (pass.name == "fuse-gather-slice") {
      take(fuse_gather_slice_ms, pass.seconds);
      fixpoint_runs += pass.runs;
    } else if (pass.name == "form-reduce-scatter") {
      take(form_reduce_scatter_ms, pass.seconds);
    } else if (pass.name == "dce") {
      take(dce_ms, pass.seconds);
    } else if (pass.name == "compile-device-programs") {
      take(compile_device_programs_ms, pass.seconds);
    }
  }
  other_ms += std::max(0.0, stats.total_seconds * 1e3 - named_ms);
  if (!stats.passes.empty()) spmd_ops += stats.passes.back().ops_after;
}

void PassBreakdown::AddTo(Report& report) const {
  report.Add("pass.propagate_ms", "ms", propagate_ms);
  report.Add("pass.report_ms", "ms", report_ms);
  report.Add("pass.lower-to-spmd_ms", "ms", lower_ms);
  report.Add("pass.fuse-gather-slice_ms", "ms", fuse_gather_slice_ms);
  report.Add("pass.form-reduce-scatter_ms", "ms", form_reduce_scatter_ms);
  report.Add("pass.dce_ms", "ms", dce_ms);
  report.Add("pass.compile-device-programs_ms", "ms",
             compile_device_programs_ms);
  report.Add("pass.other_ms", "ms", other_ms);
  report.Add("pass.fixpoint_runs", "count",
             static_cast<double>(fixpoint_runs));
  report.Add("pass.spmd_ops", "count", static_cast<double>(spmd_ops));
}

PassBreakdown MedianPasses(const std::vector<PassBreakdown>& rounds) {
  auto median = [&](auto field) {
    std::vector<double> values;
    for (const PassBreakdown& round : rounds) {
      values.push_back(static_cast<double>(field(round)));
    }
    return Median(values);
  };
  PassBreakdown out;
  out.propagate_ms = median([](const PassBreakdown& p) {
    return p.propagate_ms;
  });
  out.report_ms = median([](const PassBreakdown& p) { return p.report_ms; });
  out.lower_ms = median([](const PassBreakdown& p) { return p.lower_ms; });
  out.fuse_gather_slice_ms = median([](const PassBreakdown& p) {
    return p.fuse_gather_slice_ms;
  });
  out.form_reduce_scatter_ms = median([](const PassBreakdown& p) {
    return p.form_reduce_scatter_ms;
  });
  out.dce_ms = median([](const PassBreakdown& p) { return p.dce_ms; });
  out.compile_device_programs_ms = median([](const PassBreakdown& p) {
    return p.compile_device_programs_ms;
  });
  out.other_ms = median([](const PassBreakdown& p) { return p.other_ms; });
  out.fixpoint_runs = static_cast<int64_t>(
      median([](const PassBreakdown& p) { return p.fixpoint_runs; }));
  out.spmd_ops = static_cast<int64_t>(
      median([](const PassBreakdown& p) { return p.spmd_ops; }));
  return out;
}

void RecordPassSpans(const partir::PipelineStats& stats, int64_t parent,
                     Clock::time_point start) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  double offset_us = 0;
  for (const partir::PassStats& pass : stats.passes) {
    const double dur_us = pass.seconds * 1e6;
    tracer.Add(PassLayer(pass.name), pass.name, parent,
               start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::micro>(
                               offset_us)),
               dur_us);
    offset_us += dur_us;
  }
}

partir::StatusOr<partir::Executable> TimedPartition(
    const char* layer, const std::string& name, partir::Program& program,
    const std::vector<partir::Tactic>& schedule, const partir::Mesh& mesh,
    const partir::PartitionOptions& options, Interval& when) {
  ScopedSpan span(layer, name);
  when.start = Clock::now();
  partir::StatusOr<partir::Executable> exe =
      program.Partition(schedule, mesh, options);
  when.end = Clock::now();
  if (exe.ok() && !options.use_cache) {
    RecordPassSpans(exe->pipeline_stats(), span.id(), span.start());
  }
  return exe;
}

double EstimateMs(const partir::Executable& exe, double& estimate_ms) {
  ScopedSpan span("sim", "Estimate");
  Clock::time_point start = Clock::now();
  partir::SimEstimate estimate = exe.Estimate(partir::Tpu_v3());
  estimate_ms += SecondsSince(start) * 1e3;
  return estimate.step_seconds * 1e3;
}

void AddServeZeros(Report& report) {
  CollectiveCounts{}.AddTo(report, "served");
  const std::pair<const char*, const char*> metrics[] = {
      {"persist.disk_hit_ms.served", "ms"},
      {"serve.latency_p50_ms", "ms"},
      {"serve.latency_tail_ms", "ms"},
      {"serve.peak_rps", "1/s"},
      {"serve.latency_samples", "count"},
      {"serve.latency_tail_pct", "%"},
      {"serve.open_loop_valid", "bool"},
      {"serve.submit_us_p50", "us"},
      {"serve.submit_us_p99", "us"},
      {"serve.mean_batch", "count"},
      {"serve.batches", "count"},
      {"serve.compiles", "count"},
      {"serve.fallbacks", "count"},
      {"exec.run_ms.b1", "ms"},
      {"exec.run_ms.b8", "ms"},
      {"exec.run_seq_ms.b8", "ms"},
      {"exec.allocs_per_run", "count"},
      {"exec.peak_arena_bytes", "bytes"},
      {"exec.fused_instructions", "count"},
      {"exec.in_place_ops", "count"},
      {"load.lateness_p99_ms", "ms"},
      {"load.lateness_max_ms", "ms"},
      {"load.backlog_end.closed", "count"},
      {"load.backlog_end.open", "count"},
      {"load.worst_abs_error", "abs"},
  };
  for (const auto& [name, unit] : metrics) report.Add(name, unit, 0);
}

std::string CollectiveCounts::ToString() const {
  return partir::StrCat(ag, "/", ar, "/", rs, "/", a2a);
}

void CollectiveCounts::AddTo(Report& report, const std::string& model) const {
  report.Add("spmd.collectives.ag." + model, "count", static_cast<double>(ag));
  report.Add("spmd.collectives.ar." + model, "count", static_cast<double>(ar));
  report.Add("spmd.collectives.rs." + model, "count", static_cast<double>(rs));
  report.Add("spmd.collectives.a2a." + model, "count",
             static_cast<double>(a2a));
}

}  // namespace perfbench
