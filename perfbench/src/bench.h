/**
 * @file
 * Shared vocabulary of the benchmark binary: run options, the metric list
 * a workload reports, correctness bookkeeping, order statistics, and the
 * helpers every workload needs (private scratch directories, peak RSS,
 * pipeline statistics turned into per-layer numbers).
 */
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/api/partir.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Command-line options of one benchmark run. */
struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /** Set-ups per run (setup_s is their median), and the fewest rounds the
   *  compile workload runs whatever the time. */
  int setups = 5;
  int min_rounds = 2;
  /** Where the trace run writes its files (inside the checkout). */
  std::string out_dir;
  /** Parent of the private temporary cache directories. */
  std::string tmp_dir;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/**
 * What a workload hands back: its metrics and its correctness tally.
 * Every failed or wrong operation is counted and its first few messages are
 * kept for the report.
 */
class Report {
 public:
  void Add(const std::string& name, const std::string& unit, double value);
  /** Counts one attempted operation; `ok` false counts it failed. */
  void Check(bool ok, const std::string& what);
  void Attempt(int64_t n = 1) { attempted_ += n; }
  /** Adds another report's tally (not its metrics). */
  void Merge(const Report& other);

  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* Find(const std::string& name) const;
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<Metric> metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> failures_;
};

// ---- Order statistics ----

/** Median (mean of the middle pair for even counts); 0 when empty. */
double Median(std::vector<double> values);
/** Nearest-rank percentile, q in [0, 1]; 0 when empty. */
double Percentile(std::vector<double> values, double q);
/** The highest of the 99th, 95th and 90th percentiles with at least ten
 *  of `samples` beyond it (the median below 100 samples). */
double TailQuantile(size_t samples);

// ---- Environment ----

/** Peak resident set size of this process, in MiB. */
double PeakRssMb();

/**
 * Host speed. A shared machine's speed can swing by 2x within seconds,
 * which no amount of repetition inside one run averages out. A fixed probe
 * runs between measured partitioning calls: it faults in a private 16 MiB
 * mapping and does random read-modify-writes over it (its time tracked a
 * cold T32 Partition with correlation 0.6-0.7). Each measured time is
 * divided by the probe's slowdown around it, so a figure reads as time on
 * a host where the probe takes kProbeNominalSeconds. The probe never calls
 * the library and cannot see its heap, so a faster or slower library does
 * not move it.
 */
class HostSpeed {
 public:
  static constexpr double kProbeNominalSeconds = 0.025;

  /** Runs the probe and records its time. */
  void Probe();
  /** Slowdown over [start, end]: the mean time of the last probe before
   *  and the first probe after, over the nominal time (1 = nominal). */
  double Factor(Clock::time_point start, Clock::time_point end) const;
  /** Seconds of [start, end] divided by their slowdown. */
  double Normalized(Clock::time_point start, Clock::time_point end) const;
  /** Median slowdown of all probes taken. */
  double MedianFactor() const;

 private:
  struct Sample {
    Clock::time_point start, end;
    double seconds;
  };
  std::vector<Sample> probes_;  // in time order
};

/** A measured call: when it ran. */
struct Interval {
  Clock::time_point start, end;
  double seconds() const {
    return std::chrono::duration<double>(end - start).count();
  }
};

/** A fresh private directory under `parent`, removed by the destructor. */
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& parent);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---- Pipeline statistics ----

/**
 * Per-pass times of one cold Partition, grouped the way the benchmark
 * reports them (milliseconds), plus the fixpoint iteration count and the
 * op count of the final device-local module.
 */
struct PassBreakdown {
  double propagate_ms = 0;
  double report_ms = 0;
  double lower_ms = 0;
  double fuse_gather_slice_ms = 0;
  double form_reduce_scatter_ms = 0;
  double dce_ms = 0;
  double compile_device_programs_ms = 0;
  double other_ms = 0;
  int64_t fixpoint_runs = 0;
  int64_t spmd_ops = 0;

  void Accumulate(const partir::PipelineStats& stats);
  void AddTo(Report& report) const;
};

/** Field-wise median of per-round breakdowns. */
PassBreakdown MedianPasses(const std::vector<PassBreakdown>& rounds);

/** Records each pass of `stats` as a child span of `parent`, laid out back
 *  to back from `start` (the pass manager reports durations, not start
 *  times). No-op when tracing is off. */
void RecordPassSpans(const partir::PipelineStats& stats, int64_t parent,
                     Clock::time_point start);

/** Collective counts in the order the benchmark reports them. */
struct CollectiveCounts {
  int64_t ag = 0, ar = 0, rs = 0, a2a = 0;
  static CollectiveCounts Of(const partir::CollectiveStats& stats) {
    return {stats.all_gather, stats.all_reduce, stats.reduce_scatter,
            stats.all_to_all};
  }
  bool operator==(const CollectiveCounts& other) const {
    return ag == other.ag && ar == other.ar && rs == other.rs &&
           a2a == other.a2a;
  }
  std::string ToString() const;
  /** Adds spmd.collectives.{ag,ar,rs,a2a}.<model>. */
  void AddTo(Report& report, const std::string& model) const;
};

// ---- Timed calls into the library ----

/**
 * Program::Partition under a span of `layer`, with the pipeline's passes
 * recorded as child spans when the pipeline ran. `when` receives the
 * call's start and end.
 */
partir::StatusOr<partir::Executable> TimedPartition(
    const char* layer, const std::string& name, partir::Program& program,
    const std::vector<partir::Tactic>& schedule, const partir::Mesh& mesh,
    const partir::PartitionOptions& options, Interval& when);

/** Executable::Estimate(Tpu_v3()) under a sim span; returns the estimated
 *  step time (ms) and adds the call's wall time to `estimate_ms`. */
double EstimateMs(const partir::Executable& exe, double& estimate_ms);

// ---- Workloads ----

/** Zero figures for the serving-only metrics (serve, exec, load layers),
 *  reported by workloads that serve nothing. */
void AddServeZeros(Report& report);

/** Runs one workload. Its measured parts take about `seconds`; every
 *  workload reports every metric (zero where a layer does not take part). */
Report RunCompile(const RunConfig& config);
Report RunServe(const RunConfig& config, const std::string& model,
                double open_loop_rps);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
