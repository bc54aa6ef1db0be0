// The `serve_decode` and `serve_chain` workloads: one serving model behind
// Program::Serve, driven by one submit thread and one collector thread,
// alternately closed-loop (2 x max_batch outstanding) and open-loop at a
// fixed rate. Every response is checked against Program::Evaluate. Cold,
// searched and disk-warm partitions of the served traces, and direct Runs
// of the batch-1 and batch-8 executables, give the remaining figures.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "bench.h"
#include "src/models/serving.h"
#include "src/serve/batcher.h"
#include "trace.h"

namespace perfbench {
namespace {

using partir::Batcher;
using partir::BatchOptions;
using partir::Executable;
using partir::PartitionOptions;
using partir::Program;
using partir::ServeFuture;
using partir::ServeResponse;
using partir::StatusOr;
using partir::Tensor;
using partir::serving::ServeWorkload;
using partir::serving::WorkloadHarness;

/** Distinct requests per run; request i of a phase uses pool[i % size]. */
constexpr int kPoolSize = 64;
/** Outputs must match the unpartitioned reference within
 *  |out - ref| <= kAbsTol + kRelTol * |ref|. */
constexpr double kAbsTol = 1e-4;
constexpr double kRelTol = 1e-3;
/** Direct Runs per executable for the exec-layer figures. */
constexpr int kDirectRuns = 20;
/** Disk-warm restarts (batch-1 and batch-8 pairs) per compile iteration:
 *  a restart takes a few milliseconds, a search up to a quarter second. */
constexpr int kWarmRestarts = 3;

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

bool Matches(const std::vector<Tensor>& got, const std::vector<Tensor>& want,
             double& worst) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].dims() != want[i].dims()) return false;
    const std::vector<float>& a = got[i].data();
    const std::vector<float>& b = want[i].data();
    for (size_t j = 0; j < a.size(); ++j) {
      double diff = std::fabs(static_cast<double>(a[j]) - b[j]);
      worst = std::max(worst, diff);
      if (!(diff <= kAbsTol + kRelTol * std::fabs(b[j]))) return false;
    }
  }
  return true;
}

struct PoolEntry {
  std::vector<Tensor> inputs;
  std::vector<Tensor> reference;
};

/** Everything the measured part needs; built several times per run. */
struct Setup {
  std::unique_ptr<ScratchDir> cache_dir;
  std::unique_ptr<WorkloadHarness> harness;
  std::vector<PoolEntry> pool;
  Program program;  // the served unit program (owns the shared cache)
  std::unique_ptr<Batcher> batcher;
  Program direct1, direct8;  // batch-1 / batch-8 traces on the same cache
  double capture_ms = 0;
  double fingerprint_ms = 0;
  double memory_hit_ms = 0;  // the batch-8 Partition served from memory
  double flush_ms = 0;
};

Program CaptureTraced(const ServeWorkload& workload, int64_t batch) {
  ScopedSpan span("ir", "Capture " + workload.name + " b" +
                            std::to_string(batch));
  return Program::Capture(workload.build, batch);
}

std::unique_ptr<Setup> BuildSetup(const RunConfig& config,
                                  const ServeWorkload& workload,
                                  Report& report) {
  auto setup = std::make_unique<Setup>();
  setup->cache_dir = std::make_unique<ScratchDir>(config.tmp_dir);
  Clock::time_point start = Clock::now();
  setup->program = CaptureTraced(workload, 1);
  setup->direct1 = CaptureTraced(workload, 1);
  setup->direct8 = CaptureTraced(workload, 8);
  setup->capture_ms = SecondsSince(start) * 1e3;
  start = Clock::now();
  {
    ScopedSpan span("ir", "TraceFingerprint");
    (void)setup->direct8.TraceFingerprint();
  }
  setup->fingerprint_ms = SecondsSince(start) * 1e3;

  // Request pool and its references, drawn from the run's seed.
  setup->harness = std::make_unique<WorkloadHarness>(workload);
  for (int i = 0; i < kPoolSize; ++i) {
    PoolEntry entry;
    entry.inputs = setup->harness->Request(Mix(config.seed * kPoolSize + i));
    ScopedSpan span("exec", "Evaluate reference");
    StatusOr<std::vector<Tensor>> reference =
        setup->harness->unit().Evaluate(entry.inputs);
    report.Check(reference.ok(), "reference: " +
                                     reference.status().ToString());
    if (reference.ok()) entry.reference = std::move(reference).value();
    setup->pool.push_back(std::move(entry));
  }

  BatchOptions options;
  options.run.backend = partir::ExecBackend::kCompiled;
  {
    ScopedSpan span("serve", "Serve");
    StatusOr<std::unique_ptr<Batcher>> batcher =
        setup->program.Serve(workload.schedule, workload.mesh, options);
    if (!batcher.ok()) PARTIR_FATAL() << batcher.status().ToString();
    setup->batcher = std::move(batcher).value();
  }
  // Compile every batch size the batcher can form.
  for (int pass = 0; pass < 2; ++pass) {
    for (int64_t k = 1; k <= options.max_batch; ++k) {
      std::vector<ServeFuture> futures;
      for (int64_t r = 0; r < k; ++r) {
        ScopedSpan span("serve", "Submit warm-up");
        futures.push_back(setup->batcher->Submit(setup->pool[r].inputs));
      }
      for (int64_t r = 0; r < k; ++r) {
        ServeResponse response = futures[r].get();
        double worst = 0;
        report.Check(response.ok() && Matches(response.value(),
                                              setup->pool[r].reference,
                                              worst),
                     "warm-up response " + response.status().ToString());
      }
    }
  }

  // The batch-1 and batch-8 executables the batcher compiled, from the
  // shared in-memory cache.
  setup->direct1.SharePartitionCache(setup->program.partition_cache());
  setup->direct8.SharePartitionCache(setup->program.partition_cache());
  const int64_t hits = setup->program.cache_stats().hits;
  start = Clock::now();
  {
    ScopedSpan span("api", "Partition memory-hit b8");
    report.Check(setup->direct8.Partition(workload.schedule, workload.mesh)
                         .ok() &&
                     setup->program.cache_stats().hits == hits + 1,
                 "batch-8 Partition missed the batcher's cache entry");
  }
  setup->memory_hit_ms = SecondsSince(start) * 1e3;

  // Populate the private disk cache the warm restarts read.
  PartitionOptions persist;
  persist.cache_dir = setup->cache_dir->path();
  for (int64_t batch : {1, 8}) {
    Program program = CaptureTraced(workload, batch);
    {
      ScopedSpan span("api", "Partition populate b" + std::to_string(batch));
      report.Check(program.Partition(workload.schedule, workload.mesh,
                                     persist).ok(),
                   "populate b" + std::to_string(batch));
    }
    start = Clock::now();
    {
      ScopedSpan span("persist", "FlushDiskWrites");
      program.partition_cache()->FlushDiskWrites();
    }
    setup->flush_ms += SecondsSince(start) * 1e3;
    report.Check(program.cache_stats().disk_writes == 1,
                 "populate b" + std::to_string(batch) + ": no disk write");
  }
  return setup;
}

/**
 * Partition figures of the served batch-1 and batch-8 traces. Each
 * iteration partitions both cold, searches the batch-8 trace (with its own
 * seed: a small model's search work depends on the seed, and many seeds per
 * run keep search_s steady from run to run), and partitions both disk-warm,
 * probing the host between the three. Iterations run in several stretches
 * between serving blocks, so that they sample the whole run.
 */
struct CompileFigures {
  int rounds = 0;
  std::vector<Interval> cold_when, search_when, warm_when;  // pairs flat
  std::vector<double> partition_s, search_s, warm_start_s;  // normalized
  std::vector<double> raw_partition_s, estimate_ms, ms_per_eval, disk_hit_ms;
  std::vector<PassBreakdown> passes;
  double est_step_ms = 0;  // batch 1 + batch 8 + the first search
  int64_t evaluations = 0;
  int64_t disk_hits = 0;
  CollectiveCounts collectives;  // batch 8
};

/** Runs iterations for `seconds` (at least one) and adds them to
 *  `figures`. */
void MeasureCompile(const RunConfig& config, const ServeWorkload& workload,
                    Setup& setup, double seconds, HostSpeed& host,
                    CompileFigures& figures, Report& report) {
  PartitionOptions cold;
  cold.use_cache = false;
  PartitionOptions warm;
  warm.cache_dir = setup.cache_dir->path();
  std::vector<Interval>& cold_when = figures.cold_when;
  std::vector<Interval>& search_when = figures.search_when;
  std::vector<Interval>& warm_when = figures.warm_when;

  const Clock::time_point start = Clock::now();
  do {
    const int i = figures.rounds++;
    host.Probe();
    PassBreakdown passes;
    for (Program* program : {&setup.direct1, &setup.direct8}) {
      Interval when;
      StatusOr<Executable> exe =
          TimedPartition("api", "Partition cold", *program,
                         workload.schedule, workload.mesh, cold, when);
      cold_when.push_back(when);
      report.Check(exe.ok(), "cold partition: " + exe.status().ToString());
      if (!exe.ok()) continue;
      passes.Accumulate(exe->pipeline_stats());
      double estimate_ms = 0;
      const double step_ms = EstimateMs(*exe, estimate_ms);
      figures.estimate_ms.push_back(estimate_ms);
      if (i == 0) figures.est_step_ms += step_ms;
      figures.collectives = CollectiveCounts::Of(exe->Collectives());
    }
    figures.passes.push_back(passes);

    host.Probe();
    partir::AutomaticPartition tactic;
    tactic.name = "auto";
    for (const partir::MeshAxis& axis : workload.mesh.axes()) {
      tactic.axes.push_back(axis.name);
    }
    tactic.options.simulations = 48;
    tactic.options.max_actions = 4;
    tactic.options.seed = Mix(config.seed + static_cast<uint64_t>(i));
    Interval when;
    StatusOr<Executable> searched =
        TimedPartition("api", "Partition auto", setup.direct8, {tactic},
                       workload.mesh, cold, when);
    search_when.push_back(when);
    report.Check(searched.ok() && searched->tactics().size() == 1,
                 "auto partition: " + searched.status().ToString());
    if (searched.ok() && searched->tactics().size() == 1) {
      const partir::TacticReport& tactic_report = searched->tactics()[0];
      if (i == 0) {
        figures.evaluations = tactic_report.evaluations;
        double estimate_ms = 0;
        figures.est_step_ms += EstimateMs(*searched, estimate_ms);
      }
      if (tactic_report.evaluations > 0) {
        figures.ms_per_eval.push_back(tactic_report.search_seconds * 1e3 /
                                      tactic_report.evaluations);
      }
    }

    host.Probe();
    for (int restart = 0; restart < kWarmRestarts; ++restart) {
      Program fresh1 = CaptureTraced(workload, 1);
      Program fresh8 = CaptureTraced(workload, 8);
      for (Program* fresh : {&fresh1, &fresh8}) {
        Interval warm_call;
        StatusOr<Executable> exe = TimedPartition(
            "persist", "Partition disk-warm", *fresh, workload.schedule,
            workload.mesh, warm, warm_call);
        warm_when.push_back(warm_call);
        figures.disk_hits += fresh->cache_stats().disk_hits;
        report.Check(exe.ok() && fresh->cache_stats().disk_hits == 1,
                     "disk-warm partition: " + exe.status().ToString());
      }
      figures.disk_hit_ms.push_back(warm_when.back().seconds() * 1e3);
    }
  } while (SecondsSince(start) < seconds);
  host.Probe();
}

/** Fills the normalized per-iteration times of `figures`. */
void NormalizeCompile(const HostSpeed& host, CompileFigures& figures) {
  const std::vector<Interval>& cold_when = figures.cold_when;
  const std::vector<Interval>& warm_when = figures.warm_when;
  auto normalized = [&](const Interval& when) {
    return host.Normalized(when.start, when.end);
  };
  for (size_t i = 0; i + 1 < cold_when.size(); i += 2) {
    figures.partition_s.push_back(normalized(cold_when[i]) +
                                  normalized(cold_when[i + 1]));
    figures.raw_partition_s.push_back(cold_when[i].seconds() +
                                      cold_when[i + 1].seconds());
  }
  for (const Interval& when : figures.search_when) {
    figures.search_s.push_back(normalized(when));
  }
  for (size_t i = 0; i + 1 < warm_when.size(); i += 2) {
    figures.warm_start_s.push_back(normalized(warm_when[i]) +
                                   normalized(warm_when[i + 1]));
  }
}

// ---- Load generation ----

struct Phase {
  std::vector<double> latency_ms;   // per completed request, from due time
  std::vector<double> lateness_ms;  // open loop: submit time - due time
  std::vector<double> submit_us;    // time inside Batcher::Submit
  int64_t completed = 0;
  double seconds = 0;  // first submit to last completion
  int64_t backlog_end = 0;  // in flight when sending stopped
  /** Per block, the median in flight over its last quarter minus that
   *  over its first quarter. */
  std::vector<double> backlog_growth;
  double worst_error = 0;
};

/** Adds a later block of the same phase kind to `into`. */
void Append(Phase& into, const Phase& block) {
  auto extend = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  extend(into.latency_ms, block.latency_ms);
  extend(into.lateness_ms, block.lateness_ms);
  extend(into.submit_us, block.submit_us);
  into.completed += block.completed;
  into.seconds += block.seconds;
  into.backlog_end = block.backlog_end;
  extend(into.backlog_growth, block.backlog_growth);
  into.worst_error = std::max(into.worst_error, block.worst_error);
}

/**
 * Drives the batcher from the calling thread (submits) and one collector
 * thread (waits on futures in submission order and checks each response).
 * Closed loop: keeps `outstanding` requests in flight. Open loop: submits
 * request i at start + i / rate, and times it from that due time. Every
 * request has completed when it returns.
 */
Phase RunPhase(Batcher& batcher, const std::vector<PoolEntry>& pool,
               bool open_loop, double rate, int64_t outstanding,
               double seconds, Report& report) {
  struct Pending {
    ServeFuture future;
    Clock::time_point due;
    size_t pool_index;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> queue;
  bool closed = false;
  int64_t in_flight = 0;
  Phase phase;
  int64_t failures = 0;
  std::vector<std::string> messages;
  const Clock::time_point start = Clock::now();

  std::thread collector([&] {
    for (;;) {
      Pending pending;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !queue.empty() || closed; });
        if (queue.empty()) return;
        pending = std::move(queue.front());
        queue.pop_front();
      }
      ServeResponse response = pending.future.get();
      Clock::time_point done = Clock::now();
      double worst = 0;
      bool ok = response.ok() &&
                Matches(response.value(), pool[pending.pool_index].reference,
                        worst);
      {
        std::lock_guard<std::mutex> lock(mu);
        phase.latency_ms.push_back(
            std::chrono::duration<double, std::milli>(done - pending.due)
                .count());
        phase.worst_error = std::max(phase.worst_error, worst);
        if (!ok) {
          ++failures;
          if (messages.size() < 5) {
            messages.push_back(response.ok() ? "response differs from "
                                               "the reference"
                                             : response.status().ToString());
          }
        }
        --in_flight;
      }
      cv.notify_all();
    }
  });

  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<double> first_quarter, last_quarter;  // in flight at submits
  for (int64_t i = 0;; ++i) {
    Clock::time_point due;
    if (open_loop) {
      due = start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(i / rate));
      if (due >= stop) break;
      std::this_thread::sleep_until(due);
    } else {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return in_flight < outstanding; });
      due = Clock::now();
      if (due >= stop) break;
    }
    const size_t index = static_cast<size_t>(i) % pool.size();
    std::vector<Tensor> inputs = pool[index].inputs;
    Clock::time_point submit_start = Clock::now();
    if (open_loop) {
      phase.lateness_ms.push_back(
          std::chrono::duration<double, std::milli>(submit_start - due)
              .count());
    }
    ServeFuture future;
    {
      ScopedSpan span("serve", "Submit");
      future = batcher.Submit(std::move(inputs));
    }
    phase.submit_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() -
                                                  submit_start)
            .count());
    {
      std::lock_guard<std::mutex> lock(mu);
      ++in_flight;
      const double t = SecondsSince(start);
      if (t < 0.25 * seconds) {
        first_quarter.push_back(static_cast<double>(in_flight));
      } else if (t >= 0.75 * seconds) {
        last_quarter.push_back(static_cast<double>(in_flight));
      }
      queue.push_back(Pending{std::move(future), due, index});
    }
    cv.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    phase.backlog_end = in_flight;
    closed = true;
  }
  cv.notify_all();
  collector.join();

  phase.backlog_growth = {Median(last_quarter) - Median(first_quarter)};
  phase.completed = static_cast<int64_t>(phase.latency_ms.size());
  phase.seconds = SecondsSince(start);
  report.Attempt(static_cast<int64_t>(phase.latency_ms.size()) - failures);
  for (int64_t f = 0; f < failures; ++f) {
    report.Check(false, f < static_cast<int64_t>(messages.size())
                            ? messages[f]
                            : "response differs from the reference");
  }
  return phase;
}

/** Runs `exe` kDirectRuns times on `inputs`, checking each output; returns
 *  the median wall time (ms). */
double DirectRuns(const Executable& exe, const std::vector<Tensor>& inputs,
                  const std::vector<Tensor>& reference, int num_threads,
                  const std::string& label, Report& report,
                  int64_t* allocations) {
  partir::RunOptions options;
  options.backend = partir::ExecBackend::kCompiled;
  options.num_threads = num_threads;
  partir::RunStats stats;
  options.stats = &stats;
  std::vector<double> ms;
  for (int i = 0; i < kDirectRuns; ++i) {
    ScopedSpan span("exec", "Run " + label);
    Clock::time_point start = Clock::now();
    StatusOr<std::vector<Tensor>> out = exe.Run(inputs, options);
    ms.push_back(SecondsSince(start) * 1e3);
    double worst = 0;
    report.Check(out.ok() && Matches(out.value(), reference, worst),
                 "direct Run " + label + ": " + out.status().ToString());
  }
  if (allocations != nullptr) *allocations = stats.allocations;
  return Median(ms);
}

ServeWorkload WorkloadByName(const std::string& model) {
  return model == "transformer_infer"
             ? partir::serving::TransformerInferWorkload()
             : partir::serving::MatMulChainWorkload();
}

}  // namespace

Report RunServe(const RunConfig& config, const std::string& model,
                double open_loop_rps) {
  Report report;
  HostSpeed host;
  const ServeWorkload workload = WorkloadByName(model);

  std::vector<Interval> setup_when;
  std::vector<double> capture_ms, fingerprint_ms, memory_hit_ms, flush_ms;
  std::unique_ptr<Setup> setup;
  host.Probe();
  for (int i = 0; i < config.setups; ++i) {
    setup.reset();
    Interval when{Clock::now(), {}};
    setup = BuildSetup(config, workload, report);
    when.end = Clock::now();
    host.Probe();
    setup_when.push_back(when);
    capture_ms.push_back(setup->capture_ms);
    fingerprint_ms.push_back(setup->fingerprint_ms);
    memory_hit_ms.push_back(setup->memory_hit_ms);
    flush_ms.push_back(setup->flush_ms);
  }

  // Six blocks, each half partitioning the served traces, then serving:
  // a third closed-loop and the rest open-loop, so that every
  // figure samples the whole run. Serving figures are wall-clock: on a
  // shared 4-core host, throughput flips between modes that last a few
  // seconds, and no probe tracked it well enough to divide by; many short
  // blocks average the modes instead.
  constexpr int kBlocks = 6;
  constexpr double kCompileShare = 0.5;
  const double block_seconds = config.seconds / kBlocks;
  const int64_t max_batch = BatchOptions{}.max_batch;
  CompileFigures compile;
  partir::BatcherStats before = setup->batcher->stats();
  Phase closed, open;
  for (int block = 0; block < kBlocks; ++block) {
    const Clock::time_point start = Clock::now();
    MeasureCompile(config, workload, *setup, kCompileShare * block_seconds,
                   host, compile, report);
    const double serve_seconds =
        std::max(0.0, block_seconds - SecondsSince(start));
    Append(closed, RunPhase(*setup->batcher, setup->pool,
                            /*open_loop=*/false, 0, 2 * max_batch,
                            serve_seconds / 3, report));
    Append(open, RunPhase(*setup->batcher, setup->pool, /*open_loop=*/true,
                          open_loop_rps, 0, 2 * serve_seconds / 3, report));
  }
  partir::BatcherStats after = setup->batcher->stats();
  NormalizeCompile(host, compile);

  // Direct Runs of the batch-1 and batch-8 executables.
  StatusOr<Executable> exe1 =
      setup->direct1.Partition(workload.schedule, workload.mesh);
  StatusOr<Executable> exe8 =
      setup->direct8.Partition(workload.schedule, workload.mesh);
  report.Check(exe1.ok() && exe8.ok(), "direct executables");
  double run_b1 = 0, run_b8 = 0, run_seq_b8 = 0;
  int64_t allocations = 0;
  partir::exec::MemoryStats memory;
  if (exe1.ok() && exe8.ok()) {
    const PoolEntry& unit = setup->pool[0];
    std::vector<Tensor> inputs8 = setup->direct8.RandomInputs(
        Mix(config.seed + 1), workload.index_modulus);
    StatusOr<std::vector<Tensor>> reference8 = [&] {
      ScopedSpan span("exec", "Evaluate reference b8");
      return setup->direct8.Evaluate(inputs8);
    }();
    report.Check(reference8.ok(), "reference b8");
    if (reference8.ok()) {
      run_b1 = DirectRuns(*exe1, unit.inputs, unit.reference, 0, "b1",
                          report, nullptr);
      run_b8 = DirectRuns(*exe8, inputs8, reference8.value(), 0, "b8",
                          report, &allocations);
      run_seq_b8 = DirectRuns(*exe8, inputs8, reference8.value(), 1,
                              "b8 sequential", report, nullptr);
    }
    StatusOr<partir::exec::MemoryStats> stats = exe8->memory_stats();
    report.Check(stats.ok(), "memory_stats b8");
    if (stats.ok()) memory = stats.value();
  }

  // An open loop that keeps up holds a steady backlog; one that falls
  // behind its arrivals grows it through each block. The allowance is two
  // batches plus 10 ms of arrivals, and the median over blocks lets one
  // host stall pass.
  const double growth = Median(open.backlog_growth);
  const bool open_valid =
      growth <= 2 * static_cast<double>(max_batch) + 0.01 * open_loop_rps;

  // Host-normalized times (see HostSpeed).
  auto normalized = [&](const Interval& when) {
    return host.Normalized(when.start, when.end);
  };
  std::vector<double> setup_s;
  for (const Interval& when : setup_when) setup_s.push_back(normalized(when));

  // ---- End to end ----
  report.Add("setup_s", "s", Median(setup_s));
  report.Add("partition_s", "s", Median(compile.partition_s));
  report.Add("search_s", "s", Median(compile.search_s));
  report.Add("warm_start_s", "s", Median(compile.warm_start_s));
  report.Add("est_step_ms", "sim_ms", compile.est_step_ms);
  report.Add("peak_rss_mb", "MiB", PeakRssMb());

  // ---- Per layer (wall-clock, not normalized) ----
  report.Add("host.slowdown", "x", host.MedianFactor());
  report.Add("host.raw_partition_s", "s", Median(compile.raw_partition_s));
  report.Add("ir.capture_ms", "ms", Median(capture_ms));
  report.Add("ir.fingerprint_ms", "ms", Median(fingerprint_ms));
  MedianPasses(compile.passes).AddTo(report);
  compile.collectives.AddTo(report, "served");
  report.Add("persist.disk_hit_ms.served", "ms", Median(compile.disk_hit_ms));
  report.Add("sim.estimate_ms", "ms", Median(compile.estimate_ms));
  report.Add("autopart.evaluations", "count",
             static_cast<double>(compile.evaluations));
  report.Add("autopart.ms_per_eval", "ms", Median(compile.ms_per_eval));
  report.Add("cache.memory_hit_ms", "ms", Median(memory_hit_ms));
  report.Add("persist.flush_ms", "ms", Median(flush_ms));
  report.Add("cache.hits", "count", static_cast<double>(after.cache.hits));
  report.Add("cache.misses", "count", static_cast<double>(after.cache.misses));
  report.Add("cache.disk_hits", "count",
             static_cast<double>(compile.disk_hits));

  std::vector<double> submit_us = closed.submit_us;
  submit_us.insert(submit_us.end(), open.submit_us.begin(),
                   open.submit_us.end());
  const double batches = static_cast<double>(after.batches - before.batches);
  report.Add("serve.latency_p50_ms", "ms", Percentile(open.latency_ms, 0.50));
  report.Add("serve.latency_tail_ms", "ms",
             Percentile(open.latency_ms,
                        TailQuantile(open.latency_ms.size())));
  report.Add("serve.peak_rps", "1/s",
             static_cast<double>(closed.completed) / closed.seconds);
  report.Add("serve.latency_samples", "count",
             static_cast<double>(open.latency_ms.size()));
  report.Add("serve.latency_tail_pct", "%",
             100 * TailQuantile(open.latency_ms.size()));
  report.Add("serve.submit_us_p50", "us", Percentile(submit_us, 0.50));
  report.Add("serve.submit_us_p99", "us", Percentile(submit_us, 0.99));
  report.Add("serve.mean_batch", "count",
             batches > 0 ? static_cast<double>(after.batched_requests -
                                               before.batched_requests) /
                               batches
                         : 0);
  report.Add("serve.batches", "count", batches);
  report.Add("serve.compiles", "count", static_cast<double>(after.compiles));
  report.Add("serve.fallbacks", "count",
             static_cast<double>(after.fallbacks));
  report.Add("exec.run_ms.b1", "ms", run_b1);
  report.Add("exec.run_ms.b8", "ms", run_b8);
  report.Add("exec.run_seq_ms.b8", "ms", run_seq_b8);
  report.Add("exec.allocs_per_run", "count",
             static_cast<double>(allocations));
  report.Add("exec.peak_arena_bytes", "bytes",
             static_cast<double>(memory.peak_arena_bytes));
  report.Add("exec.fused_instructions", "count",
             static_cast<double>(memory.fused_instructions));
  report.Add("exec.in_place_ops", "count",
             static_cast<double>(memory.in_place_ops));
  report.Add("load.lateness_p99_ms", "ms", Percentile(open.lateness_ms, 0.99));
  report.Add("load.lateness_max_ms", "ms", Percentile(open.lateness_ms, 1.0));
  report.Add("load.backlog_end.closed", "count",
             static_cast<double>(closed.backlog_end));
  report.Add("load.backlog_end.open", "count",
             static_cast<double>(open.backlog_end));
  report.Add("compile.rounds", "count",
             static_cast<double>(compile.partition_s.size()));
  report.Add("load.worst_abs_error", "abs",
             std::max(closed.worst_error, open.worst_error));
  report.Add("serve.open_loop_valid", "bool", open_valid ? 1 : 0);
  if (!open_valid) {
    std::printf("INVALID open loop: the backlog grew by %.0f requests per "
                "block at %.0f requests/s; serve.latency_* are not a "
                "steady-state figure\n",
                growth, open_loop_rps);
  }
  for (const char* name : {"t32", "unet", "gns", "it32", "t32auto"}) {
    CollectiveCounts{}.AddTo(report, name);
  }
  for (const char* name : {"t32", "unet", "gns", "it32"}) {
    report.Add(std::string("persist.disk_hit_ms.") + name, "ms", 0);
  }
  return report;
}

}  // namespace perfbench
