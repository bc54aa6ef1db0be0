// The `compile` workload: cold manual partitioning of the four Fig. 8
// programs, one automatic search, a disk-warm restart, and repeated
// memory-warm Partition calls. No program is run.
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "bench.h"
#include "src/models/gns.h"
#include "src/models/schedules.h"
#include "src/models/transformer.h"
#include "src/models/unet.h"
#include "trace.h"

namespace perfbench {
namespace {

using partir::AutomaticPartition;
using partir::Executable;
using partir::Func;
using partir::Mesh;
using partir::Module;
using partir::PartitionOptions;
using partir::Program;
using partir::StatusOr;
using partir::Tactic;

/** One manual Fig. 8 case: model, paper schedule, pinned collectives. */
struct ModelCase {
  std::string name;
  std::function<Func*(Module&)> build;
  std::vector<Tactic> schedule;
  /** Collective counts (AG/AR/RS/A2A) on {batch:8, model:2}; a change
   *  here is a different strategy, so it counts as a failure. */
  CollectiveCounts pinned;
};

std::vector<ModelCase> ManualCases() {
  using namespace partir::schedules;
  partir::TransformerConfig t32 = partir::TransformerConfig::T32Scaled();
  partir::TransformerConfig it32 = t32;
  it32.seq = 16;
  partir::UNetConfig unet = partir::UNetConfig::Bench();
  partir::GnsConfig gns = partir::GnsConfig::Bench();
  return {
      {"t32",
       [t32](Module& m) { return BuildTransformerTrainingStep(m, t32); },
       TransformerBPMPZ3EMB(),
       {707, 292, 257, 0}},
      {"unet", [unet](Module& m) { return BuildUNetTrainingStep(m, unet); },
       {UNetBP(), UNetMP(), UNetZ3()},
       {245, 95, 171, 0}},
      {"gns", [gns](Module& m) { return BuildGnsTrainingStep(m, gns); },
       {GnsES()},
       {0, 322, 0, 0}},
      {"it32",
       [it32](Module& m) { return BuildTransformerInference(m, it32, 8); },
       {InferenceBP(), TransformerMP()},
       {0, 576, 0, 0}},
  };
}

/** Timed calls per round beyond the one cold round: automatic searches,
 *  disk-warm restarts of the four programs, and memory-warm T32
 *  Partitions. A run has only two or three rounds, so the shorter calls
 *  repeat within one. */
constexpr int kSearchesPerRound = 2;
constexpr int kRestartsPerRound = 6;
constexpr int kMemoryHitsPerRound = 30;

Mesh ManualMesh() { return Mesh({{"batch", 8}, {"model", 2}}); }
Mesh AutoMesh() { return Mesh({{"batch", 8}, {"model", 4}}); }

Program CaptureTraced(const std::string& name,
                      const std::function<Func*(Module&)>& build) {
  ScopedSpan span("ir", "Capture " + name);
  return Program::Capture(build);
}

/** Everything the measured part needs; built several times per run so
 *  setup_s is a median. */
struct Setup {
  std::unique_ptr<ScratchDir> cache_dir;
  std::vector<Program> programs;  // one per ManualCases() entry
  Program auto_program;
  double capture_ms = 0;      // the five captures
  double fingerprint_ms = 0;  // TraceFingerprint on the four fresh programs
  double flush_ms = 0;        // FlushDiskWrites after populating the disk

  /** Options of the populating, disk-warm and memory-warm Partitions. The
   *  per-tactic reports are off there: they are half of a cold T32 pipeline
   *  but only a little metadata in a cache entry, so leaving them out
   *  halves the set-up and barely changes what a warm start reads. */
  PartitionOptions WarmOptions() const {
    PartitionOptions options;
    options.cache_dir = cache_dir->path();
    options.per_tactic_reports = false;
    return options;
  }
};

std::unique_ptr<Setup> BuildSetup(const RunConfig& config,
                                  const std::vector<ModelCase>& cases,
                                  Report& report) {
  auto setup = std::make_unique<Setup>();
  setup->cache_dir = std::make_unique<ScratchDir>(config.tmp_dir);
  Clock::time_point start = Clock::now();
  for (const ModelCase& model : cases) {
    setup->programs.push_back(CaptureTraced(model.name, model.build));
  }
  partir::TransformerConfig t32_4l = partir::TransformerConfig::T32Scaled();
  t32_4l.num_layers = 4;
  setup->auto_program = CaptureTraced("t32/4L", [t32_4l](Module& m) {
    return partir::BuildTransformerTrainingStep(m, t32_4l);
  });
  setup->capture_ms = SecondsSince(start) * 1e3;

  start = Clock::now();
  for (size_t i = 0; i < cases.size(); ++i) {
    ScopedSpan span("ir", "TraceFingerprint " + cases[i].name);
    (void)setup->programs[i].TraceFingerprint();
  }
  setup->fingerprint_ms = SecondsSince(start) * 1e3;

  // Populate the private disk cache the warm restarts read.
  const PartitionOptions options = setup->WarmOptions();
  for (size_t i = 0; i < cases.size(); ++i) {
    ScopedSpan span("api", "Partition populate " + cases[i].name);
    StatusOr<Executable> exe =
        setup->programs[i].Partition(cases[i].schedule, ManualMesh(),
                                     options);
    report.Check(exe.ok() && CollectiveCounts::Of(exe->Collectives()) ==
                                 cases[i].pinned,
                 "populate " + cases[i].name + ": " +
                     (exe.ok() ? CollectiveCounts::Of(exe->Collectives())
                                     .ToString()
                               : exe.status().ToString()));
    if (exe.ok()) RecordPassSpans(exe->pipeline_stats(), span.id(),
                                  span.start());
  }
  start = Clock::now();
  for (Program& program : setup->programs) {
    ScopedSpan span("persist", "FlushDiskWrites");
    program.partition_cache()->FlushDiskWrites();
  }
  setup->flush_ms = SecondsSince(start) * 1e3;
  for (size_t i = 0; i < cases.size(); ++i) {
    partir::PartitionCacheStats stats = setup->programs[i].cache_stats();
    report.Check(stats.disk_writes == 1 && stats.disk_write_errors == 0,
                 "populate " + cases[i].name + ": disk writes " +
                     std::to_string(stats.disk_writes));
  }
  return setup;
}

/** One measured round: when each timed call ran, plus what it returned. */
struct Round {
  std::vector<Interval> cold;  // per manual model
  std::vector<Interval> searches;
  std::vector<std::vector<Interval>> restarts;  // per manual model each
  std::vector<Interval> hits;  // memory-warm T32 Partitions
  double est_step_ms = 0;
  double estimate_ms = 0;  // Estimate(DeviceSpec) over the five results
  double ms_per_eval = 0;
  int64_t evaluations = 0;
  int64_t disk_hits = 0;
  PassBreakdown passes;
  std::vector<CollectiveCounts> collectives;  // four manual + auto
};

/** Runs a cold, an automatic, a disk-warm and a memory-warm round,
 *  probing the host between the timed calls. */
Round RunRound(const RunConfig& config, const std::vector<ModelCase>& cases,
               Setup& setup, HostSpeed& host, Report& report) {
  Round round;
  PartitionOptions cold;
  cold.use_cache = false;

  host.Probe();
  std::vector<std::optional<Executable>> cold_exes(cases.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    Interval when;
    StatusOr<Executable> exe =
        TimedPartition("api", "Partition cold " + cases[i].name,
                       setup.programs[i], cases[i].schedule, ManualMesh(),
                       cold, when);
    host.Probe();
    round.cold.push_back(when);
    CollectiveCounts counts =
        exe.ok() ? CollectiveCounts::Of(exe->Collectives())
                 : CollectiveCounts{};
    report.Check(exe.ok() && counts == cases[i].pinned,
                 "cold " + cases[i].name + ": " +
                     (exe.ok() ? counts.ToString() + " (pinned " +
                                     cases[i].pinned.ToString() + ")"
                               : exe.status().ToString()));
    round.collectives.push_back(counts);
    if (!exe.ok()) continue;
    round.passes.Accumulate(exe->pipeline_stats());
    cold_exes[i] = std::move(exe).value();
  }

  // Automatic search over both axes, repeated with the same seed.
  AutomaticPartition tactic;
  tactic.name = "auto";
  tactic.axes = {"batch", "model"};
  tactic.options.simulations = 48;
  tactic.options.max_actions = 4;
  tactic.options.seed = config.seed;
  std::optional<Executable> first_search;
  for (int i = 0; i < kSearchesPerRound; ++i) {
    Interval when;
    StatusOr<Executable> searched =
        TimedPartition("api", "Partition auto t32/4L", setup.auto_program,
                       {tactic}, AutoMesh(), cold, when);
    host.Probe();
    round.searches.push_back(when);
    report.Check(searched.ok() && searched->tactics().size() == 1 &&
                     searched->tactics()[0].evaluations > 0 &&
                     (!first_search.has_value() ||
                      CollectiveCounts::Of(searched->Collectives()) ==
                          CollectiveCounts::Of(first_search->Collectives())),
                 "auto t32/4L: " + searched.status().ToString());
    if (!first_search.has_value() && searched.ok()) {
      first_search = std::move(searched).value();
    }
  }
  if (first_search.has_value()) {
    const Executable& auto_exe = *first_search;
    round.collectives.push_back(CollectiveCounts::Of(auto_exe.Collectives()));
    if (!auto_exe.tactics().empty()) {
      const partir::TacticReport& tactic_report = auto_exe.tactics()[0];
      round.evaluations = tactic_report.evaluations;
      round.ms_per_eval = tactic_report.evaluations > 0
                              ? tactic_report.search_seconds * 1e3 /
                                    tactic_report.evaluations
                              : 0;
    }
  }

  // Estimates of the five results, re-derived through the simulator.
  for (const std::optional<Executable>& exe : cold_exes) {
    if (!exe.has_value()) continue;
    double step_ms = EstimateMs(*exe, round.estimate_ms);
    report.Check(step_ms == exe->Estimate().step_seconds * 1e3,
                 "Estimate(DeviceSpec) disagrees with the pipeline estimate");
    round.est_step_ms += step_ms;
  }
  if (first_search.has_value()) {
    round.est_step_ms += EstimateMs(*first_search, round.estimate_ms);
  }

  // Disk-warm restarts: fresh programs with fresh caches.
  const PartitionOptions warm = setup.WarmOptions();
  for (int restart = 0; restart < kRestartsPerRound; ++restart) {
    round.restarts.emplace_back();
    for (size_t i = 0; i < cases.size(); ++i) {
      Program fresh = CaptureTraced(cases[i].name, cases[i].build);
      host.Probe();
      Interval when;
      StatusOr<Executable> exe =
          TimedPartition("persist", "Partition disk-warm " + cases[i].name,
                         fresh, cases[i].schedule, ManualMesh(), warm, when);
      host.Probe();
      round.restarts.back().push_back(when);
      partir::PartitionCacheStats stats = fresh.cache_stats();
      round.disk_hits += stats.disk_hits;
      bool same = exe.ok() && cold_exes[i].has_value() &&
                  CollectiveCounts::Of(exe->Collectives()) ==
                      CollectiveCounts::Of(cold_exes[i]->Collectives()) &&
                  exe->Estimate().step_seconds ==
                      cold_exes[i]->Estimate().step_seconds;
      report.Check(same && stats.disk_hits == 1,
                   "disk-warm " + cases[i].name + ": disk_hits " +
                       std::to_string(stats.disk_hits) +
                       (exe.ok() ? "" : " " + exe.status().ToString()));
    }
  }

  // Memory-warm: the populated T32 entry, from the in-memory cache.
  for (int i = 0; i < kMemoryHitsPerRound; ++i) {
    Interval when;
    StatusOr<Executable> exe =
        TimedPartition("api", "Partition memory-hit t32", setup.programs[0],
                       cases[0].schedule, ManualMesh(), warm, when);
    report.Check(exe.ok() && CollectiveCounts::Of(exe->Collectives()) ==
                                 cases[0].pinned,
                 "memory-hit t32");
    round.hits.push_back(when);
  }
  return round;
}

template <typename Field>
double MedianOf(const std::vector<Round>& rounds, Field field) {
  std::vector<double> values;
  for (const Round& round : rounds) values.push_back(field(round));
  return Median(values);
}

}  // namespace

Report RunCompile(const RunConfig& config) {
  Report report;
  HostSpeed host;
  const std::vector<ModelCase> cases = ManualCases();

  // Set up several times (setup_s is their median); keep the last.
  std::vector<Interval> setup_when;
  std::vector<double> capture_ms, fingerprint_ms, flush_ms;
  std::unique_ptr<Setup> setup;
  host.Probe();
  for (int i = 0; i < config.setups; ++i) {
    setup.reset();
    Interval when{Clock::now(), {}};
    setup = BuildSetup(config, cases, report);
    when.end = Clock::now();
    host.Probe();
    setup_when.push_back(when);
    capture_ms.push_back(setup->capture_ms);
    fingerprint_ms.push_back(setup->fingerprint_ms);
    flush_ms.push_back(setup->flush_ms);
  }

  // Rounds while the time lasts.
  std::vector<Round> rounds;
  Clock::time_point start = Clock::now();
  double last_round_s = 0;
  while (rounds.size() < static_cast<size_t>(config.min_rounds) ||
         SecondsSince(start) + last_round_s <= config.seconds) {
    Clock::time_point round_start = Clock::now();
    rounds.push_back(RunRound(config, cases, *setup, host, report));
    last_round_s = SecondsSince(round_start);
  }
  for (const Round& round : rounds) {
    report.Check(round.est_step_ms == rounds[0].est_step_ms &&
                     round.collectives == rounds[0].collectives,
                 "est_step_ms or collectives differ between rounds");
  }

  std::vector<Interval> hits;
  for (const Round& round : rounds) {
    hits.insert(hits.end(), round.hits.begin(), round.hits.end());
  }

  // Host-normalized times (see HostSpeed).
  auto normalized = [&](const Interval& when) {
    return host.Normalized(when.start, when.end);
  };
  auto sum_normalized = [&](const std::vector<Interval>& calls) {
    double total = 0;
    for (const Interval& when : calls) total += normalized(when);
    return total;
  };
  std::vector<double> setup_s, hit_ms;
  for (const Interval& when : setup_when) setup_s.push_back(normalized(when));
  for (const Interval& when : hits) hit_ms.push_back(when.seconds() * 1e3);

  partir::PartitionCacheStats cache;
  for (const Program& program : setup->programs) {
    partir::PartitionCacheStats stats = program.cache_stats();
    cache.hits += stats.hits;
    cache.misses += stats.misses;
    cache.disk_hits += stats.disk_hits;
  }
  for (const Round& round : rounds) cache.disk_hits += round.disk_hits;

  // ---- End to end ----
  report.Add("setup_s", "s", Median(setup_s));
  report.Add("partition_s", "s", MedianOf(rounds, [&](const Round& r) {
               return sum_normalized(r.cold);
             }));
  std::vector<double> search_s, warm_start_s;
  for (const Round& round : rounds) {
    for (const Interval& when : round.searches) {
      search_s.push_back(normalized(when));
    }
    for (const std::vector<Interval>& restart : round.restarts) {
      warm_start_s.push_back(sum_normalized(restart));
    }
  }
  report.Add("search_s", "s", Median(search_s));
  report.Add("warm_start_s", "s", Median(warm_start_s));
  report.Add("est_step_ms", "sim_ms", rounds[0].est_step_ms);
  report.Add("peak_rss_mb", "MiB", PeakRssMb());

  // ---- Per layer (wall-clock, not normalized) ----
  report.Add("host.slowdown", "x", host.MedianFactor());
  report.Add("host.raw_partition_s", "s", MedianOf(rounds, [](const Round& r) {
               double total = 0;
               for (const Interval& when : r.cold) total += when.seconds();
               return total;
             }));
  report.Add("ir.capture_ms", "ms", Median(capture_ms));
  report.Add("ir.fingerprint_ms", "ms", Median(fingerprint_ms));
  std::vector<PassBreakdown> passes;
  for (const Round& round : rounds) passes.push_back(round.passes);
  MedianPasses(passes).AddTo(report);
  for (size_t i = 0; i < cases.size(); ++i) {
    rounds[0].collectives.at(i).AddTo(report, cases[i].name);
    std::vector<double> disk_hit_ms;
    for (const Round& round : rounds) {
      for (const std::vector<Interval>& restart : round.restarts) {
        disk_hit_ms.push_back(restart.at(i).seconds() * 1e3);
      }
    }
    report.Add("persist.disk_hit_ms." + cases[i].name, "ms",
               Median(disk_hit_ms));
  }
  (rounds[0].collectives.size() > cases.size()
       ? rounds[0].collectives.back()
       : CollectiveCounts{})
      .AddTo(report, "t32auto");
  report.Add("sim.estimate_ms", "ms",
             MedianOf(rounds, [](const Round& r) { return r.estimate_ms; }));
  report.Add("autopart.evaluations", "count",
             static_cast<double>(rounds[0].evaluations));
  report.Add("autopart.ms_per_eval", "ms",
             MedianOf(rounds, [](const Round& r) { return r.ms_per_eval; }));
  report.Add("cache.memory_hit_ms", "ms", Median(hit_ms));
  report.Add("persist.flush_ms", "ms", Median(flush_ms));
  report.Add("cache.hits", "count", static_cast<double>(cache.hits));
  report.Add("cache.misses", "count", static_cast<double>(cache.misses));
  report.Add("cache.disk_hits", "count", static_cast<double>(cache.disk_hits));
  report.Add("compile.rounds", "count", static_cast<double>(rounds.size()));
  AddServeZeros(report);
  return report;
}

}  // namespace perfbench
