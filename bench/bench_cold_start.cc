// Cold-start bench for the persistent cross-process compilation cache:
// measures Partition latency for every serving workload in three regimes —
// cold (full pipeline, no cache), disk-warm (fresh process state, entries
// on disk), and memory-warm (in-memory LRU hit) — and emits one JSON line
// per workload plus a summary with the disk-warm speedup.
//
// The enforced floor runs matmul_chain under an AutomaticPartition search
// schedule ("matmul_chain_auto"): cold pays the full MCTS search, which is
// exactly the work the persistent cache amortizes across process restarts.
// (The manual serving schedules compile a four-op chain in ~0.1 ms, the
// same order as a single file read, so no disk-touching path can beat them
// 10x — the informational rows below still report those regimes.)
//
// Two-process warm-start protocol (the CI step):
//   bench_cold_start --mode compile --cache-dir DIR   # process A: populate
//   bench_cold_start --mode warm --cache-dir DIR --enforce-floor
//     # process B: must report disk hits on every workload and at least a
//     # 10x disk-warm-vs-cold speedup on matmul_chain_auto, else exits
//     # non-zero.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/models/serving.h"

using namespace partir;
using namespace partir::bench;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kIterations = 5;
constexpr double kFloor = 10.0;  // disk-warm must beat cold by this factor
constexpr int kFloorSimulations = 256;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/** The floor schedule: discover sharding over every mesh axis. The key is
 *  deterministic (axes, simulations, seed, device all participate), so a
 *  restarted process hits the same disk entry and skips the search. */
std::vector<Tactic> AutoSchedule(const serving::ServeWorkload& workload) {
  AutomaticPartition tactic;
  tactic.name = "auto";
  for (const MeshAxis& axis : workload.mesh.axes()) {
    tactic.axes.push_back(axis.name);
  }
  tactic.options.simulations = kFloorSimulations;
  tactic.options.max_actions = 4;
  return {tactic};
}

struct WorkloadTiming {
  std::string name;
  double cold_ms = 0;         // full pipeline, cache off
  double disk_warm_ms = 0;    // fresh Program + cache, entries on disk
  double memory_warm_ms = 0;  // repeat Partition on one Program
  int64_t disk_hits = 0;
  int64_t disk_corrupt = 0;
};

/** One timed Partition on a fresh Program (fresh in-memory cache). */
double TimeFreshPartition(const serving::ServeWorkload& workload,
                          const std::vector<Tactic>& schedule,
                          const PartitionOptions& options,
                          PartitionCacheStats* stats_out = nullptr) {
  Program program = Program::Capture(workload.build, /*batch=*/4);
  Clock::time_point start = Clock::now();
  StatusOr<Executable> exe =
      program.Partition(schedule, workload.mesh, options);
  if (!exe.ok() && schedule.size() > 0) {
    // Workloads whose schedule cannot shard this batch serve unpartitioned.
    exe = program.Partition({}, workload.mesh, options);
  }
  double elapsed = MillisSince(start);
  if (!exe.ok()) PARTIR_FATAL() << exe.status().ToString();
  program.partition_cache()->FlushDiskWrites();
  if (stats_out != nullptr) *stats_out = program.cache_stats();
  return elapsed;
}

WorkloadTiming Measure(const serving::ServeWorkload& workload,
                       const std::string& name,
                       const std::vector<Tactic>& schedule,
                       const std::string& cache_dir) {
  WorkloadTiming timing;
  timing.name = name;

  PartitionOptions cold;
  cold.use_cache = false;
  double best = 0;
  for (int i = 0; i < kIterations; ++i) {
    double ms = TimeFreshPartition(workload, schedule, cold);
    best = (i == 0) ? ms : std::min(best, ms);
  }
  timing.cold_ms = best;

  PartitionOptions disk;
  disk.cache_dir = cache_dir;
  double best_disk = 0;
  for (int i = 0; i < kIterations; ++i) {
    PartitionCacheStats stats;
    double ms = TimeFreshPartition(workload, schedule, disk, &stats);
    best_disk = (i == 0) ? ms : std::min(best_disk, ms);
    timing.disk_hits += stats.disk_hits;
    timing.disk_corrupt += stats.disk_corrupt;
  }
  timing.disk_warm_ms = best_disk;

  // Memory-warm: second Partition on one Program is an in-memory LRU hit.
  Program program = Program::Capture(workload.build, /*batch=*/4);
  StatusOr<Executable> first =
      program.Partition(schedule, workload.mesh, disk);
  std::vector<Tactic> repeat_schedule = schedule;
  if (!first.ok()) repeat_schedule = {};
  (void)program.Partition(repeat_schedule, workload.mesh, disk);
  Clock::time_point start = Clock::now();
  StatusOr<Executable> repeat =
      program.Partition(repeat_schedule, workload.mesh, disk);
  timing.memory_warm_ms = MillisSince(start);
  if (!repeat.ok()) PARTIR_FATAL() << repeat.status().ToString();
  program.partition_cache()->FlushDiskWrites();
  return timing;
}

void PrintTiming(const WorkloadTiming& timing, double speedup) {
  JsonWriter json;
  json.BeginObject()
      .Key("bench").Value("cold_start")
      .Key("workload").Value(timing.name)
      .Key("cold_ms").Value(timing.cold_ms)
      .Key("disk_warm_ms").Value(timing.disk_warm_ms)
      .Key("memory_warm_ms").Value(timing.memory_warm_ms)
      .Key("disk_speedup").Value(speedup)
      .Key("disk_hits").Value(static_cast<double>(timing.disk_hits))
      .Key("disk_corrupt").Value(static_cast<double>(timing.disk_corrupt));
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
}

const serving::ServeWorkload* FindWorkload(
    const std::vector<serving::ServeWorkload>& workloads,
    const std::string& name) {
  for (const serving::ServeWorkload& workload : workloads) {
    if (workload.name == name) return &workload;
  }
  PARTIR_FATAL() << "serving workload '" << name << "' not found";
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  std::string cache_dir;
  std::string mode = "full";  // full | compile | warm
  std::string save_result;    // SaveResult artifact for tools/partir_lint
  std::string save_program;   // Program::Save artifact for tools/partir_lint
  bool enforce_floor = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cache-dir") == 0 && i + 1 < argc) {
      cache_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--mode") == 0 && i + 1 < argc) {
      mode = argv[++i];
    } else if (std::strcmp(argv[i], "--enforce-floor") == 0) {
      enforce_floor = true;
    } else if (std::strcmp(argv[i], "--save-result") == 0 && i + 1 < argc) {
      save_result = argv[++i];
    } else if (std::strcmp(argv[i], "--save-program") == 0 && i + 1 < argc) {
      save_program = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--cache-dir DIR] [--mode full|compile|warm] "
                   "[--enforce-floor] [--save-result PATH] "
                   "[--save-program PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (cache_dir.empty()) {
    cache_dir = (std::filesystem::temp_directory_path() /
                 ("partir-cold-start-" + std::to_string(::getpid())))
                    .string();
  }

  const std::vector<serving::ServeWorkload> workloads =
      serving::AllServeWorkloads();
  const serving::ServeWorkload* chain = FindWorkload(workloads, "matmul_chain");

  if (!save_result.empty()) {
    // Save one partitioned result in the SaveResult entry format so the CI
    // lint step has a real artifact to analyze.
    Program program = Program::Capture(chain->build, /*batch=*/4);
    StatusOr<Executable> exe =
        program.Partition(chain->schedule, chain->mesh);
    if (!exe.ok()) PARTIR_FATAL() << exe.status().ToString();
    Status saved = exe.value().SaveResult(save_result);
    if (!saved.ok()) PARTIR_FATAL() << saved.ToString();
  }
  if (!save_program.empty()) {
    // And the traced program itself, in the Program::Save format.
    Status saved =
        Program::Capture(chain->build, /*batch=*/4).Save(save_program);
    if (!saved.ok()) PARTIR_FATAL() << saved.ToString();
  }

  if (mode == "compile") {
    // Process A of the two-process protocol: populate the disk cache with
    // every serving schedule plus the floor's automatic-search schedule.
    PartitionOptions options;
    options.cache_dir = cache_dir;
    auto report = [&](const std::string& name) {
      JsonWriter json;
      json.BeginObject()
          .Key("bench").Value("cold_start")
          .Key("mode").Value("compile")
          .Key("workload").Value(name)
          .Key("cache_dir").Value(cache_dir);
      json.EndObject();
      std::printf("%s\n", json.str().c_str());
    };
    for (const serving::ServeWorkload& workload : workloads) {
      (void)TimeFreshPartition(workload, workload.schedule, options);
      report(workload.name);
    }
    (void)TimeFreshPartition(*chain, AutoSchedule(*chain), options);
    report("matmul_chain_auto");
    return 0;
  }

  PrintHeader("persistent-cache cold start (" + mode + ")");
  bool hits_ok = true;
  for (const serving::ServeWorkload& workload : workloads) {
    WorkloadTiming timing =
        Measure(workload, workload.name, workload.schedule, cache_dir);
    double speedup =
        timing.disk_warm_ms > 0 ? timing.cold_ms / timing.disk_warm_ms : 0;
    if (timing.disk_hits == 0) hits_ok = false;
    PrintTiming(timing, speedup);
  }

  // The floor row: cold re-runs the MCTS search, disk-warm loads the
  // serialized result of a previous process's search.
  WorkloadTiming floor_timing =
      Measure(*chain, "matmul_chain_auto", AutoSchedule(*chain), cache_dir);
  double floor_speedup = floor_timing.disk_warm_ms > 0
                             ? floor_timing.cold_ms / floor_timing.disk_warm_ms
                             : 0;
  if (floor_timing.disk_hits == 0) hits_ok = false;
  PrintTiming(floor_timing, floor_speedup);

  JsonWriter summary;
  summary.BeginObject()
      .Key("bench").Value("cold_start_summary")
      .Key("matmul_chain_auto_disk_speedup").Value(floor_speedup)
      .Key("floor").Value(kFloor)
      .Key("all_workloads_hit_disk").Value(hits_ok ? 1.0 : 0.0);
  summary.EndObject();
  std::printf("%s\n", summary.str().c_str());

  if (enforce_floor) {
    if (!hits_ok) {
      std::fprintf(stderr,
                   "FAIL: a workload reported zero disk hits (warm start "
                   "did not engage)\n");
      return 1;
    }
    if (floor_speedup < kFloor) {
      std::fprintf(stderr,
                   "FAIL: matmul_chain_auto disk-warm speedup %.1fx is below "
                   "the %.0fx floor\n",
                   floor_speedup, kFloor);
      return 1;
    }
  }
  return 0;
}
