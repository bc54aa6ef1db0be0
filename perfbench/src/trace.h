/**
 * @file
 * Span recording for the traced run. Spans are taken in the benchmark's
 * own code around each call into a layer's public functions (nothing
 * inside the library is instrumented), kept in memory, and written out at
 * the end as Chrome trace-event JSON plus a per-layer self-time table.
 *
 * A span's self time is its duration minus the part of it covered by its
 * child spans. Nesting is tracked per thread; spans built from the pass
 * manager's statistics name their parent explicitly.
 */
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

/** The layers the self-time table reports, in report order. */
const std::vector<std::string>& TraceLayers();

class Tracer {
 public:
  struct Span {
    std::string name;
    const char* layer = "";
    int64_t id = 0;
    int64_t parent = 0;  // 0 = root
    double start_us = 0;  // since the tracer's epoch
    double dur_us = 0;
    int64_t thread = 0;
  };

  /** The process-wide tracer; disabled until Enable(). */
  static Tracer& Get();

  void Enable() { enabled_ = true; }
  void Disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }

  /** Opens a span on the calling thread; returns its id (0 when off). */
  int64_t Begin();
  /** Closes span `id` opened at `start`. */
  void End(int64_t id, const char* layer, std::string name,
           Clock::time_point start);
  /** Records a finished span with an explicit parent (not on the
   *  calling thread's nesting stack). */
  void Add(const char* layer, std::string name, int64_t parent,
           Clock::time_point start, double dur_us);

  int64_t dropped() const;
  size_t size() const;

  /** Self time per layer (ms), over every recorded span. */
  std::map<std::string, double> SelfMsByLayer() const;

  /** Writes trace.json (Chrome trace events) and self_time.txt under
   *  `dir`; returns false on an I/O error. */
  bool Write(const std::string& dir) const;

 private:
  Tracer();
  double Micros(Clock::time_point t) const;

  std::atomic<bool> enabled_{false};
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  int64_t next_id_ = 1;
  int64_t dropped_ = 0;
};

/** RAII span on the calling thread. */
class ScopedSpan {
 public:
  ScopedSpan(const char* layer, std::string name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }
  Clock::time_point start() const { return start_; }

 private:
  const char* layer_;
  std::string name_;
  int64_t id_;
  Clock::time_point start_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
