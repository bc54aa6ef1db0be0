#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>
#include <utility>

namespace perfbench {
namespace {

// Spans beyond this are counted, not kept (bounds the traced run's memory).
constexpr size_t kMaxSpans = 2'000'000;

thread_local std::vector<int64_t> open_spans;

int64_t ThreadNumber() {
  return static_cast<int64_t>(
      std::hash<std::thread::id>()(std::this_thread::get_id()) % 100000);
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

}  // namespace

const std::vector<std::string>& TraceLayers() {
  static const std::vector<std::string> layers = {
      "ir", "pass", "spmd", "sim", "autopart", "api", "persist", "serve",
      "exec"};
  return layers;
}

Tracer::Tracer() : epoch_(Clock::now()) {}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

double Tracer::Micros(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - epoch_).count();
}

int64_t Tracer::Begin() {
  if (!enabled_) return 0;
  int64_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_id_++;
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::End(int64_t id, const char* layer, std::string name,
                 Clock::time_point start) {
  if (id == 0) return;
  Clock::time_point end = Clock::now();
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  int64_t parent = open_spans.empty() ? 0 : open_spans.back();
  Span span{std::move(name), layer,         id,
            parent,          Micros(start), Micros(end) - Micros(start),
            ThreadNumber()};
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  spans_.push_back(std::move(span));
}

void Tracer::Add(const char* layer, std::string name, int64_t parent,
                 Clock::time_point start, double dur_us) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  spans_.push_back(Span{std::move(name), layer, next_id_++, parent,
                        Micros(start), dur_us, ThreadNumber()});
}

int64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> Tracer::SelfMsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<int64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& span : spans_) {
    if (span.parent != 0) {
      children[span.parent].push_back(
          {span.start_us, span.start_us + span.dur_us});
    }
  }
  std::map<std::string, double> self_ms;
  for (const std::string& layer : TraceLayers()) self_ms[layer] = 0;
  for (const Span& span : spans_) {
    const double begin = span.start_us, end = span.start_us + span.dur_us;
    double covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      // Union of the children's intervals, clipped to this span.
      std::vector<std::pair<double, double>>& intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      double cursor = begin;
      for (const auto& [lo, hi] : intervals) {
        double from = std::max(lo, cursor), to = std::min(hi, end);
        if (to > from) {
          covered += to - from;
          cursor = to;
        }
      }
    }
    self_ms[span.layer] += std::max(0.0, span.dur_us - covered) / 1e3;
  }
  return self_ms;
}

bool Tracer::Write(const std::string& dir) const {
  std::map<std::string, double> self_ms = SelfMsByLayer();
  std::lock_guard<std::mutex> lock(mu_);
  {
    std::ofstream out(dir + "/trace.json");
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    char buffer[128];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::snprintf(buffer, sizeof(buffer),
                    "\"ph\":\"X\",\"pid\":1,\"tid\":%lld,\"ts\":%.3f,"
                    "\"dur\":%.3f",
                    static_cast<long long>(span.thread), span.start_us,
                    span.dur_us);
      out << "{\"name\":\"" << JsonEscape(span.name) << "\",\"cat\":\""
          << span.layer << "\"," << buffer << ",\"args\":{\"id\":" << span.id
          << ",\"parent\":" << span.parent << "}}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    if (!out) return false;
  }
  std::map<std::string, std::pair<int64_t, double>> totals;
  for (const Span& span : spans_) {
    totals[span.layer].first += 1;
    totals[span.layer].second += span.dur_us / 1e3;
  }
  double all_self = 0;
  for (const auto& [layer, ms] : self_ms) all_self += ms;
  std::ofstream table(dir + "/self_time.txt");
  char line[160];
  std::snprintf(line, sizeof(line), "%-10s %10s %14s %14s %8s\n", "layer",
                "spans", "total_ms", "self_ms", "self_%");
  table << line;
  for (const std::string& layer : TraceLayers()) {
    std::snprintf(line, sizeof(line), "%-10s %10lld %14.3f %14.3f %7.2f%%\n",
                  layer.c_str(),
                  static_cast<long long>(totals[layer].first),
                  totals[layer].second, self_ms[layer],
                  all_self > 0 ? 100.0 * self_ms[layer] / all_self : 0.0);
    table << line;
  }
  table << "dropped_spans " << dropped_ << "\n";
  return static_cast<bool>(table);
}

ScopedSpan::ScopedSpan(const char* layer, std::string name)
    : layer_(layer), name_(std::move(name)),
      id_(Tracer::Get().Begin()), start_(Clock::now()) {}

ScopedSpan::~ScopedSpan() {
  Tracer::Get().End(id_, layer_, std::move(name_), start_);
}

}  // namespace perfbench
