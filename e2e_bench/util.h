// Helpers shared by the benchmark's files: wall and CPU clocks read from
// outside the library, order statistics, the in-memory span log of the
// traced mode, and the named-metric list printed as the result line.
#ifndef E2E_BENCH_UTIL_H_
#define E2E_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

// Seconds on the steady clock (arbitrary origin).
inline double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Process-wide resource usage (getrusage(RUSAGE_SELF)).
struct Usage {
  double user_ms = 0;
  double sys_ms = 0;
  int64_t vcsw = 0;  // voluntary context switches
  double max_rss_mb = 0;
};
Usage ReadUsage();

// Order statistics over a copy of the samples; 0 for an empty vector.
double Quantile(std::vector<double> v, double q);  // linear interpolation
double Median(const std::vector<double>& v);
// Mean of the samples between the first and third quartile: as robust as a
// median against a stray window, but not locked to one value when the
// samples are bucketed (the program's progress/latency histograms are).
double InterquartileMean(std::vector<double> v);
double GeoMean(const std::vector<double>& v);

// Keeps the optimizer from deleting a computation whose result is unused.
void Sink(uint64_t value);

// One span per timed call into the program: name, start, end and the span
// that caused it. Kept in memory, written once when the run ends. A disabled
// log records nothing; Begin returns -1 and End ignores it.
class SpanLog {
 public:
  struct Span {
    const char* name;
    double start_s;
    double end_s;
    int parent;  // index into spans(), -1 for a root
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  int Begin(const char* name, int parent);
  void End(int id);
  std::vector<Span> spans() const;

  // Writes every span plus per-name count, total and self time (duration
  // less the union of its children's intervals) as JSON.
  bool WriteJson(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// RAII span. The parent defaults to the innermost open span on this thread;
// work handed to another thread passes its parent explicitly.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name);
  ScopedSpan(SpanLog* log, const char* name, int parent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
  int saved_current_;
};

// Metrics in print order, each with its unit.
class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, {value, unit}});
  }
  // The value of `name`, 0 when absent.
  double Value(const std::string& name) const {
    for (const auto& item : items_) {
      if (item.first == name) return item.second.first;
    }
    return 0;
  }
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

}  // namespace e2e

#endif  // E2E_BENCH_UTIL_H_
