#include "util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "src/common/json.h"

namespace e2e {

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_ms = ru.ru_utime.tv_sec * 1e3 + ru.ru_utime.tv_usec / 1e3;
  u.sys_ms = ru.ru_stime.tv_sec * 1e3 + ru.ru_stime.tv_usec / 1e3;
  u.vcsw = ru.ru_nvcsw;
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double InterquartileMean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t lo = v.size() / 4;
  const size_t hi = v.size() - v.size() / 4;
  double sum = 0;
  for (size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-300));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

void Sink(uint64_t value) {
  static volatile uint64_t sink;
  sink = sink + value;
}

int SpanLog::Begin(const char* name, int parent) {
  if (!enabled_) return -1;
  const double now = NowS();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, now, now, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int id) {
  if (id < 0) return;
  const double now = NowS();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_s = now;
}

std::vector<SpanLog::Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanLog::WriteJson(const std::string& path) const {
  const std::vector<Span> spans = this->spans();
  std::vector<std::vector<int>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<size_t>(spans[i].parent)].push_back(
          static_cast<int>(i));
    }
  }
  struct Totals {
    uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, Totals> by_name;
  const double origin = spans.empty() ? 0 : spans.front().start_s;
  iawj::json::Writer w;
  w.BeginObject().Key("spans").BeginArray();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Children may overlap (work spread over threads): subtract the union
    // of their intervals, clipped to the parent's.
    std::vector<std::pair<double, double>> cover;
    for (int c : children[i]) {
      cover.emplace_back(std::max(spans[static_cast<size_t>(c)].start_s,
                                  s.start_s),
                         std::min(spans[static_cast<size_t>(c)].end_s,
                                  s.end_s));
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0, reach = s.start_s;
    for (const auto& [a, b] : cover) {
      const double from = std::max(a, reach);
      if (b > from) {
        covered += b - from;
        reach = b;
      }
    }
    const double dur_ms = (s.end_s - s.start_s) * 1e3;
    Totals& t = by_name[s.name];
    ++t.count;
    t.total_ms += dur_ms;
    t.self_ms += dur_ms - covered * 1e3;
    w.BeginObject()
        .Field("name", s.name)
        .Field("start_us", (s.start_s - origin) * 1e6)
        .Field("end_us", (s.end_s - origin) * 1e6)
        .Field("parent", int64_t{s.parent})
        .EndObject();
  }
  w.EndArray().Key("self_time").BeginObject();
  for (const auto& [name, t] : by_name) {
    w.Key(name)
        .BeginObject()
        .Field("count", t.count)
        .Field("total_ms", t.total_ms)
        .Field("self_ms", t.self_ms)
        .EndObject();
  }
  w.EndObject().EndObject();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(w.str().data(), 1, w.str().size(), f) ==
                  w.str().size();
  return std::fclose(f) == 0 && ok;
}

namespace {
thread_local int g_current_span = -1;
}  // namespace

ScopedSpan::ScopedSpan(SpanLog* log, const char* name)
    : ScopedSpan(log, name, g_current_span) {}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, int parent)
    : log_(log), id_(log->Begin(name, parent)), saved_current_(g_current_span) {
  if (id_ >= 0) g_current_span = id_;
}

ScopedSpan::~ScopedSpan() {
  log_->End(id_);
  g_current_span = saved_current_;
}

}  // namespace e2e
