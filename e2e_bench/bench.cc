// End-to-end benchmark of the intra-window join library.
//
//   e2e_bench --workload <uniform|dense-skew> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//   e2e_bench --self-test
//
// One run generates the workload from the seed, starts an in-process
// serve daemon, passes one untimed warm-up round (all of that is setup_s),
// then repeats whole rounds for --seconds. A round joins the workload's
// windows with each of the eight paper algorithms in turn (the start
// rotates every round) and then streams windows through the daemon for two
// tenants, next to the same windows joined offline at the same concurrency.
// Every number is timed here, around calls into the library's public
// functions; every answer is checked against counts made here (checks.h).
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics and writes the span log to <out-dir>/spans-<workload>-<seed>.json.
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics. Exit code 0 when every check held, 1 on a wrong answer, 2 on bad
// arguments.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "layers.h"
#include "src/common/json.h"
#include "src/common/kernels.h"
#include "src/join/window_pipeline.h"
#include "src/serve/client.h"
#include "src/serve/server.h"
#include "src/stream/disorder.h"
#include "util.h"
#include "workload.h"

extern char** environ;

namespace e2e {
namespace {

constexpr int kAlgos = 8;
// Span and metric names per algorithm, in iawj::kAllAlgorithms order.
constexpr const char* kAlgoNames[kAlgos] = {
    "npj", "prj", "mway", "mpass", "shj-jm", "shj-jb", "pmj-jm", "pmj-jb"};
constexpr const char* kPassSpans[kAlgos] = {
    "pass.npj",   "pass.prj",    "pass.mway",   "pass.mpass",
    "pass.shj-jm", "pass.shj-jb", "pass.pmj-jm", "pass.pmj-jb"};
// The served tenants, each joining at one thread on the pool of two.
constexpr iawj::AlgorithmId kTenants[2] = {iawj::AlgorithmId::kNpj,
                                           iawj::AlgorithmId::kPrj};
// Stream time per batch frame. iawj_cli --connect slices a tenant's
// arrivals the same way at its default --batch-ms=100: one frame per window.
constexpr uint32_t kBatchMs = 100;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool self_test = false;
  std::string out_dir = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have[0] = FindWorkload(value) != nullptr;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have[1] = !value.empty() && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have[2] = !value.empty() && *end == '\0' && args->seconds > 0 &&
                args->seconds <= 120;
    } else if (flag == "--trace") {
      args->trace = value == "1";
      have[3] = value == "0" || value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (args->self_test) return true;
  if (!(have[0] && have[1] && have[2] && have[3])) {
    *error = "usage: e2e_bench --workload <" + WorkloadNames() +
             "> --seed <n> --seconds <1..120> --trace <0|1> [--out-dir d]";
    return false;
  }
  return true;
}

// The library reads IAWJ_* knobs from the environment; a stray one would
// change what is measured.
void ClearIawjEnv() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "IAWJ_", 5) == 0) {
      const char* eq = std::strchr(*e, '=');
      names.emplace_back(*e, eq != nullptr ? eq - *e : std::strlen(*e));
    }
  }
  for (const std::string& name : names) unsetenv(name.c_str());
}

// Totals of one algorithm's timed calls.
struct AlgoTotals {
  double wall_ms = 0;
  double user_ms = 0;
  double sys_ms = 0;
  int64_t vcsw = 0;
  uint64_t inputs = 0;
  double elapsed_ms = 0;      // summed per-window elapsed_ms
  double work_ns = 0;         // summed WorkNsPerInput * inputs
  std::vector<double> t50_ms;  // per window
  std::vector<double> p95_ms;  // per window
};

// Totals of the serve episodes' timed phases.
struct ServeTotals {
  double served_wall_ms = 0;
  double offline_wall_ms = 0;
  uint64_t served_inputs = 0;
  std::vector<double> batch_rtt_us;
  std::vector<double> end_ms;
  std::vector<double> wait_ms;
};

class Bench {
 public:
  Bench(const WorkloadConfig& config, WorkloadData data, SpanLog* spans)
      : config_(config),
        data_(std::move(data)),
        spec_(MakeSpec(config, kThreads)),
        tenant_spec_(MakeSpec(config, 1)),
        spans_(spans) {}

  // Starts the daemon on a socket under `dir`.
  bool StartDaemon(const std::string& dir) {
    iawj::serve::ServeOptions options;
    options.socket_path =
        dir + "/serve-" + std::to_string(::getpid()) + ".sock";
    options.pool_threads = kThreads;
    options.max_tenants = 8;
    options.max_inflight = 4;
    options.max_buffer_tuples = int64_t{1} << 24;
    options.mem_share = 1.0;
    socket_ = options.socket_path;
    server_ = std::make_unique<iawj::serve::ServeServer>(options);
    const iawj::Status status = server_->Start();
    if (!status.ok()) Fail("daemon start: " + status.ToString());
    return status.ok();
  }

  void StopDaemon() {
    if (server_ != nullptr) server_->Shutdown();
  }

  // On a disordered workload, ingestion must give back exactly the sorted
  // original.
  void CheckIngestRestoresOrder() {
    if (config_.shuffle_ms == 0) return;
    iawj::IngestPolicy policy;
    policy.slack_ms = spec_.disorder_slack_ms;
    const auto ordered_prefix = [](const iawj::Stream& all, size_t n) {
      return iawj::Stream{{all.tuples.begin(),
                           all.tuples.begin() + static_cast<ptrdiff_t>(n)}};
    };
    for (const auto& [arrivals, all] :
         {std::pair{&data_.pass_r, &data_.ordered_r},
          std::pair{&data_.pass_s, &data_.ordered_s},
          std::pair{&data_.serve_r, &data_.ordered_r},
          std::pair{&data_.serve_s, &data_.ordered_s}}) {
      const iawj::IngestResult ingested = iawj::IngestStream(*arrivals, policy);
      Check(CheckIngestOrder(ingested.stream,
                             ordered_prefix(*all, arrivals->size())));
      Check(CheckIngestStats(ingested.stats, arrivals->size()));
    }
  }

  // One round: the eight algorithms, then one serve episode. A timed round
  // adds its own rates to round_rates_.
  void Round(int round, bool timed) {
    AlgoTotals algo_before[kAlgos];
    std::copy(algo_, algo_ + kAlgos, algo_before);
    const ServeTotals serve_before = serve_;
    WindowPass(round, timed);
    if (!ok()) return;
    ServeEpisode(round, timed);
    if (!timed || !ok()) return;
    const Rates r = RatesSince(algo_before, serve_before);
    round_rates_.push_back(r);
    std::fprintf(stderr, "round %d: npj %.1f shj-jb %.1f served %.1f "
                 "overhead %.3f\n",
                 round, r.tput[0], r.tput[5], r.served_tput, r.overhead_x);
  }

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::string& plan() const { return plan_; }
  const WorkloadData& data() const { return data_; }

  // Rates are medians over rounds of each round's totals, per algorithm,
  // so a stretch of host interference moves a few rounds, not the result.
  // Latencies are interquartile means over every window of the run.
  void EndToEndMetrics(double setup_s, MetricList* out) const {
    std::vector<double> t50, p95;
    for (int a = 0; a < kAlgos; ++a) {
      if (iawj::IsLazy(iawj::kAllAlgorithms[a])) continue;
      t50.push_back(InterquartileMean(algo_[a].t50_ms));
      p95.push_back(InterquartileMean(algo_[a].p95_ms));
    }
    out->Add("setup_s", setup_s, "s");
    out->Add("lazy_tput", AlgoGeoMean(&Rates::tput, Group::kLazy), "inputs/ms");
    out->Add("eager_tput", AlgoGeoMean(&Rates::tput, Group::kEager), "inputs/ms");
    out->Add("eager_t50_ms", GeoMean(t50), "ms");
    out->Add("eager_p95_ms", GeoMean(p95), "ms");
    out->Add("cpu_ns_per_input", AlgoGeoMean(&Rates::cpu_ns, Group::kAll), "ns");
    out->Add("rss_peak_mb", ReadUsage().max_rss_mb, "MiB");
    out->Add("served_tput",
             RoundMedian([](const Rates& r) { return r.served_tput; }),
             "inputs/ms");
    out->Add("serve_overhead_x",
             RoundMedian([](const Rates& r) { return r.overhead_x; }),
             "ratio");
  }

  void PerLayerMetrics(MetricList* out) const {
    double wall_ms = 0, elapsed_ms = 0;
    uint64_t inputs = 0;
    for (int a = 0; a < kAlgos; ++a) {
      const AlgoTotals& t = algo_[a];
      const std::string p = std::string("join.") + kAlgoNames[a];
      const double in = static_cast<double>(t.inputs);
      const double cpu = t.user_ms + t.sys_ms;
      out->Add(p + ".tput", in / t.wall_ms, "inputs/ms");
      out->Add(p + ".cpu_ns_per_input", cpu * 1e6 / in, "ns");
      out->Add(p + ".sys_share", cpu > 0 ? t.sys_ms / cpu : 0, "ratio");
      out->Add(p + ".vcsw_per_kin", static_cast<double>(t.vcsw) * 1e3 / in,
               "count");
      out->Add(p + ".work_ns_per_input", t.work_ns / in, "ns");
      wall_ms += t.wall_ms;
      elapsed_ms += t.elapsed_ms;
      inputs += t.inputs;
    }
    out->Add("pipeline.overhead_ns_per_tuple",
             (wall_ms - elapsed_ms) * 1e6 / static_cast<double>(inputs),
             "ns");
    out->Add("serve.batch_rtt_us_p50", Quantile(serve_.batch_rtt_us, 0.5),
             "us");
    out->Add("serve.batch_rtt_us_p99", Quantile(serve_.batch_rtt_us, 0.99),
             "us");
    out->Add("serve.end_to_bye_ms", Median(serve_.end_ms), "ms");
    out->Add("serve.queue_wait_ms_p50", Median(serve_.wait_ms), "ms");
    out->Add("memory.peak_tracked_mb",
             static_cast<double>(peak_tracked_bytes_) / (1 << 20), "MiB");
  }

 private:
  void Fail(const std::string& message) {
    if (error_.empty()) error_ = message;
  }
  void Check(const std::string& result) {
    if (!result.empty()) Fail(result);
  }

  // Counts `expected` windows as operations, of which `returned` came back
  // and `ok_windows` came back OK. A window missing or not OK is a failed
  // operation, and so is a call that failed with every window OK. More
  // windows than expected is a wrong answer. True when nothing failed.
  bool Account(const iawj::Status& status, size_t returned, int ok_windows,
               int expected) {
    attempted_ += static_cast<uint64_t>(expected);
    if (returned > static_cast<size_t>(expected)) {
      Fail("returned " + std::to_string(returned) + " windows, want " +
           std::to_string(expected));
      return false;
    }
    uint64_t bad = static_cast<uint64_t>(expected - ok_windows);
    if (!status.ok() && bad == 0) bad = 1;
    failed_ += bad;
    return bad == 0;
  }

  // Counts a pipeline's windows as operations and checks every answer.
  void Verify(const iawj::PipelineResult& p, int windows) {
    int ok_windows = 0;
    for (const iawj::WindowRun& run : p.windows) {
      if (run.result.status.ok()) ++ok_windows;
      peak_tracked_bytes_ =
          std::max(peak_tracked_bytes_, run.result.peak_tracked_bytes);
      if (plan_.empty()) {
        const iawj::RunResult& r = run.result;
        plan_ = "kernels=" +
                std::string(iawj::KernelModeName(r.kernels_resolved)) +
                " scatter=" + r.kernel_scatter + " build=" + r.kernel_build +
                " probe=" + r.kernel_probe + " scheduler=" +
                std::string(iawj::SchedulerModeName(r.scheduler_resolved)) +
                " morsel_size=" + std::to_string(r.morsel_size);
      }
    }
    if (!Account(p.status, p.windows.size(), ok_windows, windows)) return;
    const std::vector<WindowObs> obs = Observe(p);
    Check(CheckCounts(obs, data_.truth));
    Check(CheckChecksums(obs, &reference_));
    const uint64_t generated = InputsIn(data_.truth, windows);
    Check(CheckInputSum(obs, generated));
    if (config_.shuffle_ms > 0) Check(CheckIngestStats(p.ingest, generated));
  }

  // Every algorithm joins the pass windows once, starting at a different
  // algorithm each round; the lazy four then repeat it lazy_reps - 1 times.
  void WindowPass(int round, bool timed) {
    for (int rep = 0; rep < config_.lazy_reps; ++rep) {
      for (int i = 0; i < kAlgos && ok(); ++i) {
        const int a = (i + round % kAlgos + kAlgos) % kAlgos;
        if (rep == 0 || iawj::IsLazy(iawj::kAllAlgorithms[a])) {
          JoinPass(a, timed);
        }
      }
    }
  }

  void JoinPass(int a, bool timed) {
    ScopedSpan span(spans_, kPassSpans[a]);
    const Usage u0 = ReadUsage();
    const double t0 = NowS();
    const iawj::PipelineResult p = iawj::RunTumblingWindows(
        iawj::kAllAlgorithms[a], data_.pass_r, data_.pass_s, spec_);
    const double t1 = NowS();
    const Usage u1 = ReadUsage();
    Verify(p, config_.pass_windows);
    if (!timed) return;
    AlgoTotals& t = algo_[a];
    t.wall_ms += (t1 - t0) * 1e3;
    t.user_ms += u1.user_ms - u0.user_ms;
    t.sys_ms += u1.sys_ms - u0.sys_ms;
    t.vcsw += u1.vcsw - u0.vcsw;
    for (const iawj::WindowRun& run : p.windows) {
      const iawj::RunResult& r = run.result;
      t.inputs += r.inputs;
      t.elapsed_ms += r.elapsed_ms;
      t.work_ns += r.WorkNsPerInput() * static_cast<double>(r.inputs);
      t.t50_ms.push_back(r.progress.TimeToFractionMs(0.5));
      t.p95_ms.push_back(r.p95_latency_ms);
    }
  }

  // What one served tenant saw.
  struct TenantRun {
    iawj::Status status;
    std::vector<iawj::serve::WindowResult> windows;
    iawj::serve::ServeClient::Totals totals;
    std::vector<double> batch_rtt_us;
    double end_ms = 0;
  };

  void DriveTenant(int tenant, const std::string& name, int parent,
                   TenantRun* out) {
    ScopedSpan span(spans_, "serve.tenant", parent);
    iawj::serve::ServeClient client;
    iawj::serve::TenantSpec spec;
    spec.name = name;
    spec.algo = kTenants[tenant];
    spec.spec = tenant_spec_;
    out->status = client.Connect(socket_);
    if (out->status.ok()) out->status = client.Hello(spec);
    // Both arrival sequences in lockstep, one frame per kBatchMs of stream
    // time: each side's next run of tuples stamped before the frame's end.
    const std::vector<iawj::Tuple>& r = data_.serve_r.tuples;
    const std::vector<iawj::Tuple>& s = data_.serve_s.tuples;
    size_t ir = 0, is = 0;
    for (uint64_t end = kBatchMs; out->status.ok() &&
                                  (ir < r.size() || is < s.size());
         end += kBatchMs) {
      const size_t ir0 = ir, is0 = is;
      while (ir < r.size() && r[ir].ts < end) ++ir;
      while (is < s.size() && s[is].ts < end) ++is;
      if (ir == ir0 && is == is0) continue;
      ScopedSpan batch(spans_, "serve.batch");
      const double t0 = NowS();
      out->status = client.SendBatch(
          std::span<const iawj::Tuple>(r.data() + ir0, ir - ir0),
          std::span<const iawj::Tuple>(s.data() + is0, is - is0));
      out->batch_rtt_us.push_back((NowS() - t0) * 1e6);
    }
    if (out->status.ok()) {
      ScopedSpan end(spans_, "serve.end");
      const double t0 = NowS();
      out->status = client.End();
      out->end_ms = (NowS() - t0) * 1e3;
    }
    out->windows = client.windows();
    out->totals = client.totals();
  }

  void ServeEpisode(int round, bool timed) {
    TenantRun served[2];
    iawj::PipelineResult offline[2];
    double served_ms = 0, offline_ms = 0;
    const auto run_served = [&] {
      ScopedSpan span(spans_, "serve.streaming");
      const double t0 = NowS();
      std::thread clients[2];
      for (int i = 0; i < 2; ++i) {
        const std::string name = std::string(kAlgoNames[i]) + "-" +
                                 std::to_string(round);
        clients[i] = std::thread(
            [&, i, name] { DriveTenant(i, name, span.id(), &served[i]); });
      }
      for (std::thread& c : clients) c.join();
      served_ms = (NowS() - t0) * 1e3;
    };
    const auto run_offline = [&] {
      ScopedSpan span(spans_, "serve.offline");
      const double t0 = NowS();
      std::thread joins[2];
      for (int i = 0; i < 2; ++i) {
        joins[i] = std::thread([&, i] {
          ScopedSpan twin(spans_, "serve.offline_tenant", span.id());
          offline[i] = iawj::RunTumblingWindows(
              kTenants[i], data_.serve_r, data_.serve_s, tenant_spec_);
        });
      }
      for (std::thread& j : joins) j.join();
      offline_ms = (NowS() - t0) * 1e3;
    };
    // Alternate which half goes first, so neither always runs warmer.
    if (round % 2 == 0) {
      run_served();
      run_offline();
    } else {
      run_offline();
      run_served();
    }

    for (int i = 0; i < 2; ++i) {
      Verify(offline[i], config_.serve_windows);
      int ok_windows = 0;
      for (const auto& w : served[i].windows) ok_windows += w.ok() ? 1 : 0;
      if (!Account(served[i].status, served[i].windows.size(), ok_windows,
                   config_.serve_windows)) {
        continue;
      }
      const std::vector<WindowObs> obs = Observe(served[i].windows);
      Check(CheckServed(obs, Observe(offline[i]), data_.truth));
      Check(CheckBye(served[i].totals, obs));
    }
    if (!timed) return;
    serve_.served_wall_ms += served_ms;
    serve_.offline_wall_ms += offline_ms;
    for (const TenantRun& t : served) {
      serve_.served_inputs += t.totals.inputs;
      serve_.batch_rtt_us.insert(serve_.batch_rtt_us.end(),
                                 t.batch_rtt_us.begin(), t.batch_rtt_us.end());
      serve_.end_ms.push_back(t.end_ms);
      for (const auto& w : t.windows) serve_.wait_ms.push_back(w.wait_ms);
    }
  }

  // The end-to-end rates of the timed work between two snapshots of the
  // running totals.
  struct Rates {
    double tput[kAlgos] = {};    // inputs per wall ms
    double cpu_ns[kAlgos] = {};  // process CPU ns per input
    double served_tput = 0;
    double overhead_x = 0;
  };

  Rates RatesSince(const AlgoTotals* algo_before,
                   const ServeTotals& serve_before) const {
    Rates r;
    for (int a = 0; a < kAlgos; ++a) {
      const double inputs =
          static_cast<double>(algo_[a].inputs - algo_before[a].inputs);
      r.tput[a] = inputs / (algo_[a].wall_ms - algo_before[a].wall_ms);
      r.cpu_ns[a] = (algo_[a].user_ms + algo_[a].sys_ms -
                     algo_before[a].user_ms - algo_before[a].sys_ms) *
                    1e6 / inputs;
    }
    const double served_inputs = static_cast<double>(
        serve_.served_inputs - serve_before.served_inputs);
    const double served_ms = serve_.served_wall_ms - serve_before.served_wall_ms;
    r.served_tput = served_inputs / served_ms;
    r.overhead_x =
        served_ms / (serve_.offline_wall_ms - serve_before.offline_wall_ms);
    return r;
  }

  // Median over rounds of one per-round value.
  template <typename F>
  double RoundMedian(F&& value) const {
    std::vector<double> v;
    for (const Rates& r : round_rates_) v.push_back(value(r));
    return Median(v);
  }

  enum class Group { kLazy, kEager, kAll };

  // Geometric mean over a group of algorithms of each one's median over
  // rounds.
  double AlgoGeoMean(double (Rates::*field)[kAlgos], Group group) const {
    std::vector<double> per_algo;
    for (int a = 0; a < kAlgos; ++a) {
      const bool lazy = iawj::IsLazy(iawj::kAllAlgorithms[a]);
      if ((group == Group::kLazy && !lazy) ||
          (group == Group::kEager && lazy)) {
        continue;
      }
      per_algo.push_back(
          RoundMedian([&](const Rates& r) { return (r.*field)[a]; }));
    }
    return GeoMean(per_algo);
  }

  const WorkloadConfig& config_;
  const WorkloadData data_;
  const iawj::JoinSpec spec_;         // the window pass: two workers
  const iawj::JoinSpec tenant_spec_;  // each served tenant: one worker
  SpanLog* const spans_;
  std::string socket_;
  std::unique_ptr<iawj::serve::ServeServer> server_;

  AlgoTotals algo_[kAlgos];
  ServeTotals serve_;
  std::vector<Rates> round_rates_;
  std::vector<uint64_t> reference_;  // per-window checksum
  int64_t peak_tracked_bytes_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::string error_;
  std::string plan_;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const MetricList& metrics) {
  iawj::json::Writer w;
  w.BeginObject()
      .Field("correct", correct)
      .Field("attempted", attempted)
      .Field("failed", failed)
      .Key("metrics")
      .BeginObject();
  for (const auto& [name, value_unit] : metrics.items()) {
    const double v = std::isfinite(value_unit.first) ? value_unit.first : 0;
    std::printf("%-36s %14.6g %s\n", name.c_str(), v,
                value_unit.second.c_str());
    w.Key(name)
        .BeginObject()
        .Field("value", v)
        .Field("unit", value_unit.second)
        .EndObject();
  }
  w.EndObject().EndObject();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  const double process_start = NowS();
  ClearIawjEnv();
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  if (args.self_test) return RunSelfTest();
  const WorkloadConfig& config = *FindWorkload(args.workload);
  ::mkdir(args.out_dir.c_str(), 0755);

  SpanLog spans(args.trace);
  WorkloadData data;
  {
    ScopedSpan span(&spans, "setup.datagen");
    data = GenerateWorkload(config, args.seed);
  }
  Bench bench(config, std::move(data), &spans);
  {
    ScopedSpan span(&spans, "setup.daemon");
    bench.StartDaemon(args.out_dir);
  }
  {
    ScopedSpan span(&spans, "setup.warmup");
    bench.CheckIngestRestoresOrder();
    if (bench.ok()) bench.Round(-1, /*timed=*/false);
  }
  const double setup_s = NowS() - process_start;

  MetricList metrics;
  const double start = NowS();
  double spin_before = 0, chase_before = 0;
  if (args.trace) {
    ScopedSpan span(&spans, "layers");
    spin_before = SpinNs();
    chase_before = ChaseNs();
    std::string layer_error;
    MeasureLayers(config, bench.data(), MakeSpec(config, kThreads),
                  0.025 * args.seconds, &spans, &metrics, &layer_error);
    if (!layer_error.empty()) error = layer_error;
  }
  int rounds = 0;
  while (bench.ok() && error.empty() &&
         (rounds == 0 || NowS() - start < args.seconds)) {
    ScopedSpan span(&spans, "round");
    bench.Round(rounds++, /*timed=*/true);
  }
  const double measured_s = NowS() - start;
  bench.StopDaemon();
  if (error.empty()) error = bench.error();

  std::printf("workload %s seed %llu: %d rounds in %.2f s; %s; threads=%d\n",
              config.name.c_str(), static_cast<unsigned long long>(args.seed),
              rounds, measured_s, bench.plan().c_str(), kThreads);
  if (args.trace) {
    metrics.Add("host.spin_ns", (spin_before + SpinNs()) / 2, "ns");
    metrics.Add("host.chase_ns", (chase_before + ChaseNs()) / 2, "ns");
    metrics.Add("datagen.ns_per_tuple",
                bench.data().datagen_s * 1e9 /
                    static_cast<double>(bench.data().generated_tuples),
                "ns");
    bench.PerLayerMetrics(&metrics);
    const double span_count = static_cast<double>(spans.spans().size());
    metrics.Add("trace.span_count", span_count, "count");
    metrics.Add("trace.cost_share",
                span_count * metrics.Value("trace.ns_per_span") /
                    (measured_s * 1e9),
                "ratio");
    const std::string path = args.out_dir + "/spans-" + config.name + "-" +
                             std::to_string(args.seed) + ".json";
    if (!spans.WriteJson(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }
  } else {
    bench.EndToEndMetrics(setup_s, &metrics);
  }
  if (!error.empty()) std::fprintf(stderr, "CHECK FAILED: %s\n", error.c_str());
  PrintResult(error.empty(), bench.attempted(), bench.failed(), metrics);
  return error.empty() ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
