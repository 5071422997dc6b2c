#include "workload.h"

#include <algorithm>

#include "src/datagen/micro.h"
#include "src/hash/hash_fn.h"
#include "src/stream/disorder.h"
#include "util.h"

namespace e2e {

namespace {

// Why each workload exists is in README.md ("Workloads").
const WorkloadConfig kWorkloads[] = {
    {"uniform", 50000, 1.0, 0.0, 0, 4, 3, 8},
    {"dense-skew", 50000, 20.0, 1.0, 8, 2, 1, 3},
};

// Tuples of `stream` (ts-sorted) in the first `windows` windows.
iawj::Stream Prefix(const iawj::Stream& stream, int windows) {
  const uint32_t end = static_cast<uint32_t>(windows) * kWindowMs;
  const auto it = std::lower_bound(
      stream.tuples.begin(), stream.tuples.end(), end,
      [](const iawj::Tuple& t, uint32_t v) { return t.ts < v; });
  return iawj::Stream{{stream.tuples.begin(), it}};
}

iawj::Stream Arrivals(const iawj::Stream& ordered, uint32_t shuffle_ms,
                      uint64_t seed) {
  if (shuffle_ms == 0) return ordered;
  return iawj::PermuteWithinSlack(ordered, shuffle_ms, seed);
}

}  // namespace

const WorkloadConfig* FindWorkload(const std::string& name) {
  for (const WorkloadConfig& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string names;
  for (const WorkloadConfig& w : kWorkloads) {
    names += (names.empty() ? "" : "|") + w.name;
  }
  return names;
}

WorkloadData GenerateWorkload(const WorkloadConfig& config, uint64_t seed) {
  const int windows = std::max(config.pass_windows, config.serve_windows);
  WorkloadData data;
  for (int w = 0; w < windows; ++w) {
    iawj::MicroSpec micro;
    micro.size_r = config.tuples_per_side;
    micro.size_s = config.tuples_per_side;
    micro.window_ms = kWindowMs;
    micro.dupe = config.dupe;
    micro.zipf_key = config.zipf_r;
    micro.zipf_key_s = 0;
    micro.zipf_ts = 0;
    micro.seed = iawj::Mix64(seed * 0x9e3779b97f4a7c15ull + 1 +
                             static_cast<uint64_t>(w));
    const double t0 = NowS();
    iawj::MicroWorkload one = iawj::GenerateMicro(micro);
    data.datagen_s += NowS() - t0;
    const uint32_t offset = static_cast<uint32_t>(w) * kWindowMs;
    for (iawj::Tuple t : one.r.tuples) {
      data.ordered_r.tuples.push_back({t.ts + offset, t.key});
    }
    for (iawj::Tuple t : one.s.tuples) {
      data.ordered_s.tuples.push_back({t.ts + offset, t.key});
    }
  }
  data.generated_tuples = data.ordered_r.size() + data.ordered_s.size();
  data.truth =
      CountWindows(data.ordered_r, data.ordered_s, kWindowMs, windows);
  const uint64_t shuffle_seed = iawj::Mix64(seed ^ 0x5u);
  data.pass_r = Arrivals(Prefix(data.ordered_r, config.pass_windows),
                         config.shuffle_ms, shuffle_seed);
  data.pass_s = Arrivals(Prefix(data.ordered_s, config.pass_windows),
                         config.shuffle_ms, shuffle_seed + 1);
  data.serve_r = Arrivals(Prefix(data.ordered_r, config.serve_windows),
                          config.shuffle_ms, shuffle_seed + 2);
  data.serve_s = Arrivals(Prefix(data.ordered_s, config.serve_windows),
                          config.shuffle_ms, shuffle_seed + 3);
  return data;
}

uint64_t InputsIn(const std::vector<WindowTruth>& truth, int windows) {
  uint64_t inputs = 0;
  for (int w = 0; w < windows && w < static_cast<int>(truth.size()); ++w) {
    inputs += truth[static_cast<size_t>(w)].inputs;
  }
  return inputs;
}

iawj::JoinSpec MakeSpec(const WorkloadConfig& config, int threads) {
  iawj::JoinSpec spec;
  spec.num_threads = threads;
  spec.window_ms = kWindowMs;
  spec.clock_mode = iawj::Clock::Mode::kInstant;
  spec.time_scale = 1.0;
  spec.radix_bits = 10;
  spec.radix_passes = 1;
  spec.pmj_delta = 0.2;
  spec.jb_group_size = 2;
  spec.eager_physical_partition = false;
  spec.use_simd = true;
  spec.pin_threads = false;
  spec.hash_table_kind = iawj::HashTableKind::kBucketChain;
  // The library's own choice; IAWJ_* is cleared, so auto means the default
  // plan and scheduler, which the benchmark prints as resolved.
  spec.kernels = iawj::KernelMode::kAuto;
  spec.scheduler = iawj::SchedulerMode::kAuto;
  spec.morsel_size = 0;
  spec.deadline_ms = 0;
  spec.retry_max_attempts = 1;  // one attempt: supervision off
  spec.retry_backoff_ms = 0;
  spec.fallback_enabled = false;
  spec.skip_failed_windows = false;
  spec.shed_watermark_per_ms = -1;
  spec.supervisor_seed = 42;
  spec.disorder_slack_ms =
      config.shuffle_ms > 0 ? static_cast<double>(config.shuffle_ms) : -1;
  spec.allowed_lateness_ms = -1;
  spec.ingest_dedup = false;
  return spec;
}

}  // namespace e2e
