#include "layers.h"

#include <algorithm>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/json.h"
#include "src/common/kernels.h"
#include "src/common/rng.h"
#include "src/hash/bucket_chain.h"
#include "src/hash/concurrent_table.h"
#include "src/hash/lockfree_table.h"
#include "src/hash/prefetch.h"
#include "src/partition/radix.h"
#include "src/profiling/phase.h"
#include "src/serve/protocol.h"
#include "src/sort/avxsort.h"
#include "src/stream/disorder.h"

namespace e2e {

namespace {

using iawj::Tuple;

// Runs `rep` until `budget_s` has passed (at least three times) and returns
// the median seconds of one repetition. Each repetition is one span.
template <typename F>
double MedianRepS(SpanLog* spans, const char* name, double budget_s, F&& rep) {
  std::vector<double> times;
  const double start = NowS();
  while (times.size() < 3 || NowS() - start < budget_s) {
    ScopedSpan span(spans, name);
    const double t0 = NowS();
    rep();
    times.push_back(NowS() - t0);
  }
  return Median(times);
}

// Window 0 of a ts-sorted stream.
std::vector<Tuple> FirstWindow(const iawj::Stream& stream) {
  std::vector<Tuple> out;
  for (const Tuple& t : stream.tuples) {
    if (t.ts >= kWindowMs) break;
    out.push_back(t);
  }
  return out;
}

std::vector<uint64_t> Packed(const std::vector<Tuple>& tuples) {
  std::vector<uint64_t> packed;
  packed.reserve(tuples.size());
  for (const Tuple& t : tuples) packed.push_back(iawj::PackTuple(t));
  return packed;
}

}  // namespace

double SpinNs() {
  constexpr uint64_t kSteps = 20'000'000;
  uint64_t x = static_cast<uint64_t>(NowS() * 1e9) | 1;
  const double t0 = NowS();
  for (uint64_t i = 0; i < kSteps; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  }
  const double t1 = NowS();
  Sink(x);
  return (t1 - t0) * 1e9 / static_cast<double>(kSteps);
}

double ChaseNs() {
  constexpr uint32_t kSlots = 8u << 20;  // 32 MiB of uint32 links
  constexpr uint32_t kLoads = 2'000'000;
  // Sattolo's shuffle: one cycle through every slot, so no load is cached
  // by a short loop.
  std::vector<uint32_t> next(kSlots);
  for (uint32_t i = 0; i < kSlots; ++i) next[i] = i;
  iawj::Rng rng(12345);
  for (uint32_t i = kSlots - 1; i > 0; --i) {
    std::swap(next[i], next[rng.NextBounded(i)]);
  }
  uint32_t at = 0;
  const double t0 = NowS();
  for (uint32_t i = 0; i < kLoads; ++i) at = next[at];
  const double t1 = NowS();
  Sink(at);
  return (t1 - t0) * 1e9 / kLoads;
}

void MeasureLayers(const WorkloadConfig& config, const WorkloadData& data,
                   const iawj::JoinSpec& spec, double budget_s,
                   SpanLog* spans, MetricList* out, std::string* error) {
  const std::vector<Tuple> r = FirstWindow(data.ordered_r);
  const std::vector<Tuple> s = FirstWindow(data.ordered_s);
  const double nr = static_cast<double>(r.size());
  const double ns = static_cast<double>(s.size());
  const iawj::KernelPlan plan = iawj::ResolveKernelPlan(spec.kernels, false);
  iawj::NullTracer tracer;

  // src/stream: the reorder buffer over this workload's arrivals (ordered
  // ones too, where the pipeline bypasses it), at the dense-skew slack.
  {
    iawj::IngestPolicy policy;
    policy.slack_ms = std::max<uint32_t>(config.shuffle_ms, 8);
    uint64_t admitted = 0;
    const double t = MedianRepS(spans, "layer.ingest", budget_s, [&] {
      admitted = iawj::IngestStream(data.pass_r, policy).stats.tuples_out;
    });
    if (admitted != data.pass_r.size()) {
      *error = "ingest probe admitted " + std::to_string(admitted) + " of " +
               std::to_string(data.pass_r.size()) + " tuples";
    }
    out->Add("ingest.ns_per_tuple",
             t * 1e9 / static_cast<double>(data.pass_r.size()), "ns");
  }

  // src/profiling and the match sink, per call.
  {
    constexpr int kCalls = 1'000'000;
    iawj::Clock clock(iawj::Clock::Mode::kInstant);
    clock.Start();
    const double t_clock =
        MedianRepS(spans, "layer.clock_read", budget_s, [&] {
          double sum = 0;
          for (int i = 0; i < kCalls; ++i) sum += clock.NowMs();
          Sink(static_cast<uint64_t>(sum));
        });
    out->Add("profiling.clock_read_ns", t_clock * 1e9 / kCalls, "ns");

    const double t_sink =
        MedianRepS(spans, "layer.match_sink", budget_s, [&] {
          iawj::MatchSink sink;
          sink.Bind(&clock);
          for (const Tuple& t : r) sink.OnMatch(t.key, t.ts, t.ts + 1);
          Sink(sink.checksum());
        });
    out->Add("profiling.match_sink_ns", t_sink * 1e9 / nr, "ns");

    const double t_switch =
        MedianRepS(spans, "layer.phase_switch", budget_s, [&] {
          iawj::PhaseProfile profile;
          iawj::PhaseStopwatch watch(&profile);
          for (int i = 0; i < kCalls; ++i) {
            watch.Switch((i & 1) != 0 ? iawj::Phase::kProbe
                                      : iawj::Phase::kBuild);
          }
          watch.Stop();
          Sink(profile.TotalNs());
        });
    out->Add("profiling.phase_switch_ns", t_switch * 1e9 / kCalls, "ns");
  }

  // src/partition: the radix scatter as the kernel plan resolves it.
  {
    std::vector<Tuple> scattered(r.size());
    std::vector<uint64_t> offsets;
    const double t = MedianRepS(spans, "layer.scatter", budget_s, [&] {
      iawj::RadixPartitionSingle(r.data(), r.size(), spec.radix_bits,
                                 scattered.data(), &offsets, tracer,
                                 plan.swwc_scatter);
    });
    out->Add("partition.scatter_ns_per_tuple", t * 1e9 / nr, "ns");
  }

  // src/hash: build R, probe S (checked against the window's truth), and
  // the shared table two workers build, as NPJ does.
  {
    const double t_build = MedianRepS(spans, "layer.hash_build", budget_s, [&] {
      iawj::BucketChainTable<> table(r.size());
      for (const Tuple& t : r) table.Insert(t, tracer);
      Sink(static_cast<uint64_t>(table.memory_bytes()));
    });
    out->Add("hash.build_ns_per_tuple", t_build * 1e9 / nr, "ns");

    iawj::BucketChainTable<> table(r.size());
    for (const Tuple& t : r) table.Insert(t, tracer);
    uint64_t matches = 0;
    const double t_probe = MedianRepS(spans, "layer.hash_probe", budget_s, [&] {
      matches = 0;
      const auto on_match = [&](const Tuple&, const Tuple&) { ++matches; };
      if (plan.batched_probe) {
        iawj::kernels::ProbeBatched(table, s.data(), s.size(), on_match,
                                    tracer);
      } else {
        for (const Tuple& t : s) {
          table.Probe(t.key, [&](const Tuple& m) { on_match(t, m); }, tracer);
        }
      }
    });
    if (matches != data.truth[0].matches) {
      *error = "hash probe found " + std::to_string(matches) +
               " matches in window 0, want " +
               std::to_string(data.truth[0].matches);
    }
    out->Add("hash.probe_ns_per_tuple", t_probe * 1e9 / ns, "ns");

    const auto shared_build = [&](auto& shared) {
      std::vector<std::thread> workers;
      for (int w = 0; w < kThreads; ++w) {
        workers.emplace_back([&, w] {
          iawj::NullTracer local;
          const size_t begin = r.size() * w / kThreads;
          const size_t end = r.size() * (w + 1) / kThreads;
          for (size_t i = begin; i < end; ++i) shared.Insert(r[i], local);
        });
      }
      for (auto& t : workers) t.join();
    };
    const double t_shared =
        MedianRepS(spans, "layer.shared_build", budget_s, [&] {
          if (plan.lockfree_build) {
            iawj::LockFreeChainTable<> shared(r.size());
            shared_build(shared);
          } else {
            iawj::ConcurrentBucketChainTable<> shared(r.size());
            shared_build(shared);
          }
        });
    out->Add("hash.shared_build_ns_per_tuple", t_shared * 1e9 / nr, "ns");
  }

  // src/sort: sort R, then merge sorted R with sorted S.
  {
    const iawj::sort::Options options{spec.use_simd};
    const std::vector<uint64_t> packed_r = Packed(r);
    std::vector<uint64_t> work;
    const double t_sort = MedianRepS(spans, "layer.sort", budget_s, [&] {
      work = packed_r;
      iawj::sort::SortPacked(work.data(), work.size(), options);
    });
    out->Add("sort.sort_ns_per_tuple", t_sort * 1e9 / nr, "ns");

    std::vector<uint64_t> sorted_s = Packed(s);
    std::sort(sorted_s.begin(), sorted_s.end());
    std::vector<uint64_t> merged(work.size() + sorted_s.size());
    const double t_merge = MedianRepS(spans, "layer.merge", budget_s, [&] {
      iawj::sort::MergePacked(work.data(), work.size(), sorted_s.data(),
                              sorted_s.size(), merged.data(), options);
    });
    out->Add("sort.merge_ns_per_tuple", t_merge * 1e9 / (nr + ns), "ns");
  }

  // src/serve: one client batch frame, encoded and decoded. A frame holds
  // one window (the served tenants send one per 100 stream-ms).
  {
    const std::span<const Tuple> br(r);
    const std::span<const Tuple> bs(s);
    std::string frame;
    const double t_encode = MedianRepS(spans, "layer.encode", budget_s,
                                       [&] { frame = iawj::serve::BatchJson(br, bs); });
    std::vector<Tuple> dr, ds;
    bool decoded = true;
    const double t_decode = MedianRepS(spans, "layer.decode", budget_s, [&] {
      iawj::json::Value message;
      dr.clear();
      ds.clear();
      decoded = iawj::json::Parse(frame, &message).ok() &&
                iawj::serve::ParseBatch(message, &dr, &ds).ok();
    });
    if (!decoded || dr != r || ds != s) {
      *error = "serve codec did not round-trip a batch frame";
    }
    const double tuples = nr + ns;
    out->Add("serve.encode_ns_per_tuple", t_encode * 1e9 / tuples, "ns");
    out->Add("serve.decode_ns_per_tuple", t_decode * 1e9 / tuples, "ns");
    out->Add("serve.frame_bytes_per_tuple",
             static_cast<double>(frame.size()) / tuples, "B");
  }

  // The span log's own cost per recorded span.
  {
    constexpr int kSpans = 100'000;
    const double t = MedianRepS(spans, "layer.span_record", budget_s, [&] {
      SpanLog scratch(true);
      for (int i = 0; i < kSpans; ++i) ScopedSpan span(&scratch, "x");
    });
    out->Add("trace.ns_per_span", t * 1e9 / kSpans, "ns");
  }
}

}  // namespace e2e
