#include "checks.h"

#include <algorithm>
#include <cstdio>

#include "src/join/window_pipeline.h"
#include "workload.h"

namespace e2e {

namespace {

std::string Mismatch(const char* what, uint64_t window, uint64_t got,
                     uint64_t want) {
  return std::string(what) + " mismatch in window " + std::to_string(window) +
         ": got " + std::to_string(got) + ", want " + std::to_string(want);
}

// Sorted keys of the tuples with ts in [lo, hi) of a ts-sorted stream.
std::vector<uint32_t> KeysIn(const iawj::Stream& stream, uint32_t lo,
                             uint32_t hi) {
  std::vector<uint32_t> keys;
  for (const iawj::Tuple& t : stream.tuples) {
    if (t.ts >= lo && t.ts < hi) keys.push_back(t.key);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace

std::vector<WindowTruth> CountWindows(const iawj::Stream& r,
                                      const iawj::Stream& s,
                                      uint32_t window_ms, int windows) {
  std::vector<WindowTruth> truth(static_cast<size_t>(windows));
  for (int w = 0; w < windows; ++w) {
    const uint32_t lo = static_cast<uint32_t>(w) * window_ms;
    const std::vector<uint32_t> kr = KeysIn(r, lo, lo + window_ms);
    const std::vector<uint32_t> ks = KeysIn(s, lo, lo + window_ms);
    WindowTruth& t = truth[static_cast<size_t>(w)];
    t.inputs = kr.size() + ks.size();
    // Merge the two sorted key runs, multiplying equal-key run lengths.
    size_t i = 0, j = 0;
    while (i < kr.size() && j < ks.size()) {
      if (kr[i] < ks[j]) {
        ++i;
      } else if (ks[j] < kr[i]) {
        ++j;
      } else {
        const uint32_t key = kr[i];
        uint64_t nr = 0, ns = 0;
        while (i < kr.size() && kr[i] == key) ++i, ++nr;
        while (j < ks.size() && ks[j] == key) ++j, ++ns;
        t.matches += nr * ns;
      }
    }
  }
  return truth;
}

std::vector<WindowObs> Observe(const iawj::PipelineResult& pipeline) {
  std::vector<WindowObs> obs;
  for (const iawj::WindowRun& run : pipeline.windows) {
    obs.push_back({run.window_index, run.result.inputs, run.result.matches,
                   run.result.checksum});
  }
  return obs;
}

std::vector<WindowObs> Observe(
    const std::vector<iawj::serve::WindowResult>& windows) {
  std::vector<WindowObs> obs;
  for (const iawj::serve::WindowResult& w : windows) {
    obs.push_back({w.window_index, w.inputs, w.matches, w.checksum});
  }
  return obs;
}

std::string CheckCounts(const std::vector<WindowObs>& got,
                        const std::vector<WindowTruth>& truth) {
  if (got.size() > truth.size()) {
    return "window count mismatch: got " + std::to_string(got.size()) +
           ", at most " + std::to_string(truth.size()) + " expected";
  }
  for (size_t w = 0; w < got.size(); ++w) {
    if (got[w].index != w) return Mismatch("window index", w, got[w].index, w);
    if (got[w].inputs != truth[w].inputs) {
      return Mismatch("inputs", w, got[w].inputs, truth[w].inputs);
    }
    if (got[w].matches != truth[w].matches) {
      return Mismatch("matches", w, got[w].matches, truth[w].matches);
    }
  }
  return "";
}

std::string CheckChecksums(const std::vector<WindowObs>& got,
                           std::vector<uint64_t>* reference) {
  for (size_t w = 0; w < got.size(); ++w) {
    if (w >= reference->size()) {
      reference->push_back(got[w].checksum);
    } else if (got[w].checksum != (*reference)[w]) {
      return Mismatch("checksum", w, got[w].checksum, (*reference)[w]);
    }
  }
  return "";
}

std::string CheckInputSum(const std::vector<WindowObs>& got,
                          uint64_t generated) {
  uint64_t sum = 0;
  for (const WindowObs& o : got) sum += o.inputs;
  if (sum == generated) return "";
  return "summed window inputs " + std::to_string(sum) +
         " != generated tuples " + std::to_string(generated);
}

std::string CheckIngestOrder(const iawj::Stream& ingested,
                             const iawj::Stream& original) {
  std::vector<iawj::Tuple> want = original.tuples;
  std::sort(want.begin(), want.end(), [](iawj::Tuple a, iawj::Tuple b) {
    return a.ts != b.ts ? a.ts < b.ts : a.key < b.key;
  });
  if (ingested.size() != want.size()) {
    return "ingested " + std::to_string(ingested.size()) + " tuples, want " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (!(ingested.tuples[i] == want[i])) {
      return "ingested stream differs from the sorted original at position " +
             std::to_string(i);
    }
  }
  return "";
}

std::string CheckIngestStats(const iawj::IngestStats& stats,
                             uint64_t generated) {
  if (stats.tuples_in != generated) {
    return "ingest saw " + std::to_string(stats.tuples_in) +
           " tuples, generated " + std::to_string(generated);
  }
  if (stats.tuples_out + stats.quarantined() != stats.tuples_in) {
    return "ingest conservation broken: out " +
           std::to_string(stats.tuples_out) + " + quarantined " +
           std::to_string(stats.quarantined()) + " != in " +
           std::to_string(stats.tuples_in);
  }
  if (stats.quarantined() != 0) {
    return "ingest quarantined " + std::to_string(stats.quarantined()) +
           " tuples of a stream whose disorder the slack covers";
  }
  return "";
}

std::string CheckServed(const std::vector<WindowObs>& served,
                        const std::vector<WindowObs>& offline,
                        const std::vector<WindowTruth>& truth) {
  if (served.size() != offline.size()) {
    return "served " + std::to_string(served.size()) + " windows, offline " +
           std::to_string(offline.size());
  }
  for (size_t w = 0; w < served.size(); ++w) {
    const WindowObs& a = served[w];
    const WindowObs& b = offline[w];
    if (a.index != b.index || a.inputs != b.inputs || a.matches != b.matches ||
        a.checksum != b.checksum) {
      return "served window " + std::to_string(w) +
             " differs from its offline window";
    }
  }
  return CheckCounts(served, truth);
}

std::string CheckBye(const iawj::serve::ServeClient::Totals& totals,
                     const std::vector<WindowObs>& windows) {
  uint64_t inputs = 0, matches = 0, checksum = 0;
  for (const WindowObs& o : windows) {
    inputs += o.inputs;
    matches += o.matches;
    checksum += o.checksum;
  }
  if (totals.windows != windows.size() || totals.inputs != inputs ||
      totals.matches != matches || totals.checksum != checksum) {
    return "bye totals (" + std::to_string(totals.windows) + " windows, " +
           std::to_string(totals.inputs) + " inputs, " +
           std::to_string(totals.matches) + " matches) != sum of windows (" +
           std::to_string(windows.size()) + ", " + std::to_string(inputs) +
           ", " + std::to_string(matches) + ")";
  }
  return "";
}

int RunSelfTest() {
  int bad = 0;
  // `clean` must hold and `corrupt` must fail.
  const auto expect = [&](const char* check, const std::string& clean,
                          const std::string& corrupt) {
    const bool ok = clean.empty() && !corrupt.empty();
    std::printf("%-4s %-18s clean: %s | corrupted: %s\n", ok ? "ok" : "FAIL",
                check, clean.empty() ? "holds" : clean.c_str(),
                corrupt.empty() ? "HOLDS (check is blind)" : corrupt.c_str());
    if (!ok) ++bad;
  };

  // A small disordered, skewed workload exercises every check's input.
  WorkloadConfig config = *FindWorkload("dense-skew");
  config.tuples_per_side = 3000;
  config.pass_windows = 2;
  config.serve_windows = 2;
  const WorkloadData data = GenerateWorkload(config, 7);
  const iawj::JoinSpec spec = MakeSpec(config, kThreads);

  const iawj::PipelineResult npj = iawj::RunTumblingWindows(
      iawj::AlgorithmId::kNpj, data.pass_r, data.pass_s, spec);
  const iawj::PipelineResult prj = iawj::RunTumblingWindows(
      iawj::AlgorithmId::kPrj, data.pass_r, data.pass_s, spec);
  if (!npj.status.ok() || !prj.status.ok()) {
    std::printf("FAIL self-test runs: %s / %s\n",
                npj.status.ToString().c_str(), prj.status.ToString().c_str());
    return 1;
  }
  const std::vector<WindowObs> obs = Observe(npj);
  const uint64_t generated = InputsIn(data.truth, config.pass_windows);

  // One tuple dropped from window 1 of the input, joined for real.
  iawj::Stream dropped_r = data.pass_r;
  const auto in_window_1 =
      std::find_if(dropped_r.tuples.begin(), dropped_r.tuples.end(),
                   [](iawj::Tuple t) { return t.ts >= kWindowMs; });
  dropped_r.tuples.erase(in_window_1);
  const std::vector<WindowObs> dropped = Observe(iawj::RunTumblingWindows(
      iawj::AlgorithmId::kNpj, dropped_r, data.pass_s, spec));
  expect("counts", CheckCounts(obs, data.truth),
         CheckCounts(dropped, data.truth));
  expect("input-sum", CheckInputSum(obs, generated),
         CheckInputSum(dropped, generated));

  std::vector<uint64_t> reference;
  CheckChecksums(obs, &reference);
  std::vector<WindowObs> flipped = Observe(prj);
  flipped[1].checksum ^= 1;
  expect("checksums", CheckChecksums(Observe(prj), &reference),
         CheckChecksums(flipped, &reference));

  iawj::IngestPolicy policy;
  policy.slack_ms = config.shuffle_ms;
  const iawj::IngestResult ingested = iawj::IngestStream(data.pass_r, policy);
  iawj::Stream short_stream = ingested.stream;
  short_stream.tuples.erase(short_stream.tuples.begin() + 5);
  const iawj::Stream original = iawj::Stream{
      {data.ordered_r.tuples.begin(),
       data.ordered_r.tuples.begin() +
           static_cast<ptrdiff_t>(data.pass_r.size())}};
  expect("ingest-order", CheckIngestOrder(ingested.stream, original),
         CheckIngestOrder(short_stream, original));
  iawj::IngestStats leaky = npj.ingest;
  --leaky.tuples_out;
  expect("ingest-conserve", CheckIngestStats(npj.ingest, generated),
         CheckIngestStats(leaky, generated));
  iawj::IngestStats quarantined = npj.ingest;
  --quarantined.tuples_out;
  ++quarantined.late_dropped;
  expect("ingest-quarantine", CheckIngestStats(npj.ingest, generated),
         CheckIngestStats(quarantined, generated));

  // A served window with one tuple dropped, and one with a flipped checksum.
  std::vector<WindowObs> served_drop = obs;
  --served_drop[0].inputs;
  std::vector<WindowObs> served_flip = obs;
  served_flip[0].checksum ^= 1;
  expect("served-drop", CheckServed(obs, Observe(prj), data.truth),
         CheckServed(served_drop, Observe(prj), data.truth));
  expect("served-checksum", CheckServed(obs, Observe(prj), data.truth),
         CheckServed(served_flip, Observe(prj), data.truth));

  iawj::serve::ServeClient::Totals totals;
  totals.windows = obs.size();
  for (const WindowObs& o : obs) {
    totals.inputs += o.inputs;
    totals.matches += o.matches;
    totals.checksum += o.checksum;
  }
  iawj::serve::ServeClient::Totals short_totals = totals;
  --short_totals.inputs;
  expect("bye-totals", CheckBye(totals, obs), CheckBye(short_totals, obs));

  std::printf("self-test: %s\n", bad == 0 ? "every check fails on its "
                                            "corrupted result"
                                          : "FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace e2e
