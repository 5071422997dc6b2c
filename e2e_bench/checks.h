// Correctness checks the benchmark computes apart from the program. None of
// them uses the library's join code or its nested-loop reference: expected
// match counts come from sorting each window's keys here, and everything
// else compares what the program reported through its public results.
//
// Every check returns an empty string when it holds, or a description of
// the first mismatch. RunSelfTest feeds each check a corrupted result and
// shows that it fails.
#ifndef E2E_BENCH_CHECKS_H_
#define E2E_BENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/join/window_pipeline.h"
#include "src/serve/client.h"
#include "src/stream/disorder.h"
#include "src/stream/stream.h"

namespace e2e {

// What the benchmark expects of one tumbling window.
struct WindowTruth {
  uint64_t inputs = 0;   // |R_w| + |S_w|
  uint64_t matches = 0;  // sum over keys k of cnt_R(k) * cnt_S(k)
};

// Counts windows [w * window_ms, (w + 1) * window_ms) of two ts-sorted
// streams, w in [0, windows).
std::vector<WindowTruth> CountWindows(const iawj::Stream& r,
                                      const iawj::Stream& s,
                                      uint32_t window_ms, int windows);

// One window as the program reported it, offline or served.
struct WindowObs {
  uint64_t index = 0;
  uint64_t inputs = 0;
  uint64_t matches = 0;
  uint64_t checksum = 0;
};

std::vector<WindowObs> Observe(const iawj::PipelineResult& pipeline);
std::vector<WindowObs> Observe(
    const std::vector<iawj::serve::WindowResult>& windows);

// Window count, window index, inputs and matches equal the truth.
std::string CheckCounts(const std::vector<WindowObs>& got,
                        const std::vector<WindowTruth>& truth);

// Every window's checksum equals the reference one (the first result seen
// for that window); a window the reference lacks is adopted.
std::string CheckChecksums(const std::vector<WindowObs>& got,
                           std::vector<uint64_t>* reference);

// The summed window inputs equal the generated tuples.
std::string CheckInputSum(const std::vector<WindowObs>& got,
                          uint64_t generated);

// The ingested stream is exactly the original sorted by (ts, key).
std::string CheckIngestOrder(const iawj::Stream& ingested,
                             const iawj::Stream& original);

// tuples_out + quarantined == tuples_in == generated, nothing quarantined.
std::string CheckIngestStats(const iawj::IngestStats& stats,
                             uint64_t generated);

// Each served window equals its offline window (and through CheckCounts
// the benchmark's own count).
std::string CheckServed(const std::vector<WindowObs>& served,
                        const std::vector<WindowObs>& offline,
                        const std::vector<WindowTruth>& truth);

// The bye totals equal the sum of the tenant's windows.
std::string CheckBye(const iawj::serve::ServeClient::Totals& totals,
                     const std::vector<WindowObs>& windows);

// Runs each check on a clean result (must hold) and on a corrupted one
// (must fail). Returns the process exit code: 0 when every check behaved.
int RunSelfTest();

}  // namespace e2e

#endif  // E2E_BENCH_CHECKS_H_
