// The benchmark's three workloads: their make-up, the inputs generated from
// the seed, and the fully explicit JoinSpec every timed call runs under.
#ifndef E2E_BENCH_WORKLOAD_H_
#define E2E_BENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "checks.h"
#include "src/join/context.h"
#include "src/stream/stream.h"

namespace e2e {

// Two workers per join: the host has four shared vCPUs, and two leaves room
// for the daemon's client and connection threads without oversubscribing.
inline constexpr int kThreads = 2;
// Stream-time length of one tumbling window.
inline constexpr uint32_t kWindowMs = 100;

struct WorkloadConfig {
  std::string name;
  uint64_t tuples_per_side = 0;  // per window
  double dupe = 1;               // average duplicates per key, both sides
  double zipf_r = 0;             // R key skew; S stays uniform
  uint32_t shuffle_ms = 0;       // arrival disorder bound; 0 = ordered
  int pass_windows = 0;   // windows each of the eight algorithms joins/round
  // Passes per round of the four lazy algorithms, which join a window much
  // faster than the eager ones, so each gets seconds of timed work.
  int lazy_reps = 1;
  int serve_windows = 0;  // windows each served tenant streams per round
};

// Looks a workload up by name; nullptr when unknown.
const WorkloadConfig* FindWorkload(const std::string& name);
std::string WorkloadNames();

// One workload's inputs. `pass_*` holds the first pass_windows windows and
// `serve_*` the first serve_windows, each in arrival order (shuffled within
// shuffle_ms on a disordered workload); `ordered_*` holds all windows
// sorted by ts, and `truth` the expected result of each window.
struct WorkloadData {
  iawj::Stream ordered_r, ordered_s;
  iawj::Stream pass_r, pass_s;
  iawj::Stream serve_r, serve_s;
  std::vector<WindowTruth> truth;
  uint64_t generated_tuples = 0;  // both sides, all windows
  double datagen_s = 0;           // wall time inside GenerateMicro
};

// Generates every window with GenerateMicro (one call per window and side
// pair, seeded from `seed`), then perturbs arrivals with PermuteWithinSlack
// when the workload is disordered. Deterministic in (config, seed).
WorkloadData GenerateWorkload(const WorkloadConfig& config, uint64_t seed);

// Inputs in the first `windows` windows.
uint64_t InputsIn(const std::vector<WindowTruth>& truth, int windows);

// Every JoinSpec knob set explicitly; the ingest slack covers the shuffle.
iawj::JoinSpec MakeSpec(const WorkloadConfig& config, int threads);

}  // namespace e2e

#endif  // E2E_BENCH_WORKLOAD_H_
