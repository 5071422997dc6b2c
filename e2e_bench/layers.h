// Per-layer measurements of the traced mode: each layer's public entry
// point timed standalone on the workload's own window data, plus two host
// calibration loops that tell host drift apart from a regression.
#ifndef E2E_BENCH_LAYERS_H_
#define E2E_BENCH_LAYERS_H_

#include <string>

#include "src/join/context.h"
#include "util.h"
#include "workload.h"

namespace e2e {

// Nanoseconds per step of a dependent multiply-add chain (core speed and
// CPU steal), and per load of a random pointer chase over 32 MiB (memory
// latency). Neither touches the library.
double SpinNs();
double ChaseNs();

// Times every layer probe for about `budget_s` seconds each and appends
// the per-layer metrics (ingest, profiling, partition, hash, sort, serve
// codec, span recording). A probe whose output contradicts the workload's
// truth sets *error.
void MeasureLayers(const WorkloadConfig& config, const WorkloadData& data,
                   const iawj::JoinSpec& spec, double budget_s,
                   SpanLog* spans, MetricList* out, std::string* error);

}  // namespace e2e

#endif  // E2E_BENCH_LAYERS_H_
