// Figure 7: execution-time breakdown (wait / partition / build-sort / merge /
// probe / others) per input tuple on the four real-world workloads.
//
// Paper shape: Stock is dominated by wait for every algorithm; excluding
// wait, the eager algorithms pay more per tuple, mostly in partitioning
// (ownership + JB status maintenance) and probing. Our JB keeps no router
// state, so its partition cost is ownership filtering alone, about JM's.
#include "bench/bench_util.h"

int main() {
  using namespace iawj;
  const bench::Scale scale = bench::GetScale(0.05);
  bench::PrintTitle("Figure 7: execution time breakdown (ns per input tuple)",
                    scale);
  std::printf("%-10s %-8s", "workload", "algo");
  for (int p = 0; p < kNumPhases; ++p) {
    std::printf(" %10s", std::string(PhaseName(static_cast<Phase>(p))).c_str());
  }
  std::printf(" %12s\n", "work_total");
  for (const Workload& w : bench::RealWorkloads(scale)) {
    for (AlgorithmId id : bench::AllAlgorithms()) {
      JoinSpec spec = bench::StreamingSpec(scale, 1000);
      spec.clock_mode = w.suggested_clock;
      const RunResult result = bench::RunJoin(id, w.r, w.s, spec);
      std::printf("%-10s %-8s", w.name.c_str(), result.algorithm.c_str());
      for (int p = 0; p < kNumPhases; ++p) {
        const double per_input =
            static_cast<double>(result.phases.GetNs(static_cast<Phase>(p))) /
            static_cast<double>(result.inputs);
        std::printf(" %10.1f", per_input);
      }
      std::printf(" %12.1f\n", result.WorkNsPerInput());
    }
  }
  std::printf(
      "# paper shape: Stock ~all wait; eager algorithms spend most non-wait "
      "time in partition+probe and cost more per tuple than lazy; here JB's "
      "partition cost is about JM's (no router state)\n");
  return 0;
}
