// Figure 16: impact of the JB scheme's group size g (PMJ-JB and SHJ-JB),
// data at rest, with the JM scheme as the reference line.
//
// Paper shape: per-tuple cost grows with g (more replication per worker),
// and JM beats every JB configuration because of JB's router status
// maintenance overhead. Our JB keeps no router state: a key's core group
// owns it outright, so JB pays only ownership filtering and the replication
// of R within a group of g workers. At g = threads one group replicates R to
// every worker, which is JM's work, so cost rises with g toward the JM line
// rather than sitting above it.
#include "bench/bench_util.h"

int main() {
  using namespace iawj;
  bench::Scale scale = bench::GetScale(0.05);
  if (scale.threads < 8) scale.threads = 8;  // g sweeps need 8 workers
  bench::PrintTitle("Figure 16: JB group size (g), 8 workers", scale);
  const uint64_t size = scale.paper ? 1'000'000 : 96'000;

  MicroSpec mspec;
  mspec.size_r = mspec.size_s = size;
  mspec.window_ms = 1000;
  mspec.dupe = 8;
  const MicroWorkload w = GenerateMicro(mspec);

  std::printf("%-8s %-10s %12s %12s %12s\n", "algo", "config", "work_ns/in",
              "partition/in", "tput(in/ms)");
  for (auto [jb, jm] :
       {std::pair{AlgorithmId::kShjJb, AlgorithmId::kShjJm},
        std::pair{AlgorithmId::kPmjJb, AlgorithmId::kPmjJm}}) {
    for (int g : {1, 2, 4, 8}) {
      JoinSpec spec = bench::AtRestSpec(scale);
      spec.jb_group_size = g;
      const RunResult result = bench::RunJoin(jb, w.r, w.s, spec);
      std::printf("%-8s g=%-8d %12.1f %12.1f %12.1f\n",
                  result.algorithm.c_str(), g, result.WorkNsPerInput(),
                  result.phases.GetNs(Phase::kPartition) /
                      static_cast<double>(result.inputs),
                  result.throughput_per_ms);
    }
    const JoinSpec spec = bench::AtRestSpec(scale);
    const RunResult result = bench::RunJoin(jm, w.r, w.s, spec);
    std::printf("%-8s %-10s %12.1f %12.1f %12.1f\n", result.algorithm.c_str(),
                "JM-line", result.WorkNsPerInput(),
                result.phases.GetNs(Phase::kPartition) /
                    static_cast<double>(result.inputs),
                result.throughput_per_ms);
  }
  std::printf(
      "# paper shape: per-tuple cost rises with g and JM beats every JB "
      "setting (router status maintenance). Here JB keeps no router state "
      "and pays only ownership filtering and g-replication: cost rises with "
      "g toward the JM line, which JB reaches at g = threads — see "
      "EXPERIMENTS.md\n");
  return 0;
}
