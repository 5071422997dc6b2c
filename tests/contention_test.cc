// Real-parallelism contention regression: every algorithm, at 2 and 4
// threads, must join an at-rest window without convoying on a lock.
//
// A lock convoy does not change any answer, so the correctness suites cannot
// see one; it shows up as workers blocking in the kernel. The signal here is
// the process's voluntary context switches (getrusage) per 1000 inputs
// around one run: a worker only gives up its CPU voluntarily when it sleeps
// on a contended mutex, a futex-backed barrier or a join. Clean algorithms
// stay below 0.1 per 1000 inputs (thread start and join, a few barriers);
// a per-tuple global mutex costs about a thousand times more.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <iterator>
#include <string>
#include <tuple>
#include <vector>

#include "src/datagen/micro.h"
#include "src/join/runner.h"

namespace iawj {
namespace {

// Bound on voluntary context switches per 1000 inputs. Generous against
// the clean level (0.005-0.09 on a 4-vCPU host) so a loaded test host
// cannot trip it, yet far below what a per-tuple global mutex produced
// there (90-400).
constexpr double kMaxVcswPerKiloInput = 5.0;
constexpr uint64_t kTuplesPerSide = 100'000;

const MicroWorkload& Workload() {
  static const MicroWorkload workload = [] {
    MicroSpec spec;
    spec.size_r = kTuplesPerSide;
    spec.size_s = kTuplesPerSide;
    spec.window_ms = 1000;
    spec.seed = 17;
    return GenerateMicro(spec);
  }();
  return workload;
}

long VoluntarySwitches() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_nvcsw;
}

class ContentionTest
    : public ::testing::TestWithParam<std::tuple<AlgorithmId, int>> {};

TEST_P(ContentionTest, VoluntarySwitchesPerInputStayBounded) {
  const auto [id, threads] = GetParam();
  const MicroWorkload& w = Workload();

  JoinSpec spec;
  spec.num_threads = threads;
  spec.window_ms = 1000;
  spec.clock_mode = Clock::Mode::kInstant;
  spec.jb_group_size = 2;

  JoinRunner runner;
  const long before = VoluntarySwitches();
  const RunResult result = runner.Run(id, w.r, w.s, spec);
  const long switches = VoluntarySwitches() - before;

  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  ASSERT_EQ(result.inputs, 2 * kTuplesPerSide);
  const double per_kilo_input = 1000.0 * static_cast<double>(switches) /
                                static_cast<double>(result.inputs);
  EXPECT_LE(per_kilo_input, kMaxVcswPerKiloInput)
      << result.algorithm << " at " << threads << " threads: " << switches
      << " voluntary context switches over " << result.inputs << " inputs";
}

// The paper's eight algorithms plus HHJ.
std::vector<AlgorithmId> EveryAlgorithm() {
  std::vector<AlgorithmId> ids(std::begin(kAllAlgorithms),
                               std::end(kAllAlgorithms));
  ids.push_back(AlgorithmId::kHhj);
  return ids;
}

INSTANTIATE_TEST_SUITE_P(
    EveryAlgorithm, ContentionTest,
    ::testing::Combine(::testing::ValuesIn(EveryAlgorithm()),
                       ::testing::Values(2, 4)),
    [](const ::testing::TestParamInfo<std::tuple<AlgorithmId, int>>& info) {
      std::string name(AlgorithmName(std::get<0>(info.param)));
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_t" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace iawj
