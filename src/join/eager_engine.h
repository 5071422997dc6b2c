// The eager execution engine (paper §3.2).
//
// An eager algorithm = a per-worker stream-join state (SHJ or PMJ) plus a
// stream distribution scheme (JM or JB). Every worker scans both inputs in
// arrival order through the virtual clock's gate, alternating between
// streams and stalling when it outruns tuple arrival — the pull loop the
// paper describes in §4.2.2. Owned tuples are fed to the worker's local join
// state, which emits matches eagerly.
//
// JB routes by content without router state: Distribution::OwnsR/OwnsS
// (and, in morsel mode, the per-group ClaimGrid) decide ownership from the
// key alone, so JB's partition-phase cost is ownership filtering plus the
// replication of R within a core group of size g. The §5.3.3 "status
// maintenance" of the paper's distributed router has no counterpart here.
//
// The physical-partitioning knob (§5.5, Figure 17) switches between copying
// owned tuples into worker-local buffers (value tables, better locality)
// and referencing the shared input arrays (pointer tables, cheaper
// partitioning).
#ifndef IAWJ_JOIN_EAGER_ENGINE_H_
#define IAWJ_JOIN_EAGER_ENGINE_H_

#include <memory>

#include "src/join/context.h"
#include "src/stream/distribution.h"

namespace iawj {

// Per-worker stream-join state. Implementations switch the stopwatch to the
// phase they spend time in (build/sort/merge/probe).
class EagerState {
 public:
  virtual ~EagerState() = default;

  // Processes one owned tuple: integrate into local state, emit matches.
  virtual void OnR(const Tuple& r, MatchSink& sink, PhaseStopwatch& sw) = 0;
  virtual void OnS(const Tuple& s, MatchSink& sink, PhaseStopwatch& sw) = 0;

  // Called once after both inputs are exhausted (PMJ's merge phase runs
  // here; SHJ has nothing left to do).
  virtual void Finish(MatchSink& sink, PhaseStopwatch& sw) {
    (void)sink;
    (void)sw;
  }
};

// Sizing and tuning hints handed to state constructors.
struct EagerStateConfig {
  uint64_t expected_r = 0;  // tuples this worker is expected to store from R
  uint64_t expected_s = 0;
  double pmj_delta = 0.2;
  bool store_pointers = false;  // !JoinSpec::eager_physical_partition
  bool use_simd = true;
  // Cache-conscious kernels resolved from JoinSpec::kernels
  // (common/kernels.h). SHJ is per-tuple, so its kernel is a cross-table
  // prefetch: hint the opposite table's probe bucket before the insert so
  // the probe's miss overlaps the build work. Always false under SimTracer.
  bool cache_kernels = false;
  // kernels=simd resolved to a supported AVX2 host (KernelPlan::simd_probe):
  // ShjLinearState runs each per-tuple probe as one vertical cluster scan
  // (hash/simd_probe.h). Ignored by the bucket-chain states.
  bool simd_probe = false;
};

enum class EagerKind { kShj, kPmj };

template <typename Tracer = NullTracer>
class EagerJoin : public JoinAlgorithm {
 public:
  EagerJoin(EagerKind kind, DistributionScheme scheme)
      : kind_(kind), scheme_(scheme) {}

  std::string_view name() const override;

  Status Setup(const JoinContext& ctx) override;
  void RunWorker(const JoinContext& ctx, int worker) override;

 private:
  std::unique_ptr<EagerState> MakeState(const JoinContext& ctx, int worker,
                                        Tracer tracer) const;

  EagerKind kind_;
  DistributionScheme scheme_;
  std::unique_ptr<Distribution> distribution_;

  // Morsel mode (join/scheduler.h): S ownership becomes first-claimant per
  // morsel instead of seq round-robin. R ownership is replication-defined
  // (JM: everyone; JB: the key's group) and stays as-is.
  bool morsel_ = false;
  ClaimGrid s_claims_;
};

// Factories for the four eager algorithms (and their traced variants).
std::unique_ptr<JoinAlgorithm> MakeEager(AlgorithmId id);
std::unique_ptr<JoinAlgorithm> MakeEagerTraced(AlgorithmId id);

}  // namespace iawj

#endif  // IAWJ_JOIN_EAGER_ENGINE_H_
