// Parameter-sweep harness: runs many independent incast simulations
// (protocol x flow-count x repetition) across a thread pool and merges the
// per-repetition results into the per-point statistics the paper plots.
#pragma once

#include <vector>

#include "dctcpp/stats/quantile_sketch.h"
#include "dctcpp/stats/summary.h"
#include "dctcpp/util/thread_pool.h"
#include "dctcpp/workload/incast.h"

namespace dctcpp {

/// Aggregated metrics for one (protocol, N) sweep point.
struct IncastSweepPoint {
  Protocol protocol{};
  int num_flows = 0;

  SummaryStats goodput_mbps;  ///< one sample per repetition
  /// FCT distribution over all rounds of all repetitions. A bounded
  /// streaming sketch, not a sample vector: a 1000-rep sweep folds
  /// millions of rounds into a fixed-size bucket array per point.
  QuantileSketch fct_ms;
  Histogram cwnd_hist{1, 16};

  std::uint64_t rounds = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t floss_timeouts = 0;
  std::uint64_t lack_timeouts = 0;

  std::uint64_t tracked_rounds_at_min_ece = 0;
  std::uint64_t tracked_rounds_with_timeout = 0;
  std::uint64_t tracked_floss = 0;
  std::uint64_t tracked_lack = 0;

  /// Exact event/packet totals across the repetitions — the integers the
  /// determinism gates compare bitwise across thread-pool sizes.
  std::uint64_t events = 0;
  std::uint64_t packets_forwarded = 0;

  /// Invariant-checker totals across the repetitions (see
  /// util/invariants.h); harnesses assert invariant_violations == 0.
  std::uint64_t invariant_violations = 0;
  std::uint64_t packets_originated = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t packets_duplicated = 0;
  std::uint64_t checksum_discards = 0;

  bool hit_time_limit = false;

  /// Folds one repetition's result into this point.
  void Merge(const IncastResult& r);
};

/// Full sweep: every protocol crossed with every flow count, `reps`
/// repetitions each, run on `pool`. Repetition r of a point with N flows
/// runs at seed base.seed + r + 0x9e3779b97f4a7c15 * N. Points come back
/// protocol-major, flow-count-minor. When `runs` is given it receives
/// every repetition's own result in job order (protocol, then flow count,
/// then repetition) — the per-seed view the merged points fold away.
std::vector<IncastSweepPoint> RunIncastSweep(
    const IncastConfig& base, const std::vector<Protocol>& protocols,
    const std::vector<int>& flow_counts, int reps, ThreadPool& pool,
    std::vector<IncastResult>* runs = nullptr);

/// One-point sweep: `reps` repetitions of `base` at base.protocol and
/// base.num_flows, seeded by RunIncastSweep's rule.
IncastSweepPoint RunIncastPoint(const IncastConfig& base, int reps,
                                ThreadPool& pool);

}  // namespace dctcpp
