#include "dctcpp/workload/experiment.h"

#include "dctcpp/util/assert.h"

namespace dctcpp {

void IncastSweepPoint::Merge(const IncastResult& r) {
  protocol = r.protocol;
  num_flows = r.num_flows;
  goodput_mbps.Add(r.goodput_mbps);
  for (double sample : r.fct_ms.samples()) fct_ms.Add(sample);
  cwnd_hist.Merge(r.cwnd_hist);
  rounds += r.rounds_completed;
  timeouts += r.timeouts;
  floss_timeouts += r.floss_timeouts;
  lack_timeouts += r.lack_timeouts;
  tracked_rounds_at_min_ece += r.tracked_rounds_at_min_ece;
  tracked_rounds_with_timeout += r.tracked_rounds_with_timeout;
  tracked_floss += r.tracked_floss;
  tracked_lack += r.tracked_lack;
  events += r.events;
  packets_forwarded += r.packets_forwarded;
  invariant_violations += r.invariant_violations;
  packets_originated += r.packets_originated;
  packets_dropped += r.packets_dropped;
  packets_duplicated += r.packets_duplicated;
  checksum_discards += r.checksum_discards;
  hit_time_limit = hit_time_limit || r.hit_time_limit;
}

std::vector<IncastSweepPoint> RunIncastSweep(
    const IncastConfig& base, const std::vector<Protocol>& protocols,
    const std::vector<int>& flow_counts, int reps, ThreadPool& pool,
    std::vector<IncastResult>* runs) {
  DCTCPP_ASSERT(reps >= 1);
  struct Job {
    Protocol protocol;
    int num_flows;
    int rep;
  };
  std::vector<Job> jobs;
  for (Protocol p : protocols) {
    for (int n : flow_counts) {
      for (int r = 0; r < reps; ++r) jobs.push_back(Job{p, n, r});
    }
  }

  // Run every job into its own slot, then merge sequentially in job
  // order. Merging under a mutex in completion order would make the
  // floating-point accumulation (SummaryStats, sketches) depend on thread
  // scheduling; this way the sweep's statistics are bit-identical for any
  // pool size — see SweepDeterminismAcrossPoolSizes in experiment_test.
  std::vector<IncastResult> results(jobs.size());
  ParallelFor(pool, jobs.size(), [&](std::size_t j) {
    const Job& job = jobs[j];
    IncastConfig config = base;
    config.protocol = job.protocol;
    config.num_flows = job.num_flows;
    config.seed = base.seed + static_cast<std::uint64_t>(job.rep) +
                  0x9e3779b97f4a7c15ULL *
                      static_cast<std::uint64_t>(job.num_flows);
    results[j] = RunIncast(config);
  });

  std::vector<IncastSweepPoint> points(protocols.size() *
                                       flow_counts.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const Job& job = jobs[j];
    // Point index: protocol-major, flow-count-minor.
    std::size_t pi = 0, ni = 0;
    for (std::size_t i = 0; i < protocols.size(); ++i) {
      if (protocols[i] == job.protocol) pi = i;
    }
    for (std::size_t i = 0; i < flow_counts.size(); ++i) {
      if (flow_counts[i] == job.num_flows) ni = i;
    }
    points[pi * flow_counts.size() + ni].Merge(results[j]);
  }
  if (runs != nullptr) *runs = std::move(results);
  return points;
}

IncastSweepPoint RunIncastPoint(const IncastConfig& base, int reps,
                                ThreadPool& pool) {
  return RunIncastSweep(base, {base.protocol}, {base.num_flows}, reps, pool)
      .front();
}

}  // namespace dctcpp
