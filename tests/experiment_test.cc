// Sweep-harness determinism: the merged statistics of a sweep point must
// be bit-identical regardless of how many worker threads computed the
// repetitions. The harness guarantees this by merging repetition results
// in job order (not completion order) — see RunIncastSweep.
#include <gtest/gtest.h>

#include <vector>

#include "dctcpp/util/thread_pool.h"
#include "dctcpp/workload/experiment.h"

namespace dctcpp {
namespace {

IncastConfig TinyIncast(Protocol protocol, int flows) {
  IncastConfig config;
  config.protocol = protocol;
  config.num_flows = flows;
  config.rounds = 3;
  config.total_bytes = 128 * 1024;
  config.time_limit = 60 * kSecond;
  return config;
}

/// Every aggregate in an IncastSweepPoint, compared bitwise (EXPECT_EQ on
/// double is exact). The sketch and histogram are compared through their
/// full observable surface.
void ExpectPointsIdentical(const IncastSweepPoint& a,
                           const IncastSweepPoint& b) {
  EXPECT_EQ(a.protocol, b.protocol);
  EXPECT_EQ(a.num_flows, b.num_flows);

  EXPECT_EQ(a.goodput_mbps.count(), b.goodput_mbps.count());
  EXPECT_EQ(a.goodput_mbps.mean(), b.goodput_mbps.mean());
  EXPECT_EQ(a.goodput_mbps.variance(), b.goodput_mbps.variance());
  EXPECT_EQ(a.goodput_mbps.min(), b.goodput_mbps.min());
  EXPECT_EQ(a.goodput_mbps.max(), b.goodput_mbps.max());
  EXPECT_EQ(a.goodput_mbps.sum(), b.goodput_mbps.sum());

  EXPECT_EQ(a.fct_ms.count(), b.fct_ms.count());
  EXPECT_EQ(a.fct_ms.Mean(), b.fct_ms.Mean());
  EXPECT_EQ(a.fct_ms.Min(), b.fct_ms.Min());
  EXPECT_EQ(a.fct_ms.Max(), b.fct_ms.Max());
  for (double q : {0.25, 0.5, 0.95, 0.99}) {
    EXPECT_EQ(a.fct_ms.Quantile(q), b.fct_ms.Quantile(q)) << "q=" << q;
  }

  EXPECT_EQ(a.cwnd_hist.total(), b.cwnd_hist.total());
  EXPECT_EQ(a.cwnd_hist.underflow(), b.cwnd_hist.underflow());
  EXPECT_EQ(a.cwnd_hist.overflow(), b.cwnd_hist.overflow());
  for (std::int64_t v = a.cwnd_hist.lo(); v <= a.cwnd_hist.hi(); ++v) {
    EXPECT_EQ(a.cwnd_hist.CountAt(v), b.cwnd_hist.CountAt(v)) << "cwnd " << v;
  }

  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.floss_timeouts, b.floss_timeouts);
  EXPECT_EQ(a.lack_timeouts, b.lack_timeouts);
  EXPECT_EQ(a.tracked_rounds_at_min_ece, b.tracked_rounds_at_min_ece);
  EXPECT_EQ(a.tracked_rounds_with_timeout, b.tracked_rounds_with_timeout);
  EXPECT_EQ(a.tracked_floss, b.tracked_floss);
  EXPECT_EQ(a.tracked_lack, b.tracked_lack);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.packets_forwarded, b.packets_forwarded);
  EXPECT_EQ(a.invariant_violations, b.invariant_violations);
  EXPECT_EQ(a.packets_originated, b.packets_originated);
  EXPECT_EQ(a.packets_dropped, b.packets_dropped);
  EXPECT_EQ(a.packets_duplicated, b.packets_duplicated);
  EXPECT_EQ(a.checksum_discards, b.checksum_discards);
  EXPECT_EQ(a.hit_time_limit, b.hit_time_limit);
}

TEST(ExperimentTest, SweepDeterminismAcrossPoolSizes) {
  const IncastConfig config = TinyIncast(Protocol::kDctcp, 8);
  constexpr int kReps = 5;  // more reps than threads in the middle case

  ThreadPool pool1(1);
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  const IncastSweepPoint serial = RunIncastPoint(config, kReps, pool1);
  const IncastSweepPoint two = RunIncastPoint(config, kReps, pool2);
  const IncastSweepPoint eight = RunIncastPoint(config, kReps, pool8);

  ASSERT_EQ(serial.goodput_mbps.count(), static_cast<std::size_t>(kReps));
  ExpectPointsIdentical(serial, two);
  ExpectPointsIdentical(serial, eight);
}

TEST(ExperimentTest, FullSweepDeterministicAcrossPoolSizes) {
  const IncastConfig base = TinyIncast(Protocol::kDctcp, 0);
  const std::vector<Protocol> protocols = {Protocol::kDctcp,
                                           Protocol::kDctcpPlus};
  const std::vector<int> flows = {4, 8};

  ThreadPool pool1(1);
  ThreadPool pool8(8);
  const auto serial = RunIncastSweep(base, protocols, flows, 2, pool1);
  const auto wide = RunIncastSweep(base, protocols, flows, 2, pool8);

  ASSERT_EQ(serial.size(), wide.size());
  ASSERT_EQ(serial.size(), 4u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectPointsIdentical(serial[i], wide[i]);
  }
}

TEST(ExperimentTest, ImpairedSweepDeterministicAcrossPoolSizes) {
  // The full fault pipeline active at once: per-link RNG streams must keep
  // an impaired sweep bit-identical (including exact event and packet
  // counts) for any thread-pool size.
  IncastConfig config = TinyIncast(Protocol::kDctcp, 8);
  config.min_rto = 10 * kMillisecond;
  config.link.impairment.random_loss = 0.002;
  config.link.impairment.ge_p_good_to_bad = 0.001;
  config.link.impairment.ge_p_bad_to_good = 0.3;
  config.link.impairment.reorder_prob = 0.01;
  config.link.impairment.duplicate_prob = 0.005;
  config.link.impairment.corrupt_prob = 0.002;
  constexpr int kReps = 5;

  ThreadPool pool1(1);
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  const IncastSweepPoint serial = RunIncastPoint(config, kReps, pool1);
  const IncastSweepPoint two = RunIncastPoint(config, kReps, pool2);
  const IncastSweepPoint eight = RunIncastPoint(config, kReps, pool8);

  ASSERT_EQ(serial.goodput_mbps.count(), static_cast<std::size_t>(kReps));
  EXPECT_EQ(serial.invariant_violations, 0u);
  EXPECT_GT(serial.packets_dropped, 0u);       // impairment actually bit
  EXPECT_GT(serial.checksum_discards, 0u);
  ExpectPointsIdentical(serial, two);
  ExpectPointsIdentical(serial, eight);
}

TEST(ExperimentTest, RepeatedRunsBitIdentical) {
  // Same pool size twice: the whole pipeline (simulation + merge) is a
  // pure function of the config.
  const IncastConfig config = TinyIncast(Protocol::kDctcpPlus, 6);
  ThreadPool pool(4);
  const IncastSweepPoint a = RunIncastPoint(config, 3, pool);
  const IncastSweepPoint b = RunIncastPoint(config, 3, pool);
  ExpectPointsIdentical(a, b);
}

}  // namespace
}  // namespace dctcpp
