// Reassembly-queue tests: in-order delivery, gap tracking, overlap
// coalescing, and sequence-wrap transparency.
#include <gtest/gtest.h>

#include "dctcpp/tcp/receive_buffer.h"
#include "reference/map_interval_set.h"

namespace dctcpp {
namespace {

TEST(ReceiveBufferTest, InOrderAdvances) {
  ReceiveBuffer rx(SeqNum(1000));
  EXPECT_EQ(rx.OnSegment(SeqNum(1000), 100), 100);
  EXPECT_EQ(rx.rcv_nxt(), SeqNum(1100));
  EXPECT_EQ(rx.OnSegment(SeqNum(1100), 50), 50);
  EXPECT_EQ(rx.rcv_nxt(), SeqNum(1150));
  EXPECT_EQ(rx.DeliveredBytes(), 150);
  EXPECT_FALSE(rx.HasGaps());
}

TEST(ReceiveBufferTest, OutOfOrderHeldThenDelivered) {
  ReceiveBuffer rx(SeqNum(0));
  EXPECT_EQ(rx.OnSegment(SeqNum(100), 100), 0);  // hole in front
  EXPECT_TRUE(rx.HasGaps());
  EXPECT_EQ(rx.OutOfOrderBytes(), 100);
  EXPECT_EQ(rx.OnSegment(SeqNum(0), 100), 200);  // fills the hole
  EXPECT_FALSE(rx.HasGaps());
  EXPECT_EQ(rx.rcv_nxt(), SeqNum(200));
}

TEST(ReceiveBufferTest, DuplicateIsIgnored) {
  ReceiveBuffer rx(SeqNum(0));
  rx.OnSegment(SeqNum(0), 100);
  EXPECT_EQ(rx.OnSegment(SeqNum(0), 100), 0);
  EXPECT_EQ(rx.OnSegment(SeqNum(50), 50), 0);  // fully below rcv_nxt
  EXPECT_EQ(rx.rcv_nxt(), SeqNum(100));
  EXPECT_EQ(rx.DeliveredBytes(), 100);
}

TEST(ReceiveBufferTest, PartialOverlapDeliversOnlyNewBytes) {
  ReceiveBuffer rx(SeqNum(0));
  rx.OnSegment(SeqNum(0), 100);
  // [50, 150): first 50 bytes are stale.
  EXPECT_EQ(rx.OnSegment(SeqNum(50), 100), 50);
  EXPECT_EQ(rx.rcv_nxt(), SeqNum(150));
}

TEST(ReceiveBufferTest, AdjacentOutOfOrderRangesCoalesce) {
  ReceiveBuffer rx(SeqNum(0));
  rx.OnSegment(SeqNum(100), 100);
  rx.OnSegment(SeqNum(200), 100);  // abuts the previous range
  EXPECT_EQ(rx.OutOfOrderRanges(), 1u);
  EXPECT_EQ(rx.OutOfOrderBytes(), 200);
  EXPECT_EQ(rx.OnSegment(SeqNum(0), 100), 300);
}

TEST(ReceiveBufferTest, DisjointRangesTrackedSeparately) {
  ReceiveBuffer rx(SeqNum(0));
  rx.OnSegment(SeqNum(100), 50);
  rx.OnSegment(SeqNum(300), 50);
  EXPECT_EQ(rx.OutOfOrderRanges(), 2u);
  // Filling the first hole releases only up to the second hole.
  EXPECT_EQ(rx.OnSegment(SeqNum(0), 100), 150);
  EXPECT_EQ(rx.rcv_nxt(), SeqNum(150));
  EXPECT_TRUE(rx.HasGaps());
}

TEST(ReceiveBufferTest, SegmentBridgingTwoRanges) {
  ReceiveBuffer rx(SeqNum(0));
  rx.OnSegment(SeqNum(100), 50);   // [100,150)
  rx.OnSegment(SeqNum(200), 50);   // [200,250)
  rx.OnSegment(SeqNum(150), 50);   // bridges them
  EXPECT_EQ(rx.OutOfOrderRanges(), 1u);
  EXPECT_EQ(rx.OutOfOrderBytes(), 150);
}

TEST(ReceiveBufferTest, SegmentSwallowingExistingRange) {
  ReceiveBuffer rx(SeqNum(0));
  rx.OnSegment(SeqNum(120), 10);
  rx.OnSegment(SeqNum(100), 100);  // superset
  EXPECT_EQ(rx.OutOfOrderRanges(), 1u);
  EXPECT_EQ(rx.OutOfOrderBytes(), 100);
}

TEST(ReceiveBufferTest, ZeroLengthSegmentIsNoop) {
  ReceiveBuffer rx(SeqNum(5));
  EXPECT_EQ(rx.OnSegment(SeqNum(5), 0), 0);
  EXPECT_EQ(rx.rcv_nxt(), SeqNum(5));
}

TEST(ReceiveBufferTest, WorksAcrossSequenceWrap) {
  ReceiveBuffer rx(SeqNum(0xFFFFFF00u));
  EXPECT_EQ(rx.OnSegment(SeqNum(0xFFFFFF00u), 0x100), 0x100);
  EXPECT_EQ(rx.rcv_nxt(), SeqNum(0));  // wrapped
  EXPECT_EQ(rx.OnSegment(SeqNum(0), 100), 100);
  EXPECT_EQ(rx.rcv_nxt(), SeqNum(100));
  EXPECT_EQ(rx.DeliveredBytes(), 0x100 + 100);
}

TEST(ReceiveBufferTest, OutOfOrderAcrossWrap) {
  ReceiveBuffer rx(SeqNum(0xFFFFFFF0u));
  rx.OnSegment(SeqNum(0x10), 16);  // beyond the wrap, hole in front
  EXPECT_TRUE(rx.HasGaps());
  EXPECT_EQ(rx.OnSegment(SeqNum(0xFFFFFFF0u), 32), 48);
  EXPECT_FALSE(rx.HasGaps());
  EXPECT_EQ(rx.rcv_nxt(), SeqNum(0x20));
}

TEST(ReceiveBufferTest, LongStreamAccumulates) {
  ReceiveBuffer rx(SeqNum(7));
  Bytes total = 0;
  for (int i = 0; i < 10000; ++i) {
    total += rx.OnSegment(rx.rcv_nxt(), 1460);
  }
  EXPECT_EQ(total, 10000LL * 1460);
  EXPECT_EQ(rx.DeliveredBytes(), total);
}

/// Property sweep: random arrival permutations always reassemble exactly.
class ReassemblyProperty : public ::testing::TestWithParam<int> {};

TEST_P(ReassemblyProperty, RandomPermutationReassembles) {
  const int seed = GetParam();
  std::vector<int> order;
  constexpr int kSegments = 64;
  for (int i = 0; i < kSegments; ++i) order.push_back(i);
  // Deterministic shuffle from the seed.
  std::uint64_t state = static_cast<std::uint64_t>(seed) * 2654435761u + 1;
  for (int i = kSegments - 1; i > 0; --i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    std::swap(order[i], order[state % (i + 1)]);
  }
  ReceiveBuffer rx(SeqNum(123));
  Bytes delivered = 0;
  for (int idx : order) {
    delivered += rx.OnSegment(SeqNum(123) + idx * 100, 100);
  }
  EXPECT_EQ(delivered, kSegments * 100);
  EXPECT_FALSE(rx.HasGaps());
  EXPECT_EQ(rx.rcv_nxt(), SeqNum(123) + kSegments * 100);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReassemblyProperty,
                         ::testing::Range(0, 16));

/// Scoreboard differential: replay randomized segment arrivals (loss,
/// reordering, duplication, partial overlap) through the production flat
/// interval-vector buffer and the std::map reference, asserting identical
/// ACK (rcv_nxt, advanced bytes) and SACK output after every arrival.
class ScoreboardDifferential : public ::testing::TestWithParam<int> {};

TEST_P(ScoreboardDifferential, FlatVectorMatchesMapReference) {
  std::uint64_t state =
      static_cast<std::uint64_t>(GetParam()) * 0x9e3779b97f4a7c15ULL + 1;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 11;
  };

  const SeqNum isn(0xfffffd00u);  // crosses the 32-bit wrap early on
  BasicReceiveBuffer<IntervalSet> flat(isn);
  BasicReceiveBuffer<MapIntervalSet> map(isn);

  std::uint32_t stream_pos = 0;  // bytes the "sender" has produced
  for (int arrival = 0; arrival < 4000; ++arrival) {
    // Mostly fresh in-flight data near the frontier, with stale
    // retransmission-like duplicates mixed in.
    const bool duplicate = (next() % 10) == 0;
    const std::uint32_t base = duplicate
                                   ? static_cast<std::uint32_t>(
                                         flat.DeliveredBytes() > 2000
                                             ? flat.DeliveredBytes() - 2000
                                             : 0)
                                   : stream_pos;
    const std::uint32_t offset =
        base + static_cast<std::uint32_t>(next() % 4000);
    const Bytes len = 1 + static_cast<Bytes>(next() % 1460);
    if (!duplicate) stream_pos = std::max(stream_pos, offset);

    const Bytes advanced_flat = flat.OnSegment(isn + offset, len);
    const Bytes advanced_map = map.OnSegment(isn + offset, len);
    ASSERT_EQ(advanced_flat, advanced_map);
    ASSERT_EQ(flat.rcv_nxt(), map.rcv_nxt());
    ASSERT_EQ(flat.DeliveredBytes(), map.DeliveredBytes());
    ASSERT_EQ(flat.OutOfOrderRanges(), map.OutOfOrderRanges());
    ASSERT_EQ(flat.OutOfOrderBytes(), map.OutOfOrderBytes());

    const auto sack_flat = flat.SackRanges(3);
    const auto sack_map = map.SackRanges(3);
    ASSERT_EQ(sack_flat.size(), sack_map.size());
    for (std::size_t i = 0; i < sack_flat.size(); ++i) {
      ASSERT_EQ(sack_flat[i].start, sack_map[i].start);
      ASSERT_EQ(sack_flat[i].end, sack_map[i].end);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScoreboardDifferential,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace dctcpp
