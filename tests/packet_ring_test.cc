// PacketRing tests: wrap-around, growth under load, and in-place slot
// mutation.
#include <gtest/gtest.h>

#include <deque>

#include "dctcpp/net/packet_ring.h"
#include "dctcpp/util/rng.h"

namespace dctcpp {
namespace {

Packet Pkt(std::uint64_t uid) {
  Packet p;
  p.payload = kMss;
  p.uid = uid;
  return p;
}

TEST(PacketRingTest, FifoOrderAcrossWrapAround) {
  PacketRing ring(4);  // capacity 4: wraps every few operations
  std::uint64_t next_push = 0;
  std::uint64_t next_pop = 0;
  // Keep the ring 3/4 full while pushing far more packets than capacity,
  // so head_ laps the array many times.
  for (int i = 0; i < 100; ++i) {
    ring.PushBack(Pkt(next_push++));
    if (ring.Size() == 3) {
      EXPECT_EQ(ring.Front().uid, next_pop);
      ring.PopFront();
      ++next_pop;
    }
  }
  while (!ring.Empty()) {
    EXPECT_EQ(ring.Front().uid, next_pop++);
    ring.PopFront();
  }
  EXPECT_EQ(next_pop, next_push);
  EXPECT_EQ(ring.Capacity(), 4u);  // never needed to grow
}

TEST(PacketRingTest, GrowthPreservesOrderWhenWrapped) {
  PacketRing ring(4);
  // Advance head so the live region wraps the array edge, then force
  // growth: the relocation must preserve FIFO order.
  for (std::uint64_t i = 0; i < 3; ++i) ring.PushBack(Pkt(i));
  ring.PopFront();
  ring.PopFront();
  for (std::uint64_t i = 3; i < 20; ++i) ring.PushBack(Pkt(i));
  EXPECT_GT(ring.Capacity(), 4u);
  for (std::uint64_t expect = 2; expect < 20; ++expect) {
    ASSERT_FALSE(ring.Empty());
    EXPECT_EQ(ring.Front().uid, expect);
    ring.PopFront();
  }
  EXPECT_TRUE(ring.Empty());
}

TEST(PacketRingTest, PushBackReturnsStoredSlotForInPlaceMarking) {
  PacketRing ring;
  Packet& slot = ring.PushBack(Pkt(7));
  slot.ecn = Ecn::kCe;  // the switch marks the stored copy, not the input
  EXPECT_EQ(ring.Front().ecn, Ecn::kCe);
  EXPECT_EQ(ring.Front().uid, 7u);
}

TEST(PacketRingTest, RandomizedDifferentialAgainstDeque) {
  Rng rng(42);
  PacketRing ring(2);
  std::deque<Packet> oracle;
  std::uint64_t uid = 0;
  for (int op = 0; op < 5000; ++op) {
    if (oracle.empty() || rng.Chance(0.55)) {
      ring.PushBack(Pkt(uid));
      oracle.push_back(Pkt(uid));
      ++uid;
    } else {
      ASSERT_EQ(ring.Front().uid, oracle.front().uid);
      ring.PopFront();
      oracle.pop_front();
    }
    ASSERT_EQ(ring.Size(), oracle.size());
  }
}

TEST(PacketRingTest, AtIndexesFromFrontAcrossWrapAndGrowth) {
  PacketRing ring(4);
  for (std::uint64_t i = 0; i < 3; ++i) ring.PushBack(Pkt(i));
  ring.PopFront();  // head moves: At(0) must track the logical front
  EXPECT_EQ(ring.At(0).uid, 1u);
  EXPECT_EQ(ring.At(1).uid, 2u);
  for (std::uint64_t i = 3; i < 12; ++i) ring.PushBack(Pkt(i));  // wrap + grow
  for (std::size_t i = 0; i < ring.Size(); ++i) {
    EXPECT_EQ(ring.At(i).uid, i + 1);
  }
  // Mutation through At reaches the stored slot (the staged-egress queue
  // marks and reads packets in place mid-FIFO).
  ring.At(2).ecn = Ecn::kCe;
  ring.PopFront();
  ring.PopFront();
  EXPECT_EQ(ring.Front().ecn, Ecn::kCe);
}

}  // namespace
}  // namespace dctcpp
