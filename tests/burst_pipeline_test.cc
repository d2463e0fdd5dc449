// One-copy egress: the staged-queue region semantics the end-to-end runs
// rely on, and the one-cacheline Packet layout the burst pipeline needs.
// End-to-end, the burst pipeline (wheel batch drain, one-copy egress) is pinned by the golden table in tests/golden_test.cc.
#include <gtest/gtest.h>

#include <cstdint>

#include "dctcpp/net/packet.h"
#include "dctcpp/net/queue.h"

namespace dctcpp {
namespace {

Packet MakePacket(std::uint64_t uid, Bytes payload) {
  Packet pkt;
  pkt.uid = uid;
  pkt.payload = static_cast<std::int32_t>(payload);
  pkt.ecn = Ecn::kEct;
  return pkt;
}

TEST(StagedQueue, ServiceAndWireRegionsLeaveBufferAccounting) {
  DropTailEcnQueue q(/*capacity=*/1 << 20, /*ecn_threshold=*/0);
  ASSERT_TRUE(q.Enqueue(MakePacket(1, kMss)));
  ASSERT_TRUE(q.Enqueue(MakePacket(2, kMss)));
  ASSERT_TRUE(q.Enqueue(MakePacket(3, kMss)));
  const Bytes wire = MakePacket(0, kMss).WireSize();
  EXPECT_EQ(q.PacketCount(), 3u);
  EXPECT_EQ(q.OccupancyBytes(), 3 * wire);

  // Begin serializing uid 1: it leaves the buffer accounting but stays in
  // the FIFO slot (one-copy contract: same address until delivery).
  const Packet& serving = q.BeginService();
  EXPECT_EQ(serving.uid, 1u);
  EXPECT_EQ(&serving, &q.Serving());
  EXPECT_EQ(q.PacketCount(), 2u);
  EXPECT_EQ(q.OccupancyBytes(), 2 * wire);
  EXPECT_EQ(q.ComputeOccupancyBytes(), q.OccupancyBytes());
  // Front() now reads the queued region.
  EXPECT_EQ(q.Front().uid, 2u);

  // Serving -> propagating, in place; next service can begin.
  q.FinishServiceToWire();
  EXPECT_EQ(q.PropagatingCount(), 1u);
  EXPECT_EQ(q.PropagatingFront().uid, 1u);
  EXPECT_EQ(q.BeginService().uid, 2u);
  q.FinishServiceToWire();
  EXPECT_EQ(q.PropagatingCount(), 2u);
  EXPECT_EQ(q.PropagatingAt(0).uid, 1u);
  EXPECT_EQ(q.PropagatingAt(1).uid, 2u);
  EXPECT_EQ(q.PacketCount(), 1u);
  EXPECT_EQ(q.OccupancyBytes(), wire);

  // Deliveries retire in FIFO order from the propagating region.
  q.PopPropagating();
  EXPECT_EQ(q.PropagatingFront().uid, 2u);
  q.PopPropagating();
  EXPECT_EQ(q.PropagatingCount(), 0u);
  EXPECT_EQ(q.PacketCount(), 1u);
  EXPECT_EQ(q.Front().uid, 3u);
}

TEST(StagedQueue, DropServingRemovesWithoutWireRegion) {
  // Sharded mode: the serving packet's bytes were copied into the peer
  // calendar, so it is dropped rather than staged onto a wire.
  DropTailEcnQueue q(1 << 20, 0);
  ASSERT_TRUE(q.Enqueue(MakePacket(7, kMss)));
  ASSERT_TRUE(q.Enqueue(MakePacket(8, kMss)));
  EXPECT_EQ(q.BeginService().uid, 7u);
  q.DropServing();
  EXPECT_EQ(q.PacketCount(), 1u);
  EXPECT_EQ(q.BeginService().uid, 8u);
  q.DropServing();
  EXPECT_TRUE(q.Empty());
}

TEST(StagedQueue, EcnAndDropTailReadQueuedRegionOnly) {
  // Capacity of two queued packets; a third fits once the head moves to
  // the serving region (its bytes are in the port's in-flight register,
  // not the buffer — identical to the copy-chain behavior).
  const Bytes wire = MakePacket(0, kMss).WireSize();
  DropTailEcnQueue q(2 * wire, /*ecn_threshold=*/wire);
  ASSERT_TRUE(q.Enqueue(MakePacket(1, kMss)));
  ASSERT_TRUE(q.Enqueue(MakePacket(2, kMss)));
  EXPECT_FALSE(q.Enqueue(MakePacket(3, kMss)));  // full
  EXPECT_EQ(q.stats().dropped, 1u);
  q.BeginService();
  ASSERT_TRUE(q.Enqueue(MakePacket(4, kMss)));  // head left the buffer
  // Occupancy at admission was wire (uid 2 only) -> above K: marked.
  EXPECT_EQ(q.stats().marked, 2u);  // uid 2 (occ=2*wire) and uid 4
  q.FinishServiceToWire();
  q.PopPropagating();
  EXPECT_EQ(q.PacketCount(), 2u);
  EXPECT_EQ(q.ComputeOccupancyBytes(), q.OccupancyBytes());
}

TEST(StagedQueue, CheckpointRoundTripsStagedRegions) {
  DropTailEcnQueue q(1 << 20, 0);
  ASSERT_TRUE(q.Enqueue(MakePacket(1, kMss)));
  ASSERT_TRUE(q.Enqueue(MakePacket(2, kMss)));
  ASSERT_TRUE(q.Enqueue(MakePacket(3, kMss)));
  q.BeginService();
  q.FinishServiceToWire();
  q.BeginService();  // regions: [1 propagating | 2 serving | 3 queued]

  CheckpointWriter w;
  q.SaveState(w);
  const std::vector<std::uint8_t> blob = w.TakeBlob();

  DropTailEcnQueue restored(1 << 20, 0);
  CheckpointReader r(blob.data(), blob.size());
  restored.LoadState(r);
  EXPECT_EQ(restored.PropagatingCount(), 1u);
  EXPECT_EQ(restored.PropagatingFront().uid, 1u);
  EXPECT_EQ(restored.Serving().uid, 2u);
  EXPECT_EQ(restored.PacketCount(), 1u);
  EXPECT_EQ(restored.Front().uid, 3u);
  EXPECT_EQ(restored.OccupancyBytes(), q.OccupancyBytes());
}

// ---------------------------------------------------------------------------
// Packet layout: the burst entry must stay one cacheline, and the packed
// flag bits must behave exactly like the bools they replaced.

static_assert(sizeof(Packet) <= 64,
              "Packet must fit one cache line for the burst pipeline");
static_assert(sizeof(TcpHeader) == 40, "TcpHeader packing regressed");

TEST(PacketLayout, FlagBitsRoundTripIndependently) {
  Packet pkt;
  EXPECT_FALSE(pkt.tcp.syn || pkt.tcp.fin || pkt.tcp.ack_flag ||
               pkt.tcp.ece || pkt.tcp.cwr);
  pkt.tcp.syn = true;
  pkt.tcp.ece = true;
  EXPECT_TRUE(pkt.tcp.syn);
  EXPECT_FALSE(pkt.tcp.fin);
  EXPECT_TRUE(pkt.tcp.ece);
  EXPECT_FALSE(pkt.tcp.cwr);
  Packet copy = pkt;
  copy.tcp.syn = false;
  EXPECT_TRUE(pkt.tcp.syn);  // copies are independent
  EXPECT_TRUE(copy.tcp.ece);
  pkt.tcp.cwr = true;
  pkt.tcp.ack_flag = true;
  pkt.tcp.fin = true;
  EXPECT_TRUE(pkt.tcp.syn && pkt.tcp.fin && pkt.tcp.ack_flag &&
              pkt.tcp.ece && pkt.tcp.cwr);
}

TEST(PacketLayout, WireSizeCoversPayloadPlusHeader) {
  Packet pkt;
  pkt.payload = static_cast<std::int32_t>(kMss);
  EXPECT_EQ(pkt.WireSize(), static_cast<Bytes>(kMss) + kHeaderBytes);
  pkt.payload = 0;
  EXPECT_EQ(pkt.WireSize(), kHeaderBytes);
}

}  // namespace
}  // namespace dctcpp
