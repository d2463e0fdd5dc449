// Flat flow table: key packing, open-addressing behaviour under churn, a
// randomized differential against the std::map reference table, and the
// host-level demux decision tree (including the listener-fallback and
// unmatched paths the incast workload exercises).
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_set>
#include <vector>

#include "dctcpp/net/host.h"
#include "dctcpp/net/packet.h"
#include "dctcpp/sim/simulator.h"
#include "dctcpp/util/flow_table.h"
#include "reference/map_flow_table.h"

namespace dctcpp {
namespace {

TEST(PackFlowKeyTest, EachFieldOccupiesDistinctBits) {
  const std::uint64_t base = PackFlowKey(5000, 7, 9000);
  EXPECT_NE(base, PackFlowKey(5001, 7, 9000));
  EXPECT_NE(base, PackFlowKey(5000, 8, 9000));
  EXPECT_NE(base, PackFlowKey(5000, 7, 9001));
  // A change in one field can never alias a change in another: the three
  // fields occupy disjoint bit ranges.
  EXPECT_NE(PackFlowKey(1, 0, 0), PackFlowKey(0, 1, 0));
  EXPECT_NE(PackFlowKey(0, 1, 0), PackFlowKey(0, 0, 1));
  EXPECT_NE(PackFlowKey(1, 0, 0), PackFlowKey(0, 0, 1));
}

TEST(PackFlowKeyTest, ExtremeValuesRoundTripUniquely) {
  std::unordered_set<std::uint64_t> keys;
  for (std::uint16_t lp : {std::uint16_t{0}, std::uint16_t{65535}}) {
    for (NodeId remote : {NodeId{0}, NodeId{1}, NodeId{0x7fffffff}}) {
      for (std::uint16_t rp : {std::uint16_t{0}, std::uint16_t{65535}}) {
        EXPECT_TRUE(keys.insert(PackFlowKey(lp, remote, rp)).second);
      }
    }
  }
  EXPECT_EQ(keys.size(), 12u);
}

TEST(FlatFlowTableTest, InsertFindEraseBasics) {
  FlatFlowTable<int> table;
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.Find(42), nullptr);
  table.Insert(42, 1);
  table.Insert(0, 2);  // key 0 must be a legal key, not a sentinel
  ASSERT_NE(table.Find(42), nullptr);
  EXPECT_EQ(*table.Find(42), 1);
  ASSERT_NE(table.Find(0), nullptr);
  EXPECT_EQ(*table.Find(0), 2);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_TRUE(table.Contains(42));
  EXPECT_FALSE(table.Contains(43));
  EXPECT_TRUE(table.Erase(42));
  EXPECT_FALSE(table.Erase(42));
  EXPECT_EQ(table.Find(42), nullptr);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlatFlowTableTest, SurvivesGrowthAcrossRehash) {
  FlatFlowTable<std::uint64_t> table;
  for (std::uint64_t i = 0; i < 5000; ++i) table.Insert(i * 977 + 3, i);
  EXPECT_EQ(table.size(), 5000u);
  for (std::uint64_t i = 0; i < 5000; ++i) {
    const std::uint64_t* v = table.Find(i * 977 + 3);
    ASSERT_NE(v, nullptr) << i;
    EXPECT_EQ(*v, i);
  }
}

TEST(FlatFlowTableTest, TombstoneChurnDoesNotGrowUnboundedly) {
  FlatFlowTable<int> table;
  // Steady-state churn at constant live size: capacity must stabilize
  // because erase leaves tombstones that rehash reclaims.
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 64; ++i) {
      table.Insert(std::uint64_t(round) << 16 | std::uint64_t(i), i);
    }
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(table.Erase(std::uint64_t(round) << 16 | std::uint64_t(i)));
    }
  }
  EXPECT_EQ(table.size(), 0u);
  EXPECT_LE(table.capacity(), 1024u);
}

TEST(FlowTableDifferentialTest, TwentyThousandRandomOpsMatchMapOracle) {
  FlatFlowTable<std::uint32_t> flat;
  MapFlowTable<std::uint32_t> oracle;
  // A small key universe forces heavy collision/tombstone traffic, and a
  // mix of realistic flow keys exercises the high bits the hash must mix.
  std::mt19937_64 rng(20260805);
  std::vector<std::uint64_t> universe;
  for (int i = 0; i < 512; ++i) {
    universe.push_back(PackFlowKey(
        static_cast<std::uint16_t>(10000 + rng() % 50000),
        static_cast<NodeId>(rng() % 64),
        static_cast<std::uint16_t>(rng() % 65536)));
  }
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t key = universe[rng() % universe.size()];
    switch (rng() % 4) {
      case 0: {  // insert if absent (Insert requires a fresh key)
        const bool present = oracle.Contains(key);
        ASSERT_EQ(flat.Contains(key), present) << "op " << op;
        if (!present) {
          const std::uint32_t value = static_cast<std::uint32_t>(rng());
          flat.Insert(key, value);
          oracle.Insert(key, value);
        }
        break;
      }
      case 1:
        ASSERT_EQ(flat.Erase(key), oracle.Erase(key)) << "op " << op;
        break;
      default: {  // lookup-heavy, like the demux path
        const std::uint32_t* fv = flat.Find(key);
        const std::uint32_t* ov = oracle.Find(key);
        ASSERT_EQ(fv != nullptr, ov != nullptr) << "op " << op;
        if (fv != nullptr) {
          ASSERT_EQ(*fv, *ov) << "op " << op;
        }
        break;
      }
    }
    ASSERT_EQ(flat.size(), oracle.size()) << "op " << op;
  }
  // Final sweep: every key in the universe agrees.
  for (const std::uint64_t key : universe) {
    const std::uint32_t* fv = flat.Find(key);
    const std::uint32_t* ov = oracle.Find(key);
    ASSERT_EQ(fv != nullptr, ov != nullptr);
    if (fv != nullptr) {
      EXPECT_EQ(*fv, *ov);
    }
  }
}

// ---------------------------------------------------------------------------
// Host demux

struct DemuxCounts {
  std::uint64_t conn = 0;
  std::uint64_t listener = 0;
  std::uint64_t unmatched = 0;
};

Packet To(NodeId dst, PortNum dst_port, NodeId src, PortNum src_port) {
  Packet pkt;
  pkt.src = src;
  pkt.dst = dst;
  pkt.tcp.src_port = src_port;
  pkt.tcp.dst_port = dst_port;
  return pkt;
}

/// Drives one Host through the full demux decision tree: established
/// match, listener fallback, connection-over-listener precedence, the
/// unmatched counter, and re-demux after unregistration.
DemuxCounts RunDemuxScenario() {
  DemuxCounts counts;
  Simulator sim(1);
  Host host(sim, /*id=*/1, "h");

  host.RegisterConnection(5000, /*remote=*/2, 7000,
                          [p = &counts.conn](const Packet&) { ++*p; });
  host.Listen(80, [p = &counts.listener](const Packet&) { ++*p; });
  host.RegisterConnection(80, /*remote=*/3, 9000,
                          [p = &counts.conn](const Packet&) { ++*p; });

  host.Deliver(To(1, 5000, 2, 7000));  // established match
  host.Deliver(To(1, 5000, 2, 7001));  // right port, wrong tuple, no listener
  host.Deliver(To(1, 80, 9, 1234));    // listener fallback (a SYN)
  host.Deliver(To(1, 80, 3, 9000));    // connection beats listener
  host.Deliver(To(1, 443, 9, 1234));   // nothing registered at all

  host.UnregisterConnection(80, 3, 9000);
  host.Deliver(To(1, 80, 3, 9000));  // now falls back to the listener

  host.UnregisterConnection(5000, 2, 7000);
  host.Deliver(To(1, 5000, 2, 7000));  // now unmatched

  host.StopListening(80);
  host.Deliver(To(1, 80, 9, 1234));  // listener gone: unmatched

  counts.unmatched = host.unmatched_packets();
  return counts;
}

TEST(HostDemuxTest, FollowsDecisionTree) {
  const DemuxCounts counts = RunDemuxScenario();
  // The decision tree worked out by hand.
  EXPECT_EQ(counts.conn, 2u);
  EXPECT_EQ(counts.listener, 2u);
  EXPECT_EQ(counts.unmatched, 4u);
}

// ---------------------------------------------------------------------------
// Ephemeral port allocator

TEST(HostPortAllocatorTest, WrapsRangeAndSkipsLivePorts) {
  Simulator sim(1);
  Host host(sim, /*id=*/1, "h");

  // Pin two ports mid-range; the allocator must step over both on every
  // lap forever.
  host.Listen(12345, [](const Packet&) {});
  host.RegisterConnection(40000, /*remote=*/2, 80, [](const Packet&) {});

  const int range = 65535 - 10000;
  PortNum prev = 0;
  int wraps = 0;
  for (int i = 0; i < 2 * range + 100; ++i) {
    const PortNum p = host.AllocatePort();
    ASSERT_GE(p, 10000) << "allocation " << i;
    ASSERT_LT(p, 65535) << "allocation " << i;
    ASSERT_NE(p, 12345) << "allocation " << i;
    ASSERT_NE(p, 40000) << "allocation " << i;
    if (i > 0 && p < prev) ++wraps;
    prev = p;
  }
  // > 2 full laps of the 55,535-port range: wrapped at least twice and
  // never aborted, so a many-round incast can recycle ports indefinitely.
  EXPECT_GE(wraps, 2);
}

TEST(HostPortAllocatorTest, ReusesPortOnceFreed) {
  Simulator sim(1);
  Host host(sim, /*id=*/1, "h");
  const PortNum first = host.AllocatePort();
  host.RegisterConnection(first, 2, 80, [](const Packet&) {});
  // While registered, a full lap never returns it...
  for (int i = 0; i < 65535 - 10000; ++i) {
    ASSERT_NE(host.AllocatePort(), first);
  }
  // ...and once unregistered, the next lap hands it out again.
  host.UnregisterConnection(first, 2, 80);
  bool seen = false;
  for (int i = 0; i < 65535 - 10000 && !seen; ++i) {
    seen = host.AllocatePort() == first;
  }
  EXPECT_TRUE(seen);
}

}  // namespace
}  // namespace dctcpp
