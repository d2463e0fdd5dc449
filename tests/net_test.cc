// Network substrate tests: queue (buffer + ECN marking), link timing,
// switch routing, host demux, and topology construction.
#include <gtest/gtest.h>

#include <vector>

#include "dctcpp/net/host.h"
#include "dctcpp/net/link.h"
#include "dctcpp/net/packet.h"
#include "dctcpp/net/queue.h"
#include "dctcpp/net/switch.h"
#include "dctcpp/net/topology.h"
#include "dctcpp/sim/simulator.h"

namespace dctcpp {
namespace {

using namespace time_literals;

Packet DataPacket(Bytes payload, Ecn ecn = Ecn::kEct) {
  Packet pkt;
  pkt.payload = payload;
  pkt.ecn = ecn;
  return pkt;
}

// ---------------------------------------------------------------------------
// DropTailEcnQueue

TEST(QueueTest, FifoOrder) {
  DropTailEcnQueue q(100000, 0);
  for (std::uint32_t i = 0; i < 5; ++i) {
    Packet pkt = DataPacket(100);
    pkt.tcp.seq = i;
    ASSERT_TRUE(q.Enqueue(pkt));
  }
  for (std::uint32_t i = 0; i < 5; ++i) {
    auto pkt = q.Dequeue();
    ASSERT_TRUE(pkt.has_value());
    EXPECT_EQ(pkt->tcp.seq, i);
  }
  EXPECT_FALSE(q.Dequeue().has_value());
}

TEST(QueueTest, DropsWhenFull) {
  // Capacity for exactly two 154-byte packets (100 payload + 54 header).
  DropTailEcnQueue q(2 * 154, 0);
  EXPECT_TRUE(q.Enqueue(DataPacket(100)));
  EXPECT_TRUE(q.Enqueue(DataPacket(100)));
  EXPECT_FALSE(q.Enqueue(DataPacket(100)));
  EXPECT_EQ(q.stats().dropped, 1u);
  EXPECT_EQ(q.stats().enqueued, 2u);
}

TEST(QueueTest, OccupancyAccounting) {
  DropTailEcnQueue q(100000, 0);
  q.Enqueue(DataPacket(1460));
  q.Enqueue(DataPacket(500));
  EXPECT_EQ(q.OccupancyBytes(), 1460 + 500 + 2 * kHeaderBytes);
  q.Dequeue();
  EXPECT_EQ(q.OccupancyBytes(), 500 + kHeaderBytes);
  q.Dequeue();
  EXPECT_EQ(q.OccupancyBytes(), 0);
  EXPECT_TRUE(q.Empty());
}

TEST(QueueTest, MarksEctAboveThreshold) {
  DropTailEcnQueue q(128 * 1024, 1000);
  ASSERT_TRUE(q.Enqueue(DataPacket(800)));  // 854 < 1000: unmarked
  ASSERT_TRUE(q.Enqueue(DataPacket(800)));  // 1708 > 1000: marked
  EXPECT_EQ(q.Dequeue()->ecn, Ecn::kEct);
  EXPECT_EQ(q.Dequeue()->ecn, Ecn::kCe);
  EXPECT_EQ(q.stats().marked, 1u);
}

TEST(QueueTest, NeverMarksNonEct) {
  DropTailEcnQueue q(128 * 1024, 100);
  q.Enqueue(DataPacket(1460, Ecn::kNotEct));
  q.Enqueue(DataPacket(1460, Ecn::kNotEct));
  EXPECT_EQ(q.Dequeue()->ecn, Ecn::kNotEct);
  EXPECT_EQ(q.Dequeue()->ecn, Ecn::kNotEct);
  EXPECT_EQ(q.stats().marked, 0u);
}

TEST(QueueTest, ThresholdZeroDisablesMarking) {
  DropTailEcnQueue q(128 * 1024, 0);
  for (int i = 0; i < 50; ++i) q.Enqueue(DataPacket(1460));
  EXPECT_EQ(q.stats().marked, 0u);
}

TEST(QueueTest, MaxOccupancyHighWaterMark) {
  DropTailEcnQueue q(100000, 0);
  q.Enqueue(DataPacket(1000));
  q.Enqueue(DataPacket(1000));
  q.Dequeue();
  q.Dequeue();
  EXPECT_EQ(q.stats().max_occupancy, 2 * (1000 + kHeaderBytes));
  EXPECT_EQ(q.OccupancyBytes(), 0);
}

TEST(QueueTest, CePreservedThroughQueue) {
  DropTailEcnQueue q(128 * 1024, 0);
  q.Enqueue(DataPacket(100, Ecn::kCe));
  EXPECT_EQ(q.Dequeue()->ecn, Ecn::kCe);
}

// ---------------------------------------------------------------------------
// EgressPort / link timing

class CollectingSink : public PacketSink {
 public:
  explicit CollectingSink(Simulator& sim) : sim_(sim) {}
  void Deliver(const Packet& pkt) override {
    arrivals.emplace_back(sim_.Now(), pkt);
  }
  std::vector<std::pair<Tick, Packet>> arrivals;

 private:
  Simulator& sim_;
};

TEST(LinkTest, SerializationPlusPropagation) {
  Simulator sim;
  CollectingSink sink(sim);
  LinkConfig config;
  config.rate = DataRate::GigabitsPerSec(1);
  config.propagation_delay = 10_us;
  EgressPort port(sim, config, sink);
  // 1196-byte payload -> 1250 bytes wire = 10 us serialization at 1 Gbps.
  port.Send(DataPacket(1250 - kHeaderBytes));
  sim.Run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(sink.arrivals[0].first, 20_us);
}

TEST(LinkTest, BackToBackPacketsSerializeSequentially) {
  Simulator sim;
  CollectingSink sink(sim);
  LinkConfig config;
  config.rate = DataRate::GigabitsPerSec(1);
  config.propagation_delay = 0;
  EgressPort port(sim, config, sink);
  const Bytes payload = 1250 - kHeaderBytes;
  port.Send(DataPacket(payload));
  port.Send(DataPacket(payload));
  sim.Run();
  ASSERT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(sink.arrivals[0].first, 10_us);
  EXPECT_EQ(sink.arrivals[1].first, 20_us);
}

TEST(LinkTest, DropsBeyondBuffer) {
  Simulator sim;
  CollectingSink sink(sim);
  LinkConfig config;
  config.buffer_bytes = 3 * 1514;
  EgressPort port(sim, config, sink);
  for (int i = 0; i < 10; ++i) port.Send(DataPacket(1460));
  sim.Run();
  // One serializing immediately plus three buffered.
  EXPECT_EQ(sink.arrivals.size(), 4u);
  EXPECT_EQ(port.queue().stats().dropped, 6u);
}

TEST(LinkTest, BacklogIncludesWire) {
  Simulator sim;
  CollectingSink sink(sim);
  EgressPort port(sim, LinkConfig{}, sink);
  port.Send(DataPacket(1460));
  port.Send(DataPacket(1460));
  // First packet on the wire, second queued.
  EXPECT_TRUE(port.Transmitting());
  EXPECT_EQ(port.BacklogBytes(), 2 * 1514);
  EXPECT_EQ(port.queue().OccupancyBytes(), 1514);
  sim.Run();
  EXPECT_EQ(port.BacklogBytes(), 0);
}

// ---------------------------------------------------------------------------
// Switch

TEST(SwitchTest, RoutesByDestination) {
  Simulator sim;
  Switch sw(sim, 0, "sw");
  CollectingSink a(sim), b(sim);
  const int pa = sw.AddPort(LinkConfig{}, a);
  const int pb = sw.AddPort(LinkConfig{}, b);
  sw.SetRoute(10, pa);
  sw.SetRoute(20, pb);
  Packet to_a = DataPacket(100);
  to_a.dst = 10;
  Packet to_b = DataPacket(100);
  to_b.dst = 20;
  sw.Deliver(to_a);
  sw.Deliver(to_b);
  sim.Run();
  EXPECT_EQ(a.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(sw.RouteTo(10), pa);
  EXPECT_EQ(sw.RouteTo(99), -1);
}

// ---------------------------------------------------------------------------
// Host demux

TEST(HostTest, ConnectionBeatsListener) {
  Simulator sim;
  Host host(sim, 1, "h");
  int conn_hits = 0, listen_hits = 0;
  host.Listen(80, [&](const Packet&) { ++listen_hits; });
  host.RegisterConnection(80, /*remote=*/2, /*rport=*/1234,
                          [&](const Packet&) { ++conn_hits; });
  Packet from_conn;
  from_conn.src = 2;
  from_conn.dst = 1;
  from_conn.tcp.src_port = 1234;
  from_conn.tcp.dst_port = 80;
  host.Deliver(from_conn);
  Packet from_other = from_conn;
  from_other.tcp.src_port = 9999;  // no matching connection
  host.Deliver(from_other);
  EXPECT_EQ(conn_hits, 1);
  EXPECT_EQ(listen_hits, 1);
}

TEST(HostTest, UnmatchedPacketsCounted) {
  Simulator sim;
  Host host(sim, 1, "h");
  Packet pkt;
  pkt.src = 2;
  pkt.dst = 1;
  pkt.tcp.dst_port = 5555;
  host.Deliver(pkt);
  EXPECT_EQ(host.unmatched_packets(), 1u);
}

TEST(HostTest, UnregisterStopsDelivery) {
  Simulator sim;
  Host host(sim, 1, "h");
  int hits = 0;
  host.RegisterConnection(80, 2, 1234, [&](const Packet&) { ++hits; });
  host.UnregisterConnection(80, 2, 1234);
  Packet pkt;
  pkt.src = 2;
  pkt.dst = 1;
  pkt.tcp.src_port = 1234;
  pkt.tcp.dst_port = 80;
  host.Deliver(pkt);
  EXPECT_EQ(hits, 0);
  EXPECT_EQ(host.unmatched_packets(), 1u);
}

TEST(HostTest, EphemeralPortsAreUnique) {
  Simulator sim;
  Host host(sim, 1, "h");
  const PortNum a = host.AllocatePort();
  const PortNum b = host.AllocatePort();
  EXPECT_NE(a, b);
}

TEST(HostTest, AllocatePortSkipsLivePorts) {
  Simulator sim;
  Host host(sim, 1, "h");
  // Pin down the next two candidates; allocation must skip both.
  const PortNum first = host.AllocatePort();
  host.Listen(static_cast<PortNum>(first + 1), [](const Packet&) {});
  host.Listen(static_cast<PortNum>(first + 2), [](const Packet&) {});
  EXPECT_EQ(host.AllocatePort(), static_cast<PortNum>(first + 3));
}

// The port table holds live ports only: 60,000 registrations come and go
// (half on allocated ephemeral ports, half sharing the listener's port, as
// a server's accepted connections do), and afterwards the table holds just
// the ports still registered plus the listener. Allocation still skips
// live ports and wraps at the top of the range.
TEST(HostTest, PortTableTracksOnlyLivePorts) {
  Simulator sim;
  Host host(sim, 1, "h");
  const Host::PacketHandler handler = [](const Packet&) {};
  constexpr PortNum kListenPort = 9000;
  constexpr int kClients = 30000;
  host.Listen(kListenPort, handler);
  std::vector<PortNum> client_ports;
  for (int i = 0; i < kClients; ++i) {
    const PortNum port = host.AllocatePort();
    host.RegisterConnection(port, /*remote=*/2, kListenPort, handler);
    client_ports.push_back(port);
  }
  for (int i = 0; i < kClients; ++i) {
    host.RegisterConnection(kListenPort, /*remote=*/3 + i, 5000, handler);
  }
  EXPECT_EQ(host.LivePortCount(), static_cast<std::size_t>(kClients) + 1);

  // Keep every 1000th client (ports 10000, 11000, ...); drop the rest and
  // every server-side connection.
  for (int i = 0; i < kClients; ++i) {
    if (i % 1000 != 0) host.UnregisterConnection(client_ports[i], 2, kListenPort);
    host.UnregisterConnection(kListenPort, 3 + i, 5000);
  }
  EXPECT_EQ(host.LivePortCount(),
            static_cast<std::size_t>(kClients / 1000) + 1);
  EXPECT_GT(host.PortTableBytes(), 0u);

  // Wrap: 65533 is free, 65534 is live, then the range restarts at 10000,
  // which is still live, so the next free port is 10001.
  host.RegisterConnection(65534, 2, kListenPort, handler);
  host.SetNextEphemeralForTest(65533);
  EXPECT_EQ(host.AllocatePort(), 65533);
  EXPECT_EQ(host.AllocatePort(), 10001);
  EXPECT_EQ(host.AllocatePort(), 10002);
  EXPECT_EQ(host.LivePortCount(),
            static_cast<std::size_t>(kClients / 1000) + 2);
}

TEST(HostDeathTest, AllocatePortFailsLoudlyWhenRangeExhausted) {
  Simulator sim;
  Host host(sim, 1, "h");
  // Register a listener on every ephemeral port: [10000, 65535) fully
  // live. The next allocation has nowhere to go and must abort with a
  // diagnosable message, not loop or hand out a duplicate.
  for (int port = 10000; port < 65535; ++port) {
    host.Listen(static_cast<PortNum>(port), [](const Packet&) {});
  }
  EXPECT_DEATH_IF_SUPPORTED(host.AllocatePort(),
                            "ephemeral port range .*exhausted");
}

// ---------------------------------------------------------------------------
// Topology

TEST(TopologyTest, TwoTierShape) {
  Simulator sim;
  Network net(sim);
  const TwoTierTopology topo = TwoTierTopology::Build(net, 9, LinkConfig{});
  EXPECT_EQ(topo.workers.size(), 9u);
  ASSERT_NE(topo.aggregator, nullptr);
  ASSERT_NE(topo.root, nullptr);
  ASSERT_NE(topo.switch1, nullptr);
  // 10 hosts at <=3 per leaf need 4 leaves.
  EXPECT_EQ(topo.leaves.size(), 4u);
  EXPECT_EQ(net.HostCount(), 10u);
  EXPECT_EQ(net.SwitchCount(), 5u);
  ASSERT_NE(topo.bottleneck, nullptr);
}

TEST(TopologyTest, LeafPortBudgetRespected) {
  Simulator sim;
  Network net(sim);
  const TwoTierTopology topo =
      TwoTierTopology::Build(net, 9, LinkConfig{}, /*hosts_per_leaf=*/3);
  for (Switch* leaf : topo.leaves) {
    // Up to 3 host ports + 1 uplink = the testbed's four-port switches.
    EXPECT_LE(leaf->PortCount(), 4);
  }
}

TEST(TopologyTest, AllPairsReachable) {
  Simulator sim;
  Network net(sim);
  TwoTierTopology topo = TwoTierTopology::Build(net, 9, LinkConfig{});
  // Deliver a packet between every ordered host pair through the fabric
  // and count arrivals via the hosts' unmatched counters.
  std::vector<Host*> hosts = topo.workers;
  hosts.push_back(topo.aggregator);
  for (Host* src : hosts) {
    for (Host* dst : hosts) {
      if (src == dst) continue;
      Packet pkt = DataPacket(100);
      pkt.src = src->id();
      pkt.dst = dst->id();
      src->Send(pkt);
    }
  }
  sim.Run();
  std::uint64_t delivered = 0;
  for (Host* h : hosts) delivered += h->unmatched_packets();
  EXPECT_EQ(delivered, hosts.size() * (hosts.size() - 1));
}

TEST(TopologyTest, NicConfigDeepAndUnmarked) {
  const LinkConfig nic = Network::NicConfig(LinkConfig{});
  EXPECT_EQ(nic.ecn_threshold, 0);
  EXPECT_GT(nic.buffer_bytes, 1 * kMiB);
}

TEST(TopologyTest, BottleneckFeedsAggregator) {
  Simulator sim;
  Network net(sim);
  TwoTierTopology topo = TwoTierTopology::Build(net, 4, LinkConfig{});
  // A packet from any worker to the aggregator raises the bottleneck
  // port's enqueue counter.
  Packet pkt = DataPacket(100);
  pkt.src = topo.workers[0]->id();
  pkt.dst = topo.aggregator->id();
  topo.workers[0]->Send(pkt);
  sim.Run();
  EXPECT_EQ(topo.bottleneck->queue().stats().enqueued, 1u);
}

}  // namespace
}  // namespace dctcpp
