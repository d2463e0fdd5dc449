// Fabric topology subsystem: plan arithmetic, built structure, compact
// routing (intervals + ECMP + dragonfly group routes), static all-pairs
// reachability by route walking, ECMP determinism across engines and
// pools, partitioner strategies, and channel pruning (both the win and
// the always-on violation detection for a wrong mask).
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "dctcpp/net/fabric.h"
#include "dctcpp/net/parallel.h"
#include "dctcpp/net/partition.h"
#include "dctcpp/util/thread_pool.h"
#include "dctcpp/workload/apps.h"
#include "dctcpp/workload/connection_matrix.h"

namespace dctcpp {
namespace {

// --- plan arithmetic -------------------------------------------------------

TEST(FatTreePlanTest, CanonicalK4Counts) {
  FatTreeFabric f(FatTreeConfig{});  // k = 4, hosts_per_edge = 2
  EXPECT_EQ(f.num_hosts(), 16);
  EXPECT_EQ(f.num_switches(), 20);  // 8 edge + 8 agg + 4 core
  EXPECT_EQ(f.num_pods(), 4);
  EXPECT_EQ(f.hosts_per_pod(), 4);
  // Hosts pod-major, switches per pod then cores.
  EXPECT_EQ(f.HostPlanId(0, 0, 0), 0);
  EXPECT_EQ(f.HostPlanId(3, 1, 1), 15);
  EXPECT_EQ(f.EdgePlanId(0, 0), 16);
  EXPECT_EQ(f.AggPlanId(0, 0), 18);
  EXPECT_EQ(f.CorePlanId(0), 32);
  EXPECT_EQ(f.pod_of(0), 0);
  EXPECT_EQ(f.pod_of(15), 3);
  EXPECT_EQ(f.pod_of(f.EdgePlanId(2, 1)), 2);
  EXPECT_EQ(f.pod_of(f.CorePlanId(3)), -1);  // cores are pod-less
  EXPECT_EQ(f.EdgeOfHost(5), f.EdgePlanId(1, 0));
}

TEST(FatTreePlanTest, OversubscribedEdgeScalesHostCount) {
  FatTreeConfig cfg;
  cfg.k = 8;
  cfg.hosts_per_edge = 10;
  FatTreeFabric f(cfg);
  EXPECT_EQ(f.num_hosts(), 8 * 4 * 10);
  EXPECT_EQ(f.num_switches(), 64 + 16);
}

TEST(DragonflyPlanTest, MaximalConfigCounts) {
  DragonflyConfig cfg;
  cfg.routers_per_group = 2;
  cfg.hosts_per_router = 2;
  cfg.global_links_per_router = 1;
  DragonflyFabric f(cfg);  // g = a*h + 1 = 3
  EXPECT_EQ(f.groups(), 3);
  EXPECT_EQ(f.num_hosts(), 12);
  EXPECT_EQ(f.num_switches(), 6);
  EXPECT_EQ(f.pod_of(5), 1);
  EXPECT_EQ(f.pod_of(f.RouterPlanId(2, 1)), 2);
  // Canonical slotting: every (from, to) gateway slot is a valid router
  // and the global-link endpoints agree pairwise.
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      if (a == b) continue;
      EXPECT_GE(f.GatewayRouter(a, b), 0);
      EXPECT_LT(f.GatewayRouter(a, b), 2);
    }
  }
}

// --- built structure and static reachability -------------------------------

/// Follows RoutePacket hop by hop from src's first switch; returns the
/// number of switch hops, or -1 if the walk failed to reach dst.
int WalkRoute(Fabric& fabric, int first_switch_plan, const Packet& pkt,
              int max_hops) {
  PacketSink* at = &fabric.switch_at(first_switch_plan -
                                     fabric.num_hosts());
  for (int hops = 1; hops <= max_hops; ++hops) {
    auto* sw = dynamic_cast<Switch*>(at);
    if (sw == nullptr) return -1;  // landed on a host early
    // Valiant tagging happens in Deliver, not RoutePacket; emulate it.
    Packet p = pkt;
    const int out = sw->RoutePacket(p);
    if (out < 0) return -1;
    at = &sw->port(out).peer();
    if (at == &fabric.host(p.dst)) return hops;
  }
  return -1;
}

Packet MakeFlowPacket(NodeId src, NodeId dst, PortNum sport, PortNum dport) {
  Packet pkt;
  pkt.src = src;
  pkt.dst = dst;
  pkt.tcp.src_port = sport;
  pkt.tcp.dst_port = dport;
  return pkt;
}

TEST(FatTreeBuildTest, StructureAndAllPairsReachability) {
  FatTreeFabric fabric(FatTreeConfig{});
  Simulator sim(1);
  Network net(sim);
  fabric.Build(net, {});
  ASSERT_EQ(net.HostCount(), 16u);
  ASSERT_EQ(net.SwitchCount(), 20u);

  const int k = fabric.k();
  int edge_agg_ports = 0;
  int core_ports = 0;
  for (int s = 0; s < fabric.num_switches(); ++s) {
    Switch& sw = fabric.switch_at(s);
    const int plan = fabric.num_hosts() + s;
    if (plan >= fabric.CorePlanId(0)) {
      EXPECT_EQ(sw.PortCount(), k);  // one port per pod
      core_ports += sw.PortCount();
    } else {
      edge_agg_ports += sw.PortCount();
    }
  }
  // Bisection structure: (k/2)^2 cores x k ports = k^3/4 core-agg link
  // endpoints — the full-bisection core tier of the k-ary fat-tree.
  EXPECT_EQ(core_ports, k * k * k / 4);
  // Edge+agg: edges have hpe host + k/2 up; aggs k/2 down + k/2 up.
  EXPECT_EQ(edge_agg_ports, k * (k / 2) * (2 + k / 2) + k * (k / 2) * k);

  // Every ordered host pair is reachable in <= 5 switch hops
  // (edge-agg-core-agg-edge), for several flow port choices.
  for (int src = 0; src < fabric.num_hosts(); ++src) {
    for (int dst = 0; dst < fabric.num_hosts(); ++dst) {
      if (src == dst) continue;
      for (PortNum sport : {PortNum{10000}, PortNum{10007}}) {
        const Packet pkt = MakeFlowPacket(src, dst, sport, 7000);
        EXPECT_GT(WalkRoute(fabric, fabric.EdgeOfHost(src), pkt, 5), 0)
            << src << " -> " << dst;
      }
    }
  }
}

TEST(FatTreeBuildTest, EcmpIsDeterministicAndSpreads) {
  // Two independently built fabrics (fresh Network/Simulator) must make
  // identical per-flow choices: the hash depends only on stable ids.
  FatTreeConfig cfg;
  cfg.k = 8;
  FatTreeFabric fa(cfg);
  FatTreeFabric fb(cfg);
  Simulator sa(1), sb(2);  // different seeds: routing must not care
  Network na(sa), nb(sb);
  fa.Build(na, {});
  fb.Build(nb, {});

  std::set<int> ports_used;
  for (int flow = 0; flow < 64; ++flow) {
    const Packet pkt = MakeFlowPacket(
        0, fa.num_hosts() - 1, static_cast<PortNum>(10000 + flow), 7000);
    Switch& ea = fa.switch_at(fa.EdgeOfHost(0) - fa.num_hosts());
    Switch& eb = fb.switch_at(fb.EdgeOfHost(0) - fb.num_hosts());
    const int pa = ea.RoutePacket(pkt);
    EXPECT_EQ(pa, eb.RoutePacket(pkt));
    EXPECT_EQ(pa, ea.RoutePacket(pkt));  // repeated call: same member
    ports_used.insert(pa);
  }
  // 64 flows over k/2 = 4 uplinks: all members should be exercised.
  EXPECT_EQ(ports_used.size(), 4u);
}

TEST(DragonflyBuildTest, StructureAndAllPairsReachability) {
  DragonflyConfig cfg;
  cfg.routers_per_group = 2;
  cfg.hosts_per_router = 2;
  cfg.global_links_per_router = 1;
  DragonflyFabric fabric(cfg);  // g = 3
  Simulator sim(1);
  Network net(sim);
  fabric.Build(net, {});
  for (int r = 0; r < fabric.num_switches(); ++r) {
    // p hosts + (a-1) local + h global = 2 + 1 + 1.
    EXPECT_EQ(fabric.switch_at(r).PortCount(), 4);
  }
  // Minimal routing: local-global-local worst case = 4 router hops.
  for (int src = 0; src < fabric.num_hosts(); ++src) {
    for (int dst = 0; dst < fabric.num_hosts(); ++dst) {
      if (src == dst) continue;
      const Packet pkt = MakeFlowPacket(src, dst, 10001, 7000);
      EXPECT_GT(WalkRoute(fabric, fabric.RouterOfHost(src), pkt, 4), 0)
          << src << " -> " << dst;
    }
  }
}

TEST(DragonflyBuildTest, ValiantDetourReachesEveryPair) {
  DragonflyConfig cfg;
  cfg.routers_per_group = 4;
  cfg.hosts_per_router = 1;
  cfg.global_links_per_router = 2;
  cfg.valiant = true;
  DragonflyFabric fabric(cfg);  // g = 9, 36 hosts
  Simulator sim(1);
  Network net(sim);
  fabric.Build(net, {});
  // Walk with every possible intermediate-group tag: the detour phase
  // must still terminate at dst within local-global-local twice + slack.
  for (int src = 0; src < fabric.num_hosts(); src += 5) {
    for (int dst = 0; dst < fabric.num_hosts(); dst += 3) {
      if (src == dst) continue;
      for (std::int16_t tag = 0; tag < 9; ++tag) {
        Packet pkt = MakeFlowPacket(src, dst, 10002, 7000);
        pkt.valiant_group = tag;
        EXPECT_GT(WalkRoute(fabric, fabric.RouterOfHost(src), pkt, 8), 0)
            << src << " -> " << dst << " via " << tag;
      }
    }
  }
}

// --- partitioner -----------------------------------------------------------

TEST(PartitionerTest, PodStrategyKeepsPodsWholeAndBalanced) {
  FatTreeConfig cfg;
  cfg.k = 8;
  FatTreeFabric fabric(cfg);
  for (int shards : {2, 4, 8}) {
    const auto shard_of = ShardPartitioner::Assign(
        fabric, shards, PartitionStrategy::kPod, {}, 1);
    std::vector<int> pod_shard(static_cast<std::size_t>(fabric.num_pods()),
                               -1);
    std::vector<int> hosts_per_shard(static_cast<std::size_t>(shards), 0);
    for (int n = 0; n < fabric.num_nodes(); ++n) {
      ASSERT_GE(shard_of[static_cast<std::size_t>(n)], 0);
      ASSERT_LT(shard_of[static_cast<std::size_t>(n)], shards);
      const int pod = fabric.pod_of(n);
      if (pod < 0) continue;
      int& ps = pod_shard[static_cast<std::size_t>(pod)];
      if (ps < 0) ps = shard_of[static_cast<std::size_t>(n)];
      EXPECT_EQ(ps, shard_of[static_cast<std::size_t>(n)]);
      if (n < fabric.num_hosts()) {
        ++hosts_per_shard[static_cast<std::size_t>(
            shard_of[static_cast<std::size_t>(n)])];
      }
    }
    const int expect = fabric.num_hosts() / shards;
    for (int s = 0; s < shards; ++s) {
      EXPECT_EQ(hosts_per_shard[static_cast<std::size_t>(s)], expect);
    }
  }
}

TEST(PartitionerTest, RandomStrategySplitsPods) {
  FatTreeFabric fabric(FatTreeConfig{});
  const auto shard_of = ShardPartitioner::Assign(
      fabric, 4, PartitionStrategy::kRandom, {}, 42);
  // At least one pod's hosts land on more than one shard (that is the
  // point of the baseline), and the assignment is seed-deterministic.
  bool split = false;
  for (int p = 0; p < fabric.num_pods() && !split; ++p) {
    const int first = shard_of[static_cast<std::size_t>(
        fabric.HostPlanId(p, 0, 0))];
    for (int e = 0; e < fabric.k() / 2; ++e) {
      for (int s = 0; s < fabric.hosts_per_edge(); ++s) {
        if (shard_of[static_cast<std::size_t>(fabric.HostPlanId(p, e, s))] !=
            first) {
          split = true;
        }
      }
    }
  }
  EXPECT_TRUE(split);
  EXPECT_EQ(shard_of, ShardPartitioner::Assign(
                          fabric, 4, PartitionStrategy::kRandom, {}, 42));
}

TEST(PartitionerTest, MinCutGroupsCoupledPods) {
  // Demand couples pods (0, 2) and (1, 3): the contiguous kPod blocks
  // {0,1} | {2,3} cut everything, the greedy min-cut must cut nothing.
  FatTreeFabric fabric(FatTreeConfig{});  // k = 4: pods 0..3
  std::vector<FlowDemand> demand;
  const int hpp = fabric.hosts_per_pod();
  demand.push_back({0 * hpp, 2 * hpp, 100.0});
  demand.push_back({2 * hpp + 1, 0 * hpp + 1, 100.0});
  demand.push_back({1 * hpp, 3 * hpp, 100.0});
  demand.push_back({3 * hpp + 1, 1 * hpp + 1, 100.0});
  const auto pods = ShardPartitioner::MinCutPods(fabric, 2, demand);
  EXPECT_EQ(pods[0], pods[2]);
  EXPECT_EQ(pods[1], pods[3]);
  EXPECT_NE(pods[0], pods[1]);
}

TEST(PartitionerTest, MinCutWithoutDemandIsBalanced) {
  FatTreeConfig cfg;
  cfg.k = 8;
  FatTreeFabric fabric(cfg);
  const auto pods = ShardPartitioner::MinCutPods(fabric, 4, {});
  std::vector<int> load(4, 0);
  for (int p = 0; p < fabric.num_pods(); ++p) {
    ++load[static_cast<std::size_t>(pods[static_cast<std::size_t>(p)])];
  }
  for (int s = 0; s < 4; ++s) EXPECT_EQ(load[static_cast<std::size_t>(s)], 2);
}

// --- workload determinism across shards, pools, strategies, modes ----------

FabricRunConfig SmallFatTreeConfig(TrafficPattern pattern) {
  FabricRunConfig config;
  config.topo = FabricRunConfig::Topo::kFatTree;
  config.fat_tree.k = 4;
  config.pattern = pattern;
  config.bytes_per_flow = 12 * kKiB;
  config.row_size = 4;  // = hosts_per_pod at k = 4: rows align with pods
  config.fan_in = 2;
  config.seed = 7;
  return config;
}

TEST(FabricWorkloadTest, BitIdenticalAcrossShardsStrategiesAndPools) {
  const FabricRunConfig base = SmallFatTreeConfig(TrafficPattern::kPermutation);
  std::uint64_t expected = 0;
  bool have_expected = false;
  for (const PartitionStrategy strategy :
       {PartitionStrategy::kRandom, PartitionStrategy::kPod,
        PartitionStrategy::kMinCut}) {
    for (const int shards : {1, 2, 4, 8}) {
      FabricRunConfig config = base;
      config.shards = shards;
      config.strategy = strategy;
      const FabricRunResult r = RunFabricWorkload(config);
      EXPECT_EQ(r.invariant_violations, 0u) << ToString(strategy) << shards;
      EXPECT_EQ(r.flows_completed, r.flows);
      if (!have_expected) {
        expected = Fingerprint(r);
        have_expected = true;
      }
      EXPECT_EQ(Fingerprint(r), expected)
          << ToString(strategy) << " S=" << shards;
    }
  }
  // Pool sizes 2 and 8, and pruning off: same run.
  for (const int pool_size : {2, 8}) {
    ThreadPool pool(pool_size);
    FabricRunConfig config = base;
    config.shards = 4;
    config.shard_pool = &pool;
    const FabricRunResult r = RunFabricWorkload(config);
    EXPECT_EQ(Fingerprint(r), expected) << "pool=" << pool_size;
  }
  FabricRunConfig unpruned = base;
  unpruned.shards = 4;
  unpruned.prune_channels = false;
  EXPECT_EQ(Fingerprint(RunFabricWorkload(unpruned)), expected);
}

TEST(FabricWorkloadTest, DragonflyMinimalAndValiantDeterminism) {
  for (const bool valiant : {false, true}) {
    FabricRunConfig config;
    config.topo = FabricRunConfig::Topo::kDragonfly;
    config.dragonfly.routers_per_group = 2;
    config.dragonfly.hosts_per_router = 2;
    config.dragonfly.global_links_per_router = 1;  // g = 3, 12 hosts
    config.dragonfly.valiant = valiant;
    config.pattern = TrafficPattern::kAllToAll;
    config.bytes_per_flow = 4 * kKiB;
    std::uint64_t expected = 0;
    bool have_expected = false;
    for (const int shards : {1, 2, 4}) {
      FabricRunConfig c = config;
      c.shards = shards;
      const FabricRunResult r = RunFabricWorkload(c);
      EXPECT_EQ(r.invariant_violations, 0u);
      // All-to-all completing IS all-pairs reachability, live.
      EXPECT_EQ(r.flows_completed, 12 * 11);
      if (!have_expected) {
        expected = Fingerprint(r);
        have_expected = true;
      }
      EXPECT_EQ(Fingerprint(r), expected)
          << (valiant ? "valiant" : "minimal") << " S=" << shards;
    }
  }
}

// --- channel pruning -------------------------------------------------------

TEST(ChannelPruningTest, PodAlignedIncastRowsCrossNothing) {
  FabricRunConfig config = SmallFatTreeConfig(TrafficPattern::kIncastRows);
  config.shards = 4;
  config.strategy = PartitionStrategy::kPod;
  const FabricRunResult r = RunFabricWorkload(config);
  EXPECT_EQ(r.invariant_violations, 0u);
  EXPECT_EQ(r.flows_completed, r.flows);
  EXPECT_TRUE(r.channels_pruned);
  // Rows align with pods and pods align with shards: every off-diagonal
  // shard pair is traffic-free and pruned, no handoff ever crosses, and
  // with no channel left to bound the window the run is one sync round.
  EXPECT_EQ(r.pruned_pairs, 4 * 4 - 4);
  EXPECT_EQ(r.cross_shard_handoffs, 0u);
  EXPECT_EQ(r.sync_rounds, 1u);
}

TEST(ChannelPruningTest, WrongMaskIsDetectedNotSilent) {
  // Pod partition at S = 2 with a mask claiming NO pair carries traffic:
  // a cross-shard flow must trip the pruned-handoff violation counter.
  // The run's results are semantically damaged (late arrivals are clamped
  // to the destination's horizon instead of aborting), which is exactly
  // why the counters have to be loud.
  FatTreeFabric fabric(FatTreeConfig{});
  const auto shard_of = ShardPartitioner::Assign(
      fabric, 2, PartitionStrategy::kPod, {}, 1);
  ParallelSimulation psim(1, 2);
  Network net(psim);
  fabric.Build(net, shard_of);
  std::vector<std::uint8_t> allowed(4, 0);
  allowed[0] = allowed[3] = 1;  // diagonal only
  psim.RestrictChannels(std::move(allowed));

  TcpSocket::Config socket_config;
  auto cc_factory = [] {
    return MakeCongestionOps(Protocol::kDctcp, ProtocolOptions{});
  };
  // One flow from pod 0 (shard 0) to the last pod (shard 1).
  Host& dst = fabric.host(fabric.num_hosts() - 1);
  SinkServer sink(dst, 7000, cc_factory, socket_config);
  Host& src = fabric.host(0);
  BulkSender sender(src, cc_factory(), socket_config, dst.id(), 7000);
  src.sim().Schedule(0, [&] { sender.Start(8 * kKiB, true, nullptr); });
  psim.RunUntil(kSecond);
  EXPECT_GT(psim.pruned_channel_handoffs(), 0u);
  EXPECT_GT(psim.invariant_violations(), 0u);
  EXPECT_EQ(psim.first_violation(),
            "packet crossed a channel pruned by RestrictChannels");
}

}  // namespace
}  // namespace dctcpp
