// Multi-stage datacenter fabrics: k-ary fat-tree and dragonfly, behind a
// common Fabric interface the partitioner and workload driver share.
//
// A Fabric is built in two phases. Construction only computes the *plan*:
// node counts, pod/group structure, and the plan ids the instantiated
// Network will assign — hosts first (0 .. num_hosts-1, pod-major, so every
// routing tier sees contiguous destination ranges), then switches in a
// fixed tier order. Because the plan is pure arithmetic, a ShardPartitioner
// can assign every node to a shard before a single Simulator object
// exists; Build() then instantiates into a Network under that assignment
// and installs compact routing tables directly — no BFS (Network::
// InstallRoutes is O(nodes x links), hopeless at 50k hosts) and no dense
// per-switch route vectors (see switch.h: intervals + ECMP + group routes,
// a few tens of bytes per switch instead of 4 bytes per switch per host).
//
// Routing recap (details in switch.h and DESIGN.md Sec. 12):
//  - Fat-tree: down-routing is one interval per switch (hosts are
//    contiguous per edge / per pod / globally); up-routing is ECMP over
//    the uplink group by deterministic per-flow hash.
//  - Dragonfly: own hosts + intra-group by interval, inter-group by a
//    per-group port array (minimal routing); optional Valiant load
//    balancing tags each flow with a hash-chosen intermediate group at
//    its source router.
//
// The fabric also knows which shard pairs a given flow can touch
// (MarkShardPairs): the union over every ECMP member of every hop, both
// directions, is a conservative over-approximation the driver feeds to
// ParallelSimulation::RestrictChannels so shard pairs the connection
// matrix never couples stop bounding the window width.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dctcpp/net/topology.h"

namespace dctcpp {

class Fabric {
 public:
  virtual ~Fabric() = default;

  virtual const char* kind() const = 0;

  int num_hosts() const { return num_hosts_; }
  int num_switches() const { return num_switches_; }
  /// Plan ids are 0 .. num_nodes()-1: hosts first, then switches.
  int num_nodes() const { return num_hosts_ + num_switches_; }

  /// Natural partition units: fat-tree pods / dragonfly groups.
  int num_pods() const { return num_pods_; }
  /// Pod of a plan node; -1 for pod-less nodes (fat-tree core switches).
  int pod_of(int plan_id) const {
    return pod_of_[static_cast<std::size_t>(plan_id)];
  }

  /// Instantiates the plan into `net`. `shard_of` maps plan id -> shard
  /// (from ShardPartitioner); empty places everything on shard 0. Call
  /// once; the Network owns the nodes, this object keeps pointers.
  virtual void Build(Network& net, const std::vector<int>& shard_of) = 0;

  bool built() const { return !hosts_.empty(); }
  Host& host(int i) { return *hosts_[static_cast<std::size_t>(i)]; }
  Switch& switch_at(int i) { return *switches_[static_cast<std::size_t>(i)]; }

  /// Sum of Switch::RouteMemoryBytes over the fabric (after Build); the
  /// bench gates this divided by num_nodes().
  std::size_t RouteTableBytes() const {
    std::size_t total = 0;
    for (const Switch* sw : switches_) total += sw->RouteMemoryBytes();
    return total;
  }

  /// Marks every directed shard pair a packet src -> dst (host plan ids)
  /// could cross into `used` (row-major shards x shards), treating each
  /// ECMP group as "any member". Callers mark both flow directions (data
  /// one way, SYN/ACKs the other).
  virtual void MarkShardPairs(NodeId src, NodeId dst,
                              const std::vector<int>& shard_of, int shards,
                              std::vector<std::uint8_t>& used) const = 0;

  /// False when per-packet routing exceeds what MarkShardPairs models
  /// (dragonfly Valiant detours): callers must then skip channel pruning.
  virtual bool SupportsChannelPruning() const { return true; }

 protected:
  /// used[shard(a)][shard(b)] = 1 for the directed hop a -> b (plan ids).
  static void MarkHop(int a, int b, const std::vector<int>& shard_of,
                      int shards, std::vector<std::uint8_t>& used) {
    const int sa = shard_of[static_cast<std::size_t>(a)];
    const int sb = shard_of[static_cast<std::size_t>(b)];
    if (sa == sb) return;
    used[static_cast<std::size_t>(sa) * static_cast<std::size_t>(shards) +
         static_cast<std::size_t>(sb)] = 1;
  }

  int num_hosts_ = 0;
  int num_switches_ = 0;
  int num_pods_ = 0;
  std::vector<int> pod_of_;  ///< indexed by plan id
  std::vector<Host*> hosts_;
  std::vector<Switch*> switches_;
};

/// k-ary fat-tree (Al-Fares et al.): k pods of k/2 edge + k/2 aggregation
/// switches, (k/2)^2 cores. `hosts_per_edge` defaults to the canonical
/// k/2 but may exceed it (oversubscribed edge tier) — the only way to
/// reach 50k hosts within the paper-scale k <= 32 port budget.
struct FatTreeConfig {
  int k = 4;               ///< even, 4..32
  int hosts_per_edge = 0;  ///< 0 = k/2 (canonical 3-tier fat-tree)
  LinkConfig link;         ///< every fabric link (host, edge-agg, agg-core)
};

class FatTreeFabric : public Fabric {
 public:
  explicit FatTreeFabric(const FatTreeConfig& config);

  const char* kind() const override { return "fat_tree"; }
  void Build(Network& net, const std::vector<int>& shard_of) override;
  void MarkShardPairs(NodeId src, NodeId dst,
                      const std::vector<int>& shard_of, int shards,
                      std::vector<std::uint8_t>& used) const override;

  int k() const { return k_; }
  int hosts_per_edge() const { return hosts_per_edge_; }
  int hosts_per_pod() const { return half_k_ * hosts_per_edge_; }

  // Plan-id arithmetic (public: tests verify the structure against it).
  int HostPlanId(int pod, int edge, int slot) const {
    return pod * hosts_per_pod() + edge * hosts_per_edge_ + slot;
  }
  int EdgePlanId(int pod, int e) const { return num_hosts_ + pod * k_ + e; }
  int AggPlanId(int pod, int j) const {
    return num_hosts_ + pod * k_ + half_k_ + j;
  }
  int CorePlanId(int c) const { return num_hosts_ + k_ * k_ + c; }
  int EdgeOfHost(int h) const {
    return EdgePlanId(h / hosts_per_pod(),
                      h % hosts_per_pod() / hosts_per_edge_);
  }

 private:
  int k_;
  int half_k_;
  int hosts_per_edge_;
  LinkConfig link_;
};

/// Dragonfly (Kim et al.): g groups of a routers, each with p hosts and h
/// global links; routers within a group form a full mesh, groups form a
/// full mesh over the global links (requires g <= a*h + 1; the canonical
/// maximal configuration g = a*h + 1 is the default). Minimal routing is
/// at most local-global-local; `valiant` adds per-flow random intermediate
/// groups (the classic load-balancer for adversarial patterns).
struct DragonflyConfig {
  int routers_per_group = 4;      ///< a
  int hosts_per_router = 2;       ///< p
  int global_links_per_router = 2;  ///< h
  int groups = 0;                 ///< g; 0 = a*h + 1 (maximal)
  bool valiant = false;
  LinkConfig local_link;   ///< host and intra-group links
  LinkConfig global_link;  ///< inter-group links (typically longer delay)
};

class DragonflyFabric : public Fabric {
 public:
  explicit DragonflyFabric(const DragonflyConfig& config);

  const char* kind() const override { return "dragonfly"; }
  void Build(Network& net, const std::vector<int>& shard_of) override;
  void MarkShardPairs(NodeId src, NodeId dst,
                      const std::vector<int>& shard_of, int shards,
                      std::vector<std::uint8_t>& used) const override;
  bool SupportsChannelPruning() const override { return !valiant_; }

  int groups() const { return g_; }
  int routers_per_group() const { return a_; }
  int hosts_per_router() const { return p_; }

  int HostPlanId(int group, int router, int slot) const {
    return (group * a_ + router) * p_ + slot;
  }
  int RouterPlanId(int group, int router) const {
    return num_hosts_ + group * a_ + router;
  }
  int RouterOfHost(int h) const { return num_hosts_ + h / p_; }

  /// The router of group `from` owning the global link toward `to`
  /// (canonical slot assignment; from != to).
  int GatewayRouter(int from, int to) const {
    return ((to - from - 1 + g_) % g_) / h_;
  }

 private:
  int a_;
  int p_;
  int h_;
  int g_;
  bool valiant_;
  LinkConfig local_link_;
  LinkConfig global_link_;
};

}  // namespace dctcpp
