// Shard assignment for fabric topologies: maps every plan node of a
// Fabric to one of S shards before the Network is instantiated.
//
// Partition quality is the dominant parallel-engine cost lever: every
// packet whose next hop lives on another shard pays the staging-append /
// calendar-merge path (net/parallel.cc), and channel pruning can only
// widen windows when whole shard pairs exchange nothing. Three
// strategies, from control to production:
//
//  - kRandom. Uniform hash placement — the baseline every partitioning
//    paper compares against; maximal cut, by design.
//  - kPod. Contiguous pods (fat-tree pods / dragonfly groups) per shard.
//    Exploits the topology's locality structure only: edge and agg tiers
//    stay with their hosts, so only core-tier and inter-pod traffic
//    crosses shards.
//  - kMinCut. Greedy min-cut over the *connection matrix* at pod
//    granularity: pods that exchange traffic are co-located, subject to
//    a balance cap. Starts from the traffic-weight ordering and grows
//    each shard by the pod with the highest attraction (total demand
//    weight to pods already in the shard). Beats kPod whenever the
//    workload has structure finer than "uniform" — e.g. incast rows or
//    hotspots spanning pod groups — and matches it on patternless
//    matrices. Deterministic: ties break on pod id.
//
// Pod-less nodes (fat-tree cores) are striped round-robin in every
// strategy — they carry transit traffic for all pods, so no shard is a
// better home than another, but the stripe must be deterministic for
// bit-identical runs.
#pragma once

#include <cstdint>
#include <vector>

#include "dctcpp/net/fabric.h"

namespace dctcpp {

enum class PartitionStrategy { kRandom, kPod, kMinCut };

const char* ToString(PartitionStrategy s);

/// One directed host-to-host demand (bytes or any relative weight) of the
/// connection matrix, as consumed by the min-cut strategy.
struct FlowDemand {
  NodeId src = 0;
  NodeId dst = 0;
  double weight = 1.0;
};

class ShardPartitioner {
 public:
  /// Maps every plan id of `fabric` to a shard in [0, shards).
  /// `demand` is consulted by kMinCut only (empty demand degrades it to
  /// kPod's contiguous blocks). `seed` is consulted by kRandom only.
  static std::vector<int> Assign(const Fabric& fabric, int shards,
                                 PartitionStrategy strategy,
                                 const std::vector<FlowDemand>& demand,
                                 std::uint64_t seed);

  /// Pod -> shard assignment of the greedy min-cut (exposed for tests).
  static std::vector<int> MinCutPods(const Fabric& fabric, int shards,
                                     const std::vector<FlowDemand>& demand);
};

}  // namespace dctcpp
