// Network builder: nodes, bidirectional links, shortest-path routing, and
// the canonical 2-tier tree the paper's testbed uses (Figs 5 and 10).
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dctcpp/net/host.h"
#include "dctcpp/net/switch.h"
#include "dctcpp/sim/simulator.h"

namespace dctcpp {

/// Owns the hosts, switches, and link configuration of one simulated
/// network. Connect() wires both directions of a physical link; hosts get
/// their NIC attached by their single Connect() call. InstallRoutes() runs
/// BFS from every host to fill the switch forwarding tables.
class Network {
 public:
  explicit Network(Simulator& sim) : default_sim_(&sim) {}

  /// Sharded construction: every node lands on one of the coordinator's
  /// shard Simulators (explicitly via the `shard` argument of
  /// AddHost/AddSwitch, else round-robin in creation order), ports report
  /// their link delay as lookahead and learn their peers' shards.
  explicit Network(ParallelSimulation& parallel);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// `shard` >= 0 pins the node (sharded networks only); -1 auto-assigns
  /// (round-robin over shards; always shard 0 in single-Simulator mode).
  Host& AddHost(const std::string& name, int shard = -1);
  Switch& AddSwitch(const std::string& name, int shard = -1);

  /// Shards available for placement (1 in single-Simulator mode).
  int shard_count() const;
  ParallelSimulation* parallel() { return parallel_; }

  /// Wires a host to a switch. `switch_side` configures the switch's
  /// egress port toward the host (the shallow marking buffer);
  /// `host_side` configures the host NIC (by default a deep, unmarked
  /// qdisc-like queue — NICs do not run the switch's ECN marker).
  void ConnectHost(Host& host, Switch& sw, const LinkConfig& switch_side,
                   const LinkConfig& host_side);
  void ConnectHost(Host& host, Switch& sw, const LinkConfig& config) {
    ConnectHost(host, sw, config, NicConfig(config));
  }
  /// Returns the (a-side, b-side) port indices of the new link — fabric
  /// builders record them to derive compact routing tables without a BFS.
  std::pair<int, int> ConnectSwitches(Switch& a, Switch& b,
                                      const LinkConfig& config);

  /// Derives the default NIC config from a switch-port config: same rate
  /// and delay, a deep ~1000-packet buffer, marking disabled.
  static LinkConfig NicConfig(LinkConfig config) {
    config.buffer_bytes = 1000 * (kMss + kHeaderBytes);
    config.ecn_threshold = 0;
    return config;
  }

  /// Fills all switch forwarding tables via BFS (call after wiring).
  void InstallRoutes();

  std::size_t HostCount() const { return hosts_.size(); }
  std::size_t SwitchCount() const { return switches_.size(); }
  Host& host(std::size_t i) { return *hosts_.at(i); }
  Switch& switch_at(std::size_t i) { return *switches_.at(i); }
  /// The single-Simulator world, or shard 0 of a sharded one.
  Simulator& sim() { return *default_sim_; }

  /// The switch port whose egress queue feeds `host` (e.g. Switch 1's port
  /// toward the aggregator, sampled for Figs 9/14). Asserts it exists.
  EgressPort& PortTowardsHost(Switch& sw, const Host& host);

 private:
  struct Edge {
    // Adjacency for routing, keyed by stable NodeIds (nodes may be added
    // in any order relative to wiring). Port indices are on the switch
    // side; -1 for host endpoints.
    NodeId a;
    NodeId b;
    int a_port;
    int b_port;
  };

  Switch* SwitchById(NodeId id);

  /// Resolves a placement request to a shard Simulator (-1 = round-robin).
  Simulator& SimForShard(int shard);

  ParallelSimulation* parallel_ = nullptr;
  Simulator* default_sim_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<Switch>> switches_;
  std::vector<Edge> edges_;
  NodeId next_id_ = 0;
  int next_auto_shard_ = 0;
};

/// The paper's testbed (Fig 5/10): a canonical 2-tier tree built from
/// 4-port GbE switches — a root over leaf switches, each leaf carrying up
/// to `hosts_per_leaf` hosts (4 ports = 3 hosts + 1 uplink). The
/// aggregator sits on leaf Switch 1; workers fill the remaining slots
/// round-robin. Fan-in traffic from remote leaves converges first at the
/// root's port toward Switch 1 and then at Switch 1's port toward the
/// aggregator (the sampled bottleneck).
struct TwoTierTopology {
  /// Builds into `net`; pointers remain owned by the Network.
  /// `hosts_per_leaf` models the switch port budget (default 3: the
  /// paper's four-port switches keep one port for the uplink).
  static TwoTierTopology Build(Network& net, int workers,
                               const LinkConfig& config,
                               int hosts_per_leaf = 3);

  Host* aggregator = nullptr;
  std::vector<Host*> workers;
  Switch* switch1 = nullptr;          ///< leaf switch of the aggregator
  std::vector<Switch*> leaves;        ///< all leaf switches (incl. switch1)
  Switch* root = nullptr;

  /// The congested egress queue: Switch 1's port toward the aggregator.
  EgressPort* bottleneck = nullptr;
};

}  // namespace dctcpp
