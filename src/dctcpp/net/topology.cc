#include "dctcpp/net/topology.h"

#include <queue>

#include "dctcpp/net/parallel.h"
#include "dctcpp/util/assert.h"

namespace dctcpp {

Network::Network(ParallelSimulation& parallel)
    : parallel_(&parallel), default_sim_(&parallel.shard(0)) {}

int Network::shard_count() const {
  return parallel_ != nullptr ? parallel_->shard_count() : 1;
}

Simulator& Network::SimForShard(int shard) {
  if (parallel_ == nullptr) {
    DCTCPP_ASSERT(shard <= 0);
    return *default_sim_;
  }
  if (shard < 0) {
    shard = next_auto_shard_;
    next_auto_shard_ = (next_auto_shard_ + 1) % parallel_->shard_count();
  }
  DCTCPP_ASSERT(shard < parallel_->shard_count());
  return parallel_->shard(shard);
}

Host& Network::AddHost(const std::string& name, int shard) {
  hosts_.push_back(
      std::make_unique<Host>(SimForShard(shard), next_id_++, name));
  return *hosts_.back();
}

Switch& Network::AddSwitch(const std::string& name, int shard) {
  switches_.push_back(
      std::make_unique<Switch>(SimForShard(shard), next_id_++, name));
  return *switches_.back();
}

Switch* Network::SwitchById(NodeId id) {
  for (auto& s : switches_) {
    if (s->id() == id) return s.get();
  }
  return nullptr;
}

void Network::ConnectHost(Host& host, Switch& sw,
                          const LinkConfig& switch_side,
                          const LinkConfig& host_side) {
  host.AttachUplink(host_side, sw, &sw.sim());
  const int sw_port = sw.AddPort(switch_side, host, &host.sim());
  edges_.push_back(Edge{host.id(), sw.id(), -1, sw_port});
}

std::pair<int, int> Network::ConnectSwitches(Switch& a, Switch& b,
                                             const LinkConfig& config) {
  const int a_port = a.AddPort(config, b, &b.sim());
  const int b_port = b.AddPort(config, a, &a.sim());
  edges_.push_back(Edge{a.id(), b.id(), a_port, b_port});
  return {a_port, b_port};
}

void Network::InstallRoutes() {
  // Adjacency keyed by NodeId (ids are dense, assigned 0..n-1): each
  // neighbor with the local egress port index (valid when the local node
  // is a switch).
  struct Adj {
    NodeId peer;
    int my_port;
  };
  const std::size_t n = hosts_.size() + switches_.size();
  std::vector<std::vector<Adj>> adj(n);
  for (const Edge& e : edges_) {
    adj[static_cast<std::size_t>(e.a)].push_back(Adj{e.b, e.a_port});
    adj[static_cast<std::size_t>(e.b)].push_back(Adj{e.a, e.b_port});
  }

  // For every host h: BFS outward from h. When the search reaches switch s
  // through neighbor p (closer to h), s routes traffic for h out of its
  // port facing p.
  for (const auto& host : hosts_) {
    const NodeId host_id = host->id();
    std::vector<bool> visited(n, false);
    std::queue<NodeId> frontier;
    visited[static_cast<std::size_t>(host_id)] = true;
    frontier.push(host_id);
    while (!frontier.empty()) {
      const NodeId cur = frontier.front();
      frontier.pop();
      for (const Adj& a : adj[static_cast<std::size_t>(cur)]) {
        if (visited[static_cast<std::size_t>(a.peer)]) continue;
        visited[static_cast<std::size_t>(a.peer)] = true;
        Switch* sw = SwitchById(a.peer);
        if (sw == nullptr) continue;  // a host: never forwards
        // `sw` was discovered via `cur`; its port back toward `cur` is the
        // next hop for traffic destined to host_id.
        int back_port = -1;
        for (const Adj& rev : adj[static_cast<std::size_t>(a.peer)]) {
          if (rev.peer == cur) {
            back_port = rev.my_port;
            break;
          }
        }
        DCTCPP_ASSERT(back_port >= 0);
        sw->SetRoute(host_id, back_port);
        frontier.push(a.peer);
      }
    }
  }
}

EgressPort& Network::PortTowardsHost(Switch& sw, const Host& host) {
  const int port = sw.RouteTo(host.id());
  DCTCPP_ASSERT(port >= 0);
  return sw.port(port);
}

TwoTierTopology TwoTierTopology::Build(Network& net, int workers,
                                       const LinkConfig& config,
                                       int hosts_per_leaf) {
  DCTCPP_ASSERT(workers >= 1);
  DCTCPP_ASSERT(hosts_per_leaf >= 1);
  TwoTierTopology topo;

  topo.root = &net.AddSwitch("root");

  const int total_hosts = workers + 1;
  const int num_leaves =
      (total_hosts + hosts_per_leaf - 1) / hosts_per_leaf;
  for (int i = 0; i < num_leaves; ++i) {
    Switch& leaf = net.AddSwitch("switch" + std::to_string(i + 1));
    net.ConnectSwitches(*topo.root, leaf, config);
    topo.leaves.push_back(&leaf);
  }
  topo.switch1 = topo.leaves.front();

  // Aggregator takes the first slot on Switch 1; workers fill the leaves
  // round-robin so the fan-in converges through the root, as on the
  // testbed.
  topo.aggregator = &net.AddHost("aggregator");
  net.ConnectHost(*topo.aggregator, *topo.switch1, config);
  for (int i = 0; i < workers; ++i) {
    Host& w = net.AddHost("worker" + std::to_string(i));
    Switch& leaf = *topo.leaves[static_cast<std::size_t>((i + 1) %
                                                         num_leaves)];
    net.ConnectHost(w, leaf, config);
    topo.workers.push_back(&w);
  }

  net.InstallRoutes();
  topo.bottleneck = &net.PortTowardsHost(*topo.switch1, *topo.aggregator);
  return topo;
}

}  // namespace dctcpp
