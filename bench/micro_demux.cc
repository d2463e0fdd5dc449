// google-benchmark microbenchmarks of the control-plane hot path: flow
// demultiplexing, switch route lookup, and per-simulation arena setup.
//
// Most benchmarks pair the production structure with the reference it
// replaced (from tests/reference/) so the margin stays measurable:
//   - BM_FlowTableLookupT<FlatFlowTable> vs <MapFlowTable> at N = 40 (the
//     canonical incast) and N = 1400 (the paper's massive-concurrency
//     regime),
//   - BM_HostDeliver, the real Host::Deliver demux,
//   - BM_RouteLookup dense vector vs unordered_map,
//   - BM_ArenaSetup arena bump allocation vs per-object new for a
//     simulation-setup-shaped burst of small objects.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "dctcpp/net/host.h"
#include "dctcpp/net/packet.h"
#include "dctcpp/sim/simulator.h"
#include "dctcpp/util/arena.h"
#include "dctcpp/util/flow_table.h"
#include "reference/map_flow_table.h"

namespace dctcpp {
namespace {

std::vector<std::uint64_t> FlowKeys(int flows) {
  std::vector<std::uint64_t> keys;
  keys.reserve(flows);
  for (int i = 0; i < flows; ++i) {
    keys.push_back(PackFlowKey(static_cast<PortNum>(10000 + i),
                               static_cast<NodeId>(1 + i % 9),
                               static_cast<PortNum>(5000 + i % 7)));
  }
  return keys;
}

template <typename TableT>
void BM_FlowTableLookupT(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  const std::vector<std::uint64_t> keys = FlowKeys(flows);
  TableT table;
  for (int i = 0; i < flows; ++i) {
    table.Insert(keys[i], static_cast<std::uint32_t>(i));
  }
  std::size_t next = 0;
  for (auto _ : state) {
    const std::uint32_t* v = table.Find(keys[next]);
    benchmark::DoNotOptimize(v);
    if (++next == keys.size()) next = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_FlowTableLookupT, FlatFlowTable<std::uint32_t>)
    ->Arg(40)
    ->Arg(1400);
BENCHMARK_TEMPLATE(BM_FlowTableLookupT, MapFlowTable<std::uint32_t>)
    ->Arg(40)
    ->Arg(1400);

/// The real demux path: Host::Deliver through registered connection
/// handlers, including the handler copy and indirect call.
void BM_HostDeliver(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  Simulator sim(1);
  Host host(sim, /*id=*/1, "bench");
  static std::uint64_t delivered;
  delivered = 0;
  std::vector<Packet> pkts;
  for (int i = 0; i < flows; ++i) {
    const PortNum local = static_cast<PortNum>(10000 + i);
    const NodeId remote = static_cast<NodeId>(2 + i % 9);
    const PortNum rport = static_cast<PortNum>(5000 + i % 7);
    host.RegisterConnection(local, remote, rport,
                            [](const Packet&) { ++delivered; });
    Packet pkt;
    pkt.src = remote;
    pkt.dst = 1;
    pkt.tcp.src_port = rport;
    pkt.tcp.dst_port = local;
    pkts.push_back(pkt);
  }
  std::size_t next = 0;
  for (auto _ : state) {
    host.Deliver(pkts[next]);
    if (++next == pkts.size()) next = 0;
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HostDeliver)->Arg(40)->Arg(1400);

/// Burst demux: the calendar drain delivers per-flow *runs* (consecutive
/// packets of one flow), and Host::Deliver's one-entry run cache collapses
/// each run to a single table probe. `state.range(1)` is the run length:
/// 1 models per-packet probing (every delivery switches flows, the cache
/// never hits), 16 models a drained ACK run (15 of 16 deliveries skip the
/// probe). The 1-vs-16 margin is the run cache's worth on burst traffic.
void BM_HostDeliverBurst(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  const int run_len = static_cast<int>(state.range(1));
  Simulator sim(1);
  Host host(sim, /*id=*/1, "bench");
  static std::uint64_t delivered;
  delivered = 0;
  std::vector<Packet> pkts;
  for (int i = 0; i < flows; ++i) {
    const PortNum local = static_cast<PortNum>(10000 + i);
    const NodeId remote = static_cast<NodeId>(2 + i % 9);
    const PortNum rport = static_cast<PortNum>(5000 + i % 7);
    host.RegisterConnection(local, remote, rport,
                            [](const Packet&) { ++delivered; });
    Packet pkt;
    pkt.src = remote;
    pkt.dst = 1;
    pkt.tcp.src_port = rport;
    pkt.tcp.dst_port = local;
    pkts.push_back(pkt);
  }
  std::size_t flow = 0;
  int within_run = 0;
  for (auto _ : state) {
    host.Deliver(pkts[flow]);
    if (++within_run == run_len) {
      within_run = 0;
      if (++flow == pkts.size()) flow = 0;
    }
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HostDeliverBurst)
    ->Args({1400, 1})
    ->Args({1400, 4})
    ->Args({1400, 16});

void BM_RouteLookupDense(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  std::vector<std::int32_t> routes(nodes);
  for (int i = 0; i < nodes; ++i) routes[i] = i % 8;
  int next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(routes[next]);
    if (++next == nodes) next = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouteLookupDense)->Arg(64)->Arg(2048);

void BM_RouteLookupHashMap(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  std::unordered_map<NodeId, std::int32_t> routes;
  for (int i = 0; i < nodes; ++i) routes[i] = i % 8;
  NodeId next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(routes.find(next)->second);
    if (++next == nodes) next = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouteLookupHashMap)->Arg(64)->Arg(2048);

/// Simulation-setup-shaped allocation burst: many 64-byte control-plane
/// objects created together, destroyed together.
struct ConnState {
  std::uint64_t words[8];
};

void BM_ArenaSetup(benchmark::State& state) {
  const int objects = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Arena arena;
    for (int i = 0; i < objects; ++i) {
      ConnState* p = arena.New<ConnState>();
      p->words[0] = static_cast<std::uint64_t>(i);
      benchmark::DoNotOptimize(p);
    }
  }
  state.SetItemsProcessed(state.iterations() * objects);
}
BENCHMARK(BM_ArenaSetup)->Arg(1400);

void BM_HeapSetup(benchmark::State& state) {
  const int objects = static_cast<int>(state.range(0));
  for (auto _ : state) {
    std::vector<std::unique_ptr<ConnState>> owned;
    owned.reserve(objects);
    for (int i = 0; i < objects; ++i) {
      owned.push_back(std::make_unique<ConnState>());
      owned.back()->words[0] = static_cast<std::uint64_t>(i);
    }
    benchmark::DoNotOptimize(owned.data());
  }
  state.SetItemsProcessed(state.iterations() * objects);
}
BENCHMARK(BM_HeapSetup)->Arg(1400);

}  // namespace
}  // namespace dctcpp

BENCHMARK_MAIN();
