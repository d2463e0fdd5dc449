#include "dctcpp/workload/connection_matrix.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <utility>

#include "dctcpp/net/parallel.h"
#include "dctcpp/util/assert.h"
#include "dctcpp/util/fnv.h"
#include "dctcpp/util/log.h"
#include "dctcpp/util/rng.h"
#include "dctcpp/workload/apps.h"

namespace dctcpp {

namespace {

constexpr PortNum kFabricPort = 7000;

std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Seeded random derangement of 0..n-1: Fisher-Yates, then any fixed
/// point swaps with its cyclic neighbor (which cannot create another).
std::vector<int> Derangement(int n, std::uint64_t seed) {
  std::vector<int> perm(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
  Rng rng(seed);
  for (int i = n - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(
        rng.Next() % static_cast<std::uint64_t>(i + 1));
    std::swap(perm[static_cast<std::size_t>(i)], perm[j]);
  }
  for (int i = 0; i < n; ++i) {
    if (perm[static_cast<std::size_t>(i)] == i) {
      std::swap(perm[static_cast<std::size_t>(i)],
                perm[static_cast<std::size_t>((i + 1) % n)]);
    }
  }
  return perm;
}

}  // namespace

const char* ToString(TrafficPattern p) {
  switch (p) {
    case TrafficPattern::kPermutation: return "permutation";
    case TrafficPattern::kHotspot: return "hotspot";
    case TrafficPattern::kAllToAll: return "all_to_all";
    case TrafficPattern::kIncastRows: return "incast_rows";
  }
  return "?";
}

ConnectionMatrix ConnectionMatrix::Permutation(int hosts, Bytes bytes,
                                               std::uint64_t seed) {
  DCTCPP_ASSERT(hosts >= 2);
  ConnectionMatrix m;
  const std::vector<int> perm = Derangement(hosts, seed);
  m.flows.reserve(static_cast<std::size_t>(hosts));
  for (int i = 0; i < hosts; ++i) {
    m.flows.push_back({i, perm[static_cast<std::size_t>(i)], bytes});
  }
  return m;
}

ConnectionMatrix ConnectionMatrix::Hotspot(int hosts, int hotspots,
                                           double hot_fraction, Bytes bytes,
                                           std::uint64_t seed) {
  DCTCPP_ASSERT(hosts >= 2);
  DCTCPP_ASSERT(hotspots >= 1 && hotspots < hosts);
  DCTCPP_ASSERT(hot_fraction >= 0.0 && hot_fraction <= 1.0);
  ConnectionMatrix m = Permutation(hosts, bytes, seed);
  const auto threshold = static_cast<std::uint64_t>(
      hot_fraction * 1e6);
  for (int i = hotspots; i < hosts; ++i) {
    const std::uint64_t h = Mix64(seed ^ 0x686f74ull ^
                                  static_cast<std::uint64_t>(i));
    if (h % 1000000 >= threshold) continue;
    const auto target = static_cast<int>(
        Mix64(h) % static_cast<std::uint64_t>(hotspots));
    m.flows[static_cast<std::size_t>(i)].dst = target;
  }
  return m;
}

ConnectionMatrix ConnectionMatrix::AllToAll(int hosts, Bytes bytes) {
  DCTCPP_ASSERT(hosts >= 2);
  ConnectionMatrix m;
  m.flows.reserve(static_cast<std::size_t>(hosts) *
                  static_cast<std::size_t>(hosts - 1));
  for (int s = 0; s < hosts; ++s) {
    for (int d = 0; d < hosts; ++d) {
      if (s != d) m.flows.push_back({s, d, bytes});
    }
  }
  return m;
}

ConnectionMatrix ConnectionMatrix::IncastRows(int hosts, int row_size,
                                              int fan_in, Bytes bytes) {
  DCTCPP_ASSERT(row_size >= 2 && fan_in >= 1 && fan_in < row_size);
  ConnectionMatrix m;
  for (int base = 0; base + row_size <= hosts; base += row_size) {
    for (int s = 1; s <= fan_in; ++s) {
      m.flows.push_back({base + s, base, bytes});
    }
  }
  DCTCPP_ASSERT(!m.flows.empty());
  return m;
}

std::vector<FlowDemand> ConnectionMatrix::Demand() const {
  std::vector<FlowDemand> demand;
  demand.reserve(flows.size());
  for (const MatrixFlow& f : flows) {
    demand.push_back({f.src, f.dst, static_cast<double>(f.bytes)});
  }
  return demand;
}

FabricRunResult RunFabricWorkload(const FabricRunConfig& config) {
  DCTCPP_ASSERT(config.shards >= 1);
  DCTCPP_ASSERT(config.bytes_per_flow > 0);

  // Plan the fabric (pure arithmetic; no Simulator yet).
  std::unique_ptr<Fabric> fabric;
  if (config.topo == FabricRunConfig::Topo::kFatTree) {
    FatTreeConfig ft = config.fat_tree;
    ft.link = config.link;
    fabric = std::make_unique<FatTreeFabric>(ft);
  } else {
    DragonflyConfig df = config.dragonfly;
    df.local_link = config.link;
    // Global links keep their configured delay unless unset (equal to
    // the default LinkConfig), in which case they inherit the local one.
    if (df.global_link.propagation_delay ==
        LinkConfig().propagation_delay) {
      df.global_link = config.link;
    }
    fabric = std::make_unique<DragonflyFabric>(df);
  }
  const int hosts = fabric->num_hosts();

  ConnectionMatrix matrix;
  switch (config.pattern) {
    case TrafficPattern::kPermutation:
      matrix = ConnectionMatrix::Permutation(hosts, config.bytes_per_flow,
                                             config.seed);
      break;
    case TrafficPattern::kHotspot:
      matrix = ConnectionMatrix::Hotspot(hosts, config.hotspots,
                                         config.hot_fraction,
                                         config.bytes_per_flow, config.seed);
      break;
    case TrafficPattern::kAllToAll:
      matrix = ConnectionMatrix::AllToAll(hosts, config.bytes_per_flow);
      break;
    case TrafficPattern::kIncastRows:
      matrix = ConnectionMatrix::IncastRows(hosts, config.row_size,
                                            config.fan_in,
                                            config.bytes_per_flow);
      break;
  }
  const int flows = static_cast<int>(matrix.flows.size());

  const std::vector<int> shard_of = ShardPartitioner::Assign(
      *fabric, config.shards, config.strategy, matrix.Demand(), config.seed);

  ParallelSimulation psim(config.seed, config.shards);
  Network net(psim);
  fabric->Build(net, shard_of);

  FabricRunResult result;
  result.hosts = hosts;
  result.switches = fabric->num_switches();
  result.flows = flows;
  result.route_table_bytes = fabric->RouteTableBytes();
  result.route_bytes_per_node =
      static_cast<double>(result.route_table_bytes) / fabric->num_nodes();

  if (config.prune_channels && config.shards > 1 &&
      fabric->SupportsChannelPruning()) {
    const auto s = static_cast<std::size_t>(config.shards);
    std::vector<std::uint8_t> allowed(s * s, 0);
    for (const MatrixFlow& f : matrix.flows) {
      // Both directions: data/SYN forward, ACK/SYN-ACK/FIN-ACK reverse.
      fabric->MarkShardPairs(f.src, f.dst, shard_of, config.shards,
                             allowed);
      fabric->MarkShardPairs(f.dst, f.src, shard_of, config.shards,
                             allowed);
    }
    for (std::size_t i = 0; i < s; ++i) allowed[i * s + i] = 1;
    for (std::size_t i = 0; i < s * s; ++i) {
      if (allowed[i] == 0) ++result.pruned_pairs;
    }
    psim.RestrictChannels(std::move(allowed));
    result.channels_pruned = true;
  }

  TcpSocket::Config socket_config = config.socket;
  socket_config.rto.min_rto = config.min_rto;
  socket_config.rto.initial_rto =
      std::max(config.min_rto, 10 * kMillisecond);
  auto cc_factory = [&config] {
    return MakeCongestionOps(config.protocol, config.options);
  };

  // One sink per receiving host.
  std::vector<bool> receives(static_cast<std::size_t>(hosts), false);
  for (const MatrixFlow& f : matrix.flows) {
    receives[static_cast<std::size_t>(f.dst)] = true;
  }
  std::vector<std::unique_ptr<SinkServer>> sinks;
  for (int h = 0; h < hosts; ++h) {
    if (receives[static_cast<std::size_t>(h)]) {
      sinks.push_back(std::make_unique<SinkServer>(
          fabric->host(h), kFabricPort, cc_factory, socket_config));
    }
  }

  // Senders + per-flow completion slots. Slots are written by the flow's
  // own shard thread (disjoint indices: race-free); the countdown is the
  // only cross-shard word, and the Stop it triggers is quiesced into a
  // partition-invariant executed set by the coordinator.
  struct FlowSlot {
    Tick start = -1;
    Tick done = -1;
  };
  std::vector<FlowSlot> slots(static_cast<std::size_t>(flows));
  std::vector<ArenaPtr<BulkSender>> senders;
  senders.reserve(static_cast<std::size_t>(flows));
  std::atomic<int> remaining{flows};
  for (int i = 0; i < flows; ++i) {
    const MatrixFlow& f = matrix.flows[static_cast<std::size_t>(i)];
    Host& src = fabric->host(f.src);
    senders.push_back(MakeArena<BulkSender>(src.sim().arena(), src,
                                            cc_factory(), socket_config,
                                            f.dst, kFabricPort));
    const Tick start =
        config.stagger_slots > 0
            ? static_cast<Tick>(i % config.stagger_slots) *
                  config.start_stagger
            : 0;
    slots[static_cast<std::size_t>(i)].start = start;
    src.sim().Schedule(start, [&senders, &slots, &remaining, i, f] {
      BulkSender& sender = *senders[static_cast<std::size_t>(i)];
      sender.Start(f.bytes, /*close_when_done=*/true,
                   [&sender, &slots, &remaining, i] {
                     slots[static_cast<std::size_t>(i)].done =
                         sender.socket().sim().Now();
                     if (remaining.fetch_sub(1,
                                             std::memory_order_acq_rel) ==
                         1) {
                       sender.socket().sim().Stop();
                     }
                   });
    });
  }

  const auto run_start = std::chrono::steady_clock::now();
  psim.RunUntil(config.time_limit, config.shard_pool);
  result.run_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - run_start)
                           .count();

  Tick makespan_end = 0;
  Tick first_start = kTickMax;
  for (int i = 0; i < flows; ++i) {
    const FlowSlot& slot = slots[static_cast<std::size_t>(i)];
    first_start = std::min(first_start, slot.start);
    if (slot.done >= 0) {
      ++result.flows_completed;
      result.fct_ms.Add(ToMillis(slot.done - slot.start));
      makespan_end = std::max(makespan_end, slot.done);
    }
  }
  result.hit_time_limit = result.flows_completed < flows;
  if (result.hit_time_limit) {
    DCTCPP_WARN("fabric %s %s: %d/%d flows at time limit",
                fabric->kind(), ToString(config.pattern),
                result.flows_completed, flows);
  }
  for (const auto& sink : sinks) {
    result.bytes_delivered += sink->total_received();
  }
  const Tick elapsed =
      makespan_end > first_start ? makespan_end - first_start : 0;
  result.goodput_mbps = GoodputMbps(result.bytes_delivered, elapsed);
  result.sim_seconds =
      ToSeconds(makespan_end > 0 ? makespan_end : config.time_limit);

  result.events = psim.events_executed();
  result.packets_forwarded = psim.packets_forwarded();
  result.critical_events = psim.critical_events();
  for (int s = 0; s < psim.shard_count(); ++s) {
    result.shard_times.push_back(psim.shard_times(s));
  }
  result.sync_rounds = psim.sync_rounds();
  result.calendar_deliveries = psim.calendar_deliveries();
  result.cross_shard_handoffs = psim.cross_shard_handoffs();
  result.cross_shard_fraction =
      result.calendar_deliveries > 0
          ? static_cast<double>(result.cross_shard_handoffs) /
                static_cast<double>(result.calendar_deliveries)
          : 0.0;

  result.invariant_violations = psim.invariant_violations();
  const NetworkInvariants::Ledger ledger = psim.MergedLedger();
  result.packets_originated = ledger.originated;
  result.packets_dropped = ledger.dropped;
  result.checksum_discards = ledger.checksum_discards;
  if (result.invariant_violations > 0) {
    DCTCPP_WARN("fabric %s %s: %llu invariant violations (first: %s)",
                fabric->kind(), ToString(config.pattern),
                static_cast<unsigned long long>(result.invariant_violations),
                psim.first_violation().c_str());
  }
  return result;
}

std::uint64_t Fingerprint(const FabricRunResult& r) {
  std::uint64_t h = kFnvOffset;
  h = FnvWord(h, static_cast<std::uint64_t>(r.flows_completed));
  h = FnvWord(h, static_cast<std::uint64_t>(r.bytes_delivered));
  h = FnvWord(h, r.fct_ms.count());
  for (double s : r.fct_ms.samples()) h = FnvDouble(h, s);
  h = FnvDouble(h, r.goodput_mbps);
  h = FnvDouble(h, r.sim_seconds);
  h = FnvWord(h, r.events);
  h = FnvWord(h, r.packets_forwarded);
  h = FnvWord(h, r.invariant_violations);
  h = FnvWord(h, r.packets_originated);
  h = FnvWord(h, r.packets_dropped);
  h = FnvWord(h, r.checksum_discards);
  return h;
}

}  // namespace dctcpp
