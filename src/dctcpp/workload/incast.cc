#include "dctcpp/workload/incast.h"

#include <algorithm>
#include <memory>

#include "dctcpp/sim/simulator.h"
#include "dctcpp/tcp/probe.h"
#include "dctcpp/util/fnv.h"
#include "dctcpp/util/log.h"
#include "dctcpp/workload/apps.h"

namespace dctcpp {
namespace {

constexpr PortNum kWorkerPort = 5000;
constexpr PortNum kSinkPort = 6000;
constexpr Bytes kLongFlowBytes = 64LL * 1024 * kMiB;  // effectively endless

/// Snapshot of the tracked flow's probe, diffed per round for Table I.
struct ProbeSnapshot {
  std::uint64_t at_min = 0;
  std::uint64_t floss = 0;
  std::uint64_t lack = 0;

  static ProbeSnapshot Of(const RecordingProbe& p) {
    return ProbeSnapshot{p.at_min_with_ece(), p.floss_timeouts(),
                         p.lack_timeouts()};
  }
};

}  // namespace

IncastResult RunIncast(const IncastConfig& config) {
  DCTCPP_ASSERT(config.num_flows >= 1);
  DCTCPP_ASSERT(config.num_workers >= 1);
  DCTCPP_ASSERT(config.rounds >= 1);

  Simulator sim(config.seed);
  Network net(sim);
  TwoTierTopology topo =
      TwoTierTopology::Build(net, config.num_workers, config.link);

  TcpSocket::Config socket_config = config.socket;
  socket_config.rto.min_rto = config.min_rto;
  socket_config.rto.initial_rto =
      std::max(config.min_rto, 10 * kMillisecond);

  const Bytes per_flow =
      config.per_flow_bytes > 0
          ? config.per_flow_bytes
          : std::max<Bytes>(1, config.total_bytes / config.num_flows);

  auto cc_factory = [&config] {
    return MakeCongestionOps(config.protocol, config.options);
  };

  // All per-flow control-plane state — probes, servers, clients, long
  // flows — lives in the simulation's arena: allocated once at setup,
  // adjacent in memory, reclaimed wholesale when `sim` dies.
  Arena& arena = sim.arena();

  // Worker-side probes: one per accepted sender socket; the first accepted
  // connection is the "randomly selected" tracked flow of the paper.
  std::vector<ArenaPtr<RecordingProbe>> probes;
  auto accept_hook = [&probes, &arena](TcpSocket& sk) {
    probes.push_back(MakeArena<RecordingProbe>(arena));
    sk.set_probe(probes.back().get());
  };

  std::vector<ArenaPtr<WorkerServer>> servers;
  for (int w = 0; w < config.num_workers; ++w) {
    WorkerServer::Config wc;
    wc.port = kWorkerPort;
    wc.request_size = config.request_size;
    wc.response_size = [per_flow] { return per_flow; };
    wc.on_accept_hook = accept_hook;
    servers.push_back(MakeArena<WorkerServer>(
        arena, *topo.workers[w], cc_factory, socket_config, std::move(wc)));
  }

  // Aggregator clients, one per concurrent flow, spread round-robin over
  // the worker hosts (the paper's multithreaded benchmark).
  std::vector<ArenaPtr<AggregatorClient>> clients;
  for (int i = 0; i < config.num_flows; ++i) {
    Host* worker = topo.workers[i % config.num_workers];
    clients.push_back(MakeArena<AggregatorClient>(
        arena, *topo.aggregator, cc_factory(), socket_config, worker->id(),
        kWorkerPort, config.request_size));
  }

  // Optional background long flows through the same bottleneck (Fig 10).
  ArenaPtr<SinkServer> sink;
  std::vector<ArenaPtr<BulkSender>> long_flows;
  if (config.background_flows > 0) {
    sink = MakeArena<SinkServer>(arena, *topo.aggregator, kSinkPort,
                                 cc_factory, socket_config);
    for (int i = 0; i < config.background_flows; ++i) {
      Host* src = topo.workers[i % config.num_workers];
      long_flows.push_back(MakeArena<BulkSender>(
          arena, *src, cc_factory(), socket_config, topo.aggregator->id(),
          kSinkPort));
      long_flows.back()->Start(kLongFlowBytes, /*close_when_done=*/false,
                               nullptr);
    }
  }

  // Round driver state.
  IncastResult result;
  result.protocol = config.protocol;
  result.num_flows = config.num_flows;
  result.per_flow_bytes = per_flow;

  int connected = 0;
  int completed_in_round = 0;
  Tick round_start = 0;
  Tick first_round_start = -1;
  ProbeSnapshot tracked_before;

  std::function<void()> start_round = [&] {
    round_start = sim.Now();
    if (first_round_start < 0) first_round_start = round_start;
    completed_in_round = 0;
    if (!probes.empty()) tracked_before = ProbeSnapshot::Of(*probes[0]);
    for (std::size_t ci = 0; ci < clients.size(); ++ci) {
      auto issue = [&, ci] {
      clients[ci]->Request(per_flow, [&] {
        if (++completed_in_round < config.num_flows) return;
        // Round complete.
        result.fct_ms.Add(ToMillis(sim.Now() - round_start));
        ++result.rounds_completed;
        if (!probes.empty()) {
          const auto after = ProbeSnapshot::Of(*probes[0]);
          if (after.at_min > tracked_before.at_min) {
            ++result.tracked_rounds_at_min_ece;
          }
          const std::uint64_t floss = after.floss - tracked_before.floss;
          const std::uint64_t lack = after.lack - tracked_before.lack;
          if (floss + lack > 0) ++result.tracked_rounds_with_timeout;
          result.tracked_floss += floss;
          result.tracked_lack += lack;
        }
        if (result.rounds_completed >=
            static_cast<std::uint64_t>(config.rounds)) {
          sim.Stop();
        } else {
          start_round();
        }
      });
      };
      if (config.request_stagger > 0) {
        sim.Schedule(static_cast<Tick>(ci) * config.request_stagger,
                     issue);
      } else {
        issue();
      }
    }
  };

  // Establish connections staggered by 100 us each (the benchmark sets
  // them up serially before the first request round).
  for (int i = 0; i < config.num_flows; ++i) {
    sim.Schedule(static_cast<Tick>(i) * 100 * kMicrosecond, [&, i] {
      clients[i]->Connect([&] {
        if (++connected == config.num_flows) start_round();
      });
    });
  }

  // Optional bottleneck-queue sampling (Figs 9 and 14).
  std::unique_ptr<TimeSeriesSampler> sampler;
  if (config.sample_queue) {
    sampler = std::make_unique<TimeSeriesSampler>(
        sim, config.queue_sample_period, [&topo] {
          return static_cast<double>(
              topo.bottleneck->queue().OccupancyBytes());
        });
    sampler->Start();
  }

  sim.RunUntil(config.time_limit);
  result.hit_time_limit =
      result.rounds_completed < static_cast<std::uint64_t>(config.rounds);
  if (result.hit_time_limit) {
    DCTCPP_WARN("incast %s N=%d hit time limit after %llu/%d rounds",
                ToString(config.protocol), config.num_flows,
                static_cast<unsigned long long>(result.rounds_completed),
                config.rounds);
  }

  // Aggregate metrics.
  const Tick elapsed =
      first_round_start >= 0 ? sim.Now() - first_round_start : 0;
  const Bytes response_bytes =
      per_flow * config.num_flows *
      static_cast<Bytes>(result.rounds_completed);
  result.goodput_mbps = GoodputMbps(response_bytes, elapsed);

  for (const auto& probe : probes) {
    result.cwnd_hist.Merge(probe->cwnd_histogram());
    result.timeouts += probe->timeouts();
    result.floss_timeouts += probe->floss_timeouts();
    result.lack_timeouts += probe->lack_timeouts();
    result.fast_retransmits += probe->fast_retransmits();
  }

  if (sampler) result.queue_samples = sampler->samples();

  for (const auto& lf : long_flows) {
    const Tick dur = sim.Now() - lf->started_at();
    result.bg_throughput_mbps.push_back(
        GoodputMbps(lf->acked_bytes(), dur));
  }

  std::vector<double> per_flow_bytes_received;
  per_flow_bytes_received.reserve(clients.size());
  for (const auto& client : clients) {
    per_flow_bytes_received.push_back(
        static_cast<double>(client->total_received()));
  }
  result.flow_fairness = JainFairnessIndex(per_flow_bytes_received);

  const auto& bstats = topo.bottleneck->queue().stats();
  result.bottleneck_drops = bstats.dropped;
  result.bottleneck_marks = bstats.marked;
  result.bottleneck_max_queue = bstats.max_occupancy;

  result.events = sim.events_executed();
  result.packets_forwarded = sim.packets_forwarded();
  result.sim_seconds = ToSeconds(sim.Now());

  // No CheckDrained here: Stop() fires the instant the final response byte
  // lands, while ACKs for it are legitimately still in flight. The ledger
  // totals are exported for the harness; the population must simply be
  // non-negative (CheckLedger enforces that on every retirement).
  result.invariant_violations = sim.invariants().violations();
  const auto& ledger = sim.invariants().ledger();
  result.packets_originated = ledger.originated;
  result.packets_dropped = ledger.dropped;
  result.packets_duplicated = ledger.duplicated;
  result.checksum_discards = ledger.checksum_discards;
  if (result.invariant_violations > 0) {
    DCTCPP_WARN("incast %s N=%d: %llu invariant violations (first: %s)",
                ToString(config.protocol), config.num_flows,
                static_cast<unsigned long long>(result.invariant_violations),
                sim.invariants().first_violation().c_str());
  }
  return result;
}

std::uint64_t Fingerprint(const IncastResult& r) {
  std::uint64_t h = kFnvOffset;
  h = FnvWord(h, r.rounds_completed);
  h = FnvDouble(h, r.goodput_mbps);
  h = FnvWord(h, r.fct_ms.count());
  for (double s : r.fct_ms.samples()) h = FnvDouble(h, s);
  for (std::int64_t b = r.cwnd_hist.lo(); b <= r.cwnd_hist.hi(); ++b) {
    h = FnvWord(h, r.cwnd_hist.CountAt(b));
  }
  h = FnvWord(h, r.cwnd_hist.underflow());
  h = FnvWord(h, r.cwnd_hist.overflow());
  h = FnvWord(h, r.timeouts);
  h = FnvWord(h, r.floss_timeouts);
  h = FnvWord(h, r.lack_timeouts);
  h = FnvWord(h, r.fast_retransmits);
  h = FnvWord(h, r.tracked_rounds_at_min_ece);
  h = FnvWord(h, r.tracked_rounds_with_timeout);
  h = FnvWord(h, r.tracked_floss);
  h = FnvWord(h, r.tracked_lack);
  h = FnvWord(h, r.bottleneck_drops);
  h = FnvWord(h, r.bottleneck_marks);
  h = FnvWord(h, static_cast<std::uint64_t>(r.bottleneck_max_queue));
  h = FnvDouble(h, r.flow_fairness);
  h = FnvWord(h, r.events);
  h = FnvWord(h, r.packets_forwarded);
  h = FnvDouble(h, r.sim_seconds);
  h = FnvWord(h, r.invariant_violations);
  h = FnvWord(h, r.packets_originated);
  h = FnvWord(h, r.packets_dropped);
  h = FnvWord(h, r.packets_duplicated);
  h = FnvWord(h, r.checksum_discards);
  return h;
}

}  // namespace dctcpp
