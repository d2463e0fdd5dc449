// Workload-layer tests: the request/response apps, flow generation, the
// incast experiment end to end (including the paper's headline ordering),
// the benchmark-traffic experiment, and the sweep harness.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "dctcpp/net/topology.h"
#include "dctcpp/sim/simulator.h"
#include "dctcpp/util/thread_pool.h"
#include "dctcpp/workload/apps.h"
#include "dctcpp/workload/background.h"
#include "dctcpp/workload/benchmark_traffic.h"
#include "dctcpp/workload/churn.h"
#include "dctcpp/workload/experiment.h"
#include "dctcpp/workload/incast.h"

namespace dctcpp {
namespace {

using namespace time_literals;

TcpListener::CcFactory TcpFactory() {
  return [] { return MakeCongestionOps(Protocol::kDctcp); };
}

class AppsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    net.reset();  // ports hold pinned scheduler events: drop before the sim
    sim = std::make_unique<Simulator>(1);
    net = std::make_unique<Network>(*sim);
    topo = TwoTierTopology::Build(*net, 4, LinkConfig{});
  }

  std::unique_ptr<Simulator> sim;
  std::unique_ptr<Network> net;
  TwoTierTopology topo;
};

TEST_F(AppsFixture, WorkerRespondsToRequests) {
  WorkerServer::Config wc;
  wc.port = 5000;
  wc.request_size = 64;
  wc.response_size = [] { return Bytes{10000}; };
  WorkerServer server(*topo.workers[0], TcpFactory(), TcpSocket::Config{},
                      std::move(wc));
  AggregatorClient client(*topo.aggregator, MakeCongestionOps(Protocol::kDctcp),
                          TcpSocket::Config{}, topo.workers[0]->id(), 5000,
                          64);
  int responses = 0;
  client.Connect([&] {
    client.Request(10000, [&] { ++responses; });
    client.Request(10000, [&] { ++responses; });
  });
  sim->RunUntil(1 * kSecond);
  EXPECT_EQ(responses, 2);
  EXPECT_EQ(client.total_received(), 20000);
  EXPECT_EQ(server.total_responded(), 20000);
  EXPECT_EQ(server.ConnectionCount(), 1u);
}

TEST_F(AppsFixture, RequestsServedFifo) {
  WorkerServer::Config wc;
  wc.port = 5000;
  wc.request_size = 64;
  wc.response_size = [] { return Bytes{5000}; };
  WorkerServer server(*topo.workers[0], TcpFactory(), TcpSocket::Config{},
                      std::move(wc));
  AggregatorClient client(*topo.aggregator, MakeCongestionOps(Protocol::kDctcp),
                          TcpSocket::Config{}, topo.workers[0]->id(), 5000,
                          64);
  std::vector<int> completions;
  client.Connect([&] {
    for (int i = 0; i < 5; ++i) {
      client.Request(5000, [&completions, i] { completions.push_back(i); });
    }
  });
  sim->RunUntil(1 * kSecond);
  EXPECT_EQ(completions, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_F(AppsFixture, BulkSenderCompletesAndCloses) {
  SinkServer sink(*topo.aggregator, 6000, TcpFactory(),
                  TcpSocket::Config{});
  BulkSender sender(*topo.workers[1], MakeCongestionOps(Protocol::kDctcp),
                    TcpSocket::Config{}, topo.aggregator->id(), 6000);
  bool done = false;
  sender.Start(100000, /*close_when_done=*/true, [&] { done = true; });
  sim->RunUntil(2 * kSecond);
  EXPECT_TRUE(done);
  EXPECT_EQ(sink.total_received(), 100000);
  EXPECT_EQ(sink.flows_completed(), 1u);
  EXPECT_EQ(sender.acked_bytes(), 100000);
}

TEST_F(AppsFixture, SinkTracksMultipleFlows) {
  SinkServer sink(*topo.aggregator, 6000, TcpFactory(),
                  TcpSocket::Config{});
  std::vector<std::unique_ptr<BulkSender>> senders;
  int done = 0;
  for (int i = 0; i < 3; ++i) {
    senders.push_back(std::make_unique<BulkSender>(
        *topo.workers[i], MakeCongestionOps(Protocol::kDctcp),
        TcpSocket::Config{}, topo.aggregator->id(), PortNum{6000}));
    senders.back()->Start(50000, true, [&done] { ++done; });
  }
  sim->RunUntil(2 * kSecond);
  EXPECT_EQ(done, 3);
  EXPECT_EQ(sink.total_received(), 150000);
  EXPECT_EQ(sink.flows_completed(), 3u);
}

TEST_F(AppsFixture, FlowGeneratorRunsAllFlows) {
  std::vector<Host*> hosts = topo.workers;
  hosts.push_back(topo.aggregator);
  std::vector<std::unique_ptr<SinkServer>> sinks;
  for (Host* h : hosts) {
    sinks.push_back(std::make_unique<SinkServer>(
        *h, PortNum{6000}, TcpFactory(), TcpSocket::Config{}));
  }
  FlowGenerator::Config fg;
  fg.flow_count = 20;
  fg.mean_interarrival = 1_ms;
  FlowGenerator gen(*sim, hosts, TcpFactory(), TcpSocket::Config{}, fg,
                    EmpiricalCdf({{1000.0, 0.0}, {20000.0, 1.0}}));
  bool all_done = false;
  gen.Start([&] { all_done = true; });
  sim->RunUntil(30 * kSecond);
  EXPECT_TRUE(all_done);
  EXPECT_EQ(gen.flows_started(), 20);
  EXPECT_EQ(gen.flows_completed(), 20);
  EXPECT_EQ(gen.fct_ms().count(), 20u);
  EXPECT_GT(gen.fct_ms().Mean(), 0.0);
  Bytes sunk = 0;
  for (const auto& s : sinks) sunk += s->total_received();
  EXPECT_EQ(sunk, gen.bytes_sent());
}

TEST(ProductionCdfTest, HeavyTailedShape) {
  const EmpiricalCdf cdf = ProductionFlowSizeCdf();
  Rng rng(5);
  Percentile sizes;
  for (int i = 0; i < 20000; ++i) sizes.Add(cdf.Sample(rng));
  // Most flows are small, the tail is megabytes.
  EXPECT_LT(sizes.Median(), 100e3);
  EXPECT_GT(sizes.Quantile(0.99), 1e6);
  EXPECT_LE(sizes.Max(), 10 * 1024 * 1024 + 1);
}

// ---------------------------------------------------------------------------
// Incast experiment (integration)

IncastConfig SmallIncast(Protocol protocol, int flows) {
  IncastConfig config;
  config.protocol = protocol;
  config.num_flows = flows;
  config.rounds = 5;
  config.total_bytes = 256 * 1024;
  config.time_limit = 60 * kSecond;
  return config;
}

TEST(IncastTest, CompletesForAllProtocols) {
  for (Protocol p : {Protocol::kTcp, Protocol::kDctcp, Protocol::kDctcpPlus,
                     Protocol::kDctcpPlusPartial}) {
    const IncastResult r = RunIncast(SmallIncast(p, 8));
    EXPECT_EQ(r.rounds_completed, 5u) << ToString(p);
    EXPECT_FALSE(r.hit_time_limit) << ToString(p);
    EXPECT_GT(r.goodput_mbps, 0.0) << ToString(p);
    EXPECT_EQ(r.fct_ms.count(), 5u) << ToString(p);
  }
}

TEST(IncastTest, DeterministicForSeed) {
  const IncastResult r1 = RunIncast(SmallIncast(Protocol::kDctcp, 10));
  const IncastResult r2 = RunIncast(SmallIncast(Protocol::kDctcp, 10));
  EXPECT_EQ(r1.goodput_mbps, r2.goodput_mbps);
  EXPECT_EQ(r1.events, r2.events);
  EXPECT_EQ(r1.timeouts, r2.timeouts);
}

TEST(IncastTest, SeedChangesOutcome) {
  // DCTCP+ at a fan-in that engages the randomized regulator: different
  // seeds must produce different event schedules.
  IncastConfig a = SmallIncast(Protocol::kDctcpPlus, 40);
  a.rounds = 8;
  IncastConfig b = a;
  b.seed = 999;
  EXPECT_NE(RunIncast(a).events, RunIncast(b).events);
}

TEST(IncastTest, QueueSamplingProducesSeries) {
  IncastConfig config = SmallIncast(Protocol::kDctcp, 8);
  config.sample_queue = true;
  const IncastResult r = RunIncast(config);
  ASSERT_GT(r.queue_samples.size(), 10u);
  // Samples are 100 us apart and non-negative.
  EXPECT_EQ(r.queue_samples[1].at - r.queue_samples[0].at, 100_us);
  for (const auto& s : r.queue_samples) ASSERT_GE(s.value, 0.0);
}

TEST(IncastTest, CwndHistogramPopulated) {
  const IncastResult r = RunIncast(SmallIncast(Protocol::kDctcp, 10));
  EXPECT_GT(r.cwnd_hist.total(), 100u);
}

TEST(IncastTest, BackgroundFlowsCarryTraffic) {
  IncastConfig config = SmallIncast(Protocol::kDctcpPlus, 8);
  config.background_flows = 2;
  config.rounds = 10;
  const IncastResult r = RunIncast(config);
  ASSERT_EQ(r.bg_throughput_mbps.size(), 2u);
  EXPECT_GT(r.bg_throughput_mbps[0], 1.0);
  EXPECT_GT(r.bg_throughput_mbps[1], 1.0);
  EXPECT_EQ(r.rounds_completed, 10u);
}

TEST(IncastTest, FairnessNearOneWhenHealthy) {
  IncastConfig config = SmallIncast(Protocol::kDctcp, 10);
  config.rounds = 10;
  const IncastResult r = RunIncast(config);
  // Every flow serves the same per-round quota, so completed runs are
  // perfectly fair by construction.
  EXPECT_GT(r.flow_fairness, 0.99);
  EXPECT_LE(r.flow_fairness, 1.0 + 1e-12);
}

TEST(IncastTest, PerFlowBytesOverride) {
  IncastConfig config = SmallIncast(Protocol::kDctcp, 4);
  config.per_flow_bytes = 12345;
  const IncastResult r = RunIncast(config);
  EXPECT_EQ(r.per_flow_bytes, 12345);
}

// The paper's headline: at 60+ concurrent flows DCTCP collapses into
// RTO-bound rounds while DCTCP+ keeps short FCTs. This is the key
// qualitative result (Figs 1 and 7) asserted as a test.
TEST(IncastTest, DctcpPlusBeatsDctcpAtHighFanIn) {
  IncastConfig config;
  config.num_flows = 60;
  config.rounds = 25;
  config.time_limit = 120 * kSecond;

  config.protocol = Protocol::kDctcp;
  const IncastResult dctcp = RunIncast(config);
  config.protocol = Protocol::kDctcpPlus;
  const IncastResult plus = RunIncast(config);

  // DCTCP suffers timeouts nearly every round; its median round is pinned
  // near RTO_min (200 ms). DCTCP+ stays an order of magnitude faster.
  EXPECT_GT(dctcp.fct_ms.Median(), 100.0);
  EXPECT_LT(plus.fct_ms.Median(), 60.0);
  EXPECT_GT(plus.goodput_mbps, 4 * dctcp.goodput_mbps);
}

TEST(IncastTest, DctcpHealthyAtLowFanIn) {
  IncastConfig config = SmallIncast(Protocol::kDctcp, 10);
  config.rounds = 20;
  config.total_bytes = 1 * kMiB;
  const IncastResult r = RunIncast(config);
  EXPECT_GT(r.goodput_mbps, 700.0);
  EXPECT_EQ(r.timeouts, 0u);
}

// ---------------------------------------------------------------------------
// Sweep harness

TEST(SweepTest, PointMergesRepetitions) {
  ThreadPool pool(2);
  IncastConfig config = SmallIncast(Protocol::kDctcp, 6);
  const IncastSweepPoint point = RunIncastPoint(config, 3, pool);
  EXPECT_EQ(point.goodput_mbps.count(), 3u);
  EXPECT_EQ(point.rounds, 15u);  // 3 reps x 5 rounds
  EXPECT_EQ(point.fct_ms.count(), 15u);
  EXPECT_EQ(point.num_flows, 6);
}

TEST(SweepTest, SweepCoversGrid) {
  ThreadPool pool(2);
  IncastConfig base = SmallIncast(Protocol::kDctcp, 0);
  base.rounds = 2;
  std::vector<IncastResult> runs;
  const auto points = RunIncastSweep(
      base, {Protocol::kDctcp, Protocol::kTcp}, {4, 8}, 2, pool, &runs);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].protocol, Protocol::kDctcp);
  EXPECT_EQ(points[0].num_flows, 4);
  EXPECT_EQ(points[3].protocol, Protocol::kTcp);
  EXPECT_EQ(points[3].num_flows, 8);
  for (const auto& p : points) {
    EXPECT_EQ(p.goodput_mbps.count(), 2u);
  }
  // Every repetition's own result, in job order: point-major, then rep.
  ASSERT_EQ(runs.size(), 8u);
  for (std::size_t j = 0; j < runs.size(); ++j) {
    EXPECT_EQ(runs[j].protocol, points[j / 2].protocol);
    EXPECT_EQ(runs[j].num_flows, points[j / 2].num_flows);
  }
  for (std::size_t p = 0; p < points.size(); ++p) {
    EXPECT_DOUBLE_EQ(runs[2 * p].goodput_mbps + runs[2 * p + 1].goodput_mbps,
                     points[p].goodput_mbps.sum());
  }
}

// ---------------------------------------------------------------------------
// Benchmark traffic (Sec. VI-D)

TEST(BenchmarkTrafficTest, SmallRunCompletes) {
  BenchmarkTrafficConfig config;
  config.protocol = Protocol::kDctcpPlus;
  config.num_queries = 30;
  config.num_background_flows = 30;
  config.query_mean_interarrival = 2_ms;
  config.background_mean_interarrival = 2_ms;
  config.time_limit = 120 * kSecond;
  const BenchmarkTrafficResult r = RunBenchmarkTraffic(config);
  EXPECT_FALSE(r.hit_time_limit);
  EXPECT_EQ(r.queries_completed, 30u);
  EXPECT_EQ(r.background_flows_completed, 30u);
  EXPECT_EQ(r.query_fct_ms.count(), 30u);
  EXPECT_EQ(r.background_fct_ms.count(), 30u);
  EXPECT_GT(r.query_fct_ms.Mean(), 0.0);
}

TEST(BenchmarkTrafficTest, DeterministicForSeed) {
  BenchmarkTrafficConfig config;
  config.num_queries = 10;
  config.num_background_flows = 10;
  config.time_limit = 120 * kSecond;
  const auto r1 = RunBenchmarkTraffic(config);
  const auto r2 = RunBenchmarkTraffic(config);
  EXPECT_EQ(r1.events, r2.events);
  EXPECT_EQ(r1.query_fct_ms.Mean(), r2.query_fct_ms.Mean());
}

TEST(BenchmarkTrafficTest, QueryOnlyAndBackgroundOnly) {
  BenchmarkTrafficConfig config;
  config.num_queries = 10;
  config.num_background_flows = 0;
  config.time_limit = 60 * kSecond;
  const auto queries_only = RunBenchmarkTraffic(config);
  EXPECT_EQ(queries_only.queries_completed, 10u);
  EXPECT_EQ(queries_only.background_flows_completed, 0u);

  config.num_queries = 0;
  config.num_background_flows = 10;
  const auto bg_only = RunBenchmarkTraffic(config);
  EXPECT_EQ(bg_only.queries_completed, 0u);
  EXPECT_EQ(bg_only.background_flows_completed, 10u);
}

// --- churning open-loop workload (workload/churn.h) ------------------------

ChurnConfig SmallChurn(int shards) {
  ChurnConfig cfg;
  cfg.fat_tree.k = 4;  // 16 hosts
  cfg.shards = shards;
  cfg.seed = 3;
  cfg.target_live_flows = 250;
  cfg.mean_lifetime = 1 * kMillisecond;
  cfg.bytes_per_flow = 2 * kKiB;
  cfg.prewarm = 1 * kMillisecond;
  cfg.min_rto = 1 * kMillisecond;
  return cfg;
}

// 10k churn cycles with no per-flow resource growth: once the engine
// allocators reach steady state, completing thousands more flows must not
// allocate another byte there — sockets recycle through slots, ports and
// flow-table entries release on close, and the arena high-water mark is
// flat. Pool slots materialize on first use, so the pool still grows when
// a host's occupancy reaches a new high, but only by whole slots: the slot
// tables and free/retired lists never grow.
TEST(ChurnTest, TenThousandCyclesNoResourceGrowth) {
  ChurnWorkload w(SmallChurn(1));
  w.Start();
  w.RunTo(8 * kMillisecond);  // warm-up: pools touched, slabs reserved
  const ChurnFootprint warm = w.MeasureFootprint();
  const std::uint64_t warm_completed = w.Stats().flows_completed;

  Tick now = 8 * kMillisecond;
  while (w.Stats().flows_completed < warm_completed + 10000) {
    now += 8 * kMillisecond;
    ASSERT_LT(now, 500 * kMillisecond) << "churn stalled";
    w.RunTo(now);
  }

  const ChurnFootprint done = w.MeasureFootprint();
  EXPECT_EQ(done.scheduler_bytes, warm.scheduler_bytes);
  EXPECT_EQ(done.arena_bytes, warm.arena_bytes);

  const ChurnStats s = w.Stats();
  ASSERT_GE(done.materialized_slots, warm.materialized_slots);
  ASSERT_GE(done.pool_bytes, warm.pool_bytes);
  const std::size_t new_slots =
      done.materialized_slots - warm.materialized_slots;
  const std::size_t grown = done.pool_bytes - warm.pool_bytes;
  // A slot is one socket (plus a departure Timer on the client side).
  EXPECT_GE(grown, new_slots * sizeof(TcpSocket));
  EXPECT_LE(grown, new_slots * (sizeof(TcpSocket) + alignof(TcpSocket) +
                                sizeof(Timer)));
  // New highs are rare: far fewer new slots than completed flows.
  EXPECT_LT(new_slots * 50, s.flows_completed - warm_completed);

  EXPECT_GE(s.flows_completed, 10000u);
  EXPECT_EQ(s.violations, 0u);
  // Every completed flow delivered its full payload before the FIN.
  EXPECT_GE(s.bytes_received,
            static_cast<Bytes>(s.flows_completed) * w.config().bytes_per_flow);
  // The live population stays near target: slots, ports, and table
  // entries are being released, not leaked.
  EXPECT_LT(s.live_flows, 3 * w.config().target_live_flows);
}

// Per-flow memory gate. A 2,000-flow world is small enough for tier 1 yet
// large enough that per-flow state (socket slots, wheel nodes, port
// tables) outweighs the fixed pool chunks. It measured 2,431.4 B per flow
// with 48-byte wheel nodes, 840-byte sockets and sparse port tables; the
// bound is 1.2x that, so a per-connection regression fails in tier 1
// rather than only in the full-scale soak.
TEST(ChurnTest, FootprintPerFlowStaysBounded) {
  ChurnConfig cfg = SmallChurn(1);
  cfg.target_live_flows = 2000;
  cfg.mean_lifetime = 4 * kMillisecond;
  cfg.prewarm = 2 * kMillisecond;
  cfg.max_live_per_host = (2000 / 16) * 8 / 5 + 16;
  ChurnWorkload w(cfg);
  w.Start();
  for (Tick t = 3 * kMillisecond; t <= 12 * kMillisecond;
       t += 3 * kMillisecond) {
    w.RunTo(t);
  }
  const ChurnFootprint f = w.MeasureFootprint();
  ASSERT_GE(f.peak_live, 1600);
  EXPECT_GT(f.port_table_bytes, 0u);
  EXPECT_LE(f.bytes_per_flow, 1.2 * 2431.4);
}

// A pool far below the offered load (4 slots per host against ~16 live
// flows per host) drops arrivals and ignores SYNs rather than growing.
// The counts were recorded when every slot was still built in the
// constructor; materializing slots on first use must reproduce them
// (events_executed is re-recorded whenever the engine's event count per
// packet changes). The fingerprint hashes the checkpoint blob, so it is
// per format version (recorded at v5).
TEST(ChurnTest, PoolExhaustionDropsMatchRecordedCounts) {
  ChurnConfig cfg = SmallChurn(1);
  cfg.max_live_per_host = 4;
  ChurnWorkload w(cfg);
  w.Start();
  for (Tick t = 2 * kMillisecond; t <= 10 * kMillisecond;
       t += 2 * kMillisecond) {
    w.RunTo(t);
  }
  const ChurnStats s = w.Stats();
  EXPECT_EQ(s.flows_started, 327u);
  EXPECT_EQ(s.flows_completed, 264u);
  EXPECT_EQ(s.arrivals_dropped, 2205u);
  EXPECT_EQ(s.accepts_dropped, 38u);
  EXPECT_EQ(s.live_flows, 63);
  EXPECT_EQ(s.bytes_received, 571392);
  EXPECT_EQ(s.events_executed, 18519u);
  EXPECT_EQ(s.packets_forwarded, 15468u);
  EXPECT_EQ(s.violations, 0u);
  EXPECT_EQ(w.Fingerprint(), 0x5a38daf88d489766ull);
  // Never more slots than the pools' capacity: 16 hosts x 4 x 2 sides.
  EXPECT_LE(w.MeasureFootprint().materialized_slots, 128u);
}

// The same sharded world must be bit-identical under thread pools of
// size 1, 2, and 8: churn state is only touched from the owning shard,
// and recycling happens at simulated-time points.
TEST(ChurnTest, ThreadPoolSizeDoesNotChangeState) {
  std::uint64_t want = 0;
  bool first = true;
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    ChurnWorkload w(SmallChurn(4));
    w.Start();
    for (Tick t = 2 * kMillisecond; t <= 10 * kMillisecond;
         t += 2 * kMillisecond) {
      w.RunTo(t, &pool);
    }
    const std::uint64_t got = w.Fingerprint();
    if (first) {
      want = got;
      first = false;
      ASSERT_GT(w.Stats().flows_completed, 500u);
    } else {
      EXPECT_EQ(got, want) << "pool=" << threads;
    }
  }
}

// Regression: a 4-tuple freed and re-allocated in the same tick must not
// deliver old-incarnation packets into the new connection's handler (the
// host demux cache and flow table both turn over at FinalizeClose).
// Duplicate impairments keep stale copies of the old flow's last segments
// in flight across the reuse point.
TEST(ChurnTest, SameTickTupleReuseDeliversToNewSocket) {
  Simulator sim(1);
  Network net(sim);
  Switch& sw = net.AddSwitch("sw");
  Host& a = net.AddHost("a");
  Host& b = net.AddHost("b");
  LinkConfig link;
  link.impairment.duplicate_prob = 0.3;
  net.ConnectHost(a, sw, link);
  net.ConnectHost(b, sw, link);
  net.InstallRoutes();

  TcpSocket::Config scfg;
  std::vector<TcpSocket::Ptr> servers;
  Bytes server_received = 0;
  TcpListener listener(
      b, 5000, TcpFactory(), scfg,
      [&](TcpSocket::Ptr s) {
        servers.push_back(std::move(s));
        TcpSocket* srv = servers.back().get();
        srv->set_on_data([&server_received](Bytes n) { server_received += n; });
        srv->set_on_remote_close([srv] { srv->Close(); });
      });

  constexpr Bytes kSize = 16 * kKiB;
  TcpSocket::Ptr client2;
  bool second_started = false;
  bool second_closed = false;
  PortNum reused_port = 0;

  TcpSocket::Ptr client1 =
      TcpSocket::Create(a, MakeCongestionOps(Protocol::kDctcp), scfg);
  // Same tick as the teardown: recycle the exact 4-tuple. This captures
  // more than a socket callback holds, so the callback forwards to it.
  const std::function<void()> reuse_tuple = [&] {
    reused_port = client1->local_port();
    a.SetNextEphemeralForTest(reused_port);
    client2 = TcpSocket::Create(a, MakeCongestionOps(Protocol::kDctcp), scfg);
    client2->set_on_closed([&second_closed] { second_closed = true; });
    client2->Connect(b.id(), 5000);
    client2->Send(kSize);
    client2->Close();
    second_started = true;
  };
  client1->set_on_closed([&reuse_tuple] { reuse_tuple(); });
  client1->Connect(b.id(), 5000);
  client1->Send(kSize);
  client1->Close();

  sim.RunUntil(2000 * kMillisecond);
  ASSERT_TRUE(second_started);
  EXPECT_EQ(client2->local_port(), reused_port);
  EXPECT_TRUE(second_closed) << "reused-tuple connection never completed";
  EXPECT_EQ(server_received, 2 * kSize);
  EXPECT_EQ(sim.invariants().violations(), 0u);
  EXPECT_EQ(servers.size(), 2u);
}

}  // namespace
}  // namespace dctcpp
