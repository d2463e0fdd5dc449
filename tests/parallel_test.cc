// Tests for the conservative-parallel engine (net/parallel.h): arrival
// calendar ordering over port streams, the window gang's epoch protocol,
// the egress port's lazy transmitter on every engine, and the load-bearing
// property of the whole design — a fabric run (here the paper's fan-in
// tiled over a small fat-tree) is bit-identical at every shard count,
// whatever thread pool runs the windows, and a single Simulator running
// the same topology is the S = 1 case.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dctcpp/net/parallel.h"
#include "dctcpp/net/topology.h"
#include "dctcpp/util/rng.h"
#include "dctcpp/util/thread_pool.h"
#include "dctcpp/workload/connection_matrix.h"

namespace dctcpp {
namespace {

Packet EctSegment() {
  Packet pkt;
  pkt.payload = kMss;
  pkt.ecn = Ecn::kEct;
  return pkt;
}

/// Records every delivery as (arrival tick, packet uid).
class UidSink : public PacketSink {
 public:
  explicit UidSink(Simulator& sim) : sim_(sim) {}
  void Deliver(const Packet& pkt) override {
    arrivals.emplace_back(sim_.Now(), pkt.uid);
  }
  std::vector<std::pair<Tick, std::uint64_t>> arrivals;

 private:
  Simulator& sim_;
};

// The calendar orders ports, not packets: a min-heap over each port's
// head arrival. Many ports feed one shard — local ports from their own
// wires, cross-shard ports through inbound rings, interleaved in gid
// order — with sends on a coarse tick grid, so due ticks collide across
// ports and kinds. The shard must deliver exactly the reference order: a
// sort of every packet's (due, port gid, wire seq), where each port's due
// times come from a FIFO line-rate model of its transmitter.
TEST(ArrivalCalendarTest, PortStreamsMergeIntoReferenceOrder) {
  constexpr int kPorts = 24;
  constexpr int kSendsPerPort = 40;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    ParallelSimulation psim(seed, 2);
    Simulator& dst = psim.shard(1);
    UidSink sink(dst);
    LinkConfig config;
    config.buffer_bytes = kSendsPerPort * (kMss + kHeaderBytes);
    config.ecn_threshold = 0;
    const Tick tx = config.rate.TransmissionTime(kMss + kHeaderBytes);

    // (due, port index, wire seq) of every packet; port index follows
    // construction, hence gid, order.
    std::vector<std::tuple<Tick, int, int>> reference;
    std::vector<std::unique_ptr<EgressPort>> ports;
    for (int p = 0; p < kPorts; ++p) {
      // Even ports cross from shard 0; odd ports are local to shard 1.
      Simulator& src = psim.shard(p % 2 == 0 ? 0 : 1);
      ports.push_back(std::make_unique<EgressPort>(src, config, sink, &dst));
      std::vector<Tick> sends;
      for (int i = 0; i < kSendsPerPort; ++i) {
        sends.push_back(static_cast<Tick>(rng.Next() % 400) * tx);
      }
      std::sort(sends.begin(), sends.end());
      Tick tail = 0;
      for (int i = 0; i < kSendsPerPort; ++i) {
        tail = std::max(sends[static_cast<std::size_t>(i)], tail) + tx;
        reference.emplace_back(tail + config.propagation_delay, p, i);
        EgressPort* port = ports.back().get();
        Packet pkt = EctSegment();
        pkt.uid = static_cast<std::uint64_t>(p) << 32 |
                  static_cast<std::uint64_t>(i);
        src.ScheduleAt(sends[static_cast<std::size_t>(i)],
                       [port, pkt] { port->Send(pkt); });
      }
    }
    std::sort(reference.begin(), reference.end());
    psim.RunUntil(kTickMax);

    ASSERT_EQ(sink.arrivals.size(), reference.size());
    std::size_t equal_ticks = 0;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const auto [due, p, seq] = reference[i];
      EXPECT_EQ(sink.arrivals[i].first, due) << "arrival " << i;
      EXPECT_EQ(sink.arrivals[i].second,
                static_cast<std::uint64_t>(p) << 32 |
                    static_cast<std::uint64_t>(seq))
          << "arrival " << i;
      if (i > 0 && std::get<0>(reference[i - 1]) == due) ++equal_ticks;
    }
    EXPECT_GT(equal_ticks, reference.size() / 4);  // ties are the point
    EXPECT_EQ(psim.invariant_violations(), 0u);
    EXPECT_GT(psim.cross_shard_handoffs(), 0u);
  }
}

// The merge clamp (an arrival behind its destination's horizon, only
// possible under a wrong channel mask) must not reorder a port's stream:
// a clamped arrival never overtakes the ring's tail.
TEST(ArrivalCalendarTest, InboundRingKeepsClampedArrivalsInStreamOrder) {
  Simulator sim(1);
  UidSink sink(sim);
  ArrivalCalendar calendar;
  InboundRing ring(sink, 0, calendar);
  Packet pkt;
  pkt.uid = 1;
  ring.Append(50, 1, pkt);
  pkt.uid = 2;
  ring.Append(20, 2, pkt);  // clamped below its predecessor
  ASSERT_EQ(calendar.Size(), 1u);
  EXPECT_EQ(calendar.NextTime(), 50);
  calendar.DeliverEarliest();
  EXPECT_EQ(calendar.NextTime(), 50);
  calendar.DeliverEarliest();
  EXPECT_TRUE(calendar.Empty());
  ASSERT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(sink.arrivals[0].second, 1u);
  EXPECT_EQ(sink.arrivals[1].second, 2u);
}

TEST(WindowGangTest, EveryTaskRunsExactlyOncePerWindow) {
  constexpr int kTasks = 5;
  constexpr int kWindows = 20000;  // enough to expose epoch races
  ThreadPool pool(3);
  std::atomic<std::uint64_t> counts[kTasks] = {};
  {
    WindowGang gang(pool, /*helpers=*/3, [&counts](int t) {
      counts[t].fetch_add(1, std::memory_order_relaxed);
    });
    for (int w = 0; w < kWindows; ++w) {
      // Window sizes vary, exercising the count re-publish.
      gang.Run(1 + w % kTasks);
    }
  }
  std::uint64_t expected[kTasks] = {};
  for (int w = 0; w < kWindows; ++w) {
    for (int t = 0; t < 1 + w % kTasks; ++t) ++expected[t];
  }
  for (int t = 0; t < kTasks; ++t) {
    EXPECT_EQ(counts[t].load(), expected[t]) << "task " << t;
  }
}

TEST(WindowGangTest, OversubscribedGangCompletesEveryWindow) {
  // Far more helpers than this machine plausibly has cores: the backoff
  // (pause -> yield -> short sleep) must degrade to parked helpers, not
  // livelock, and the epoch protocol must stay correct when helpers wake
  // several windows late.
  constexpr int kHelpers = 8;
  constexpr int kTasks = 6;
  constexpr int kWindows = 3000;
  ThreadPool pool(kHelpers);
  std::atomic<std::uint64_t> counts[kTasks] = {};
  {
    WindowGang gang(pool, kHelpers, [&counts](int t) {
      counts[t].fetch_add(1, std::memory_order_relaxed);
    });
    for (int w = 0; w < kWindows; ++w) gang.Run(1 + w % kTasks);
  }
  std::uint64_t expected[kTasks] = {};
  for (int w = 0; w < kWindows; ++w) {
    for (int t = 0; t < 1 + w % kTasks; ++t) ++expected[t];
  }
  for (int t = 0; t < kTasks; ++t) {
    EXPECT_EQ(counts[t].load(), expected[t]) << "task " << t;
  }
}

TEST(WindowGangTest, CallerAloneCompletesWhenPoolIsBusy) {
  // Saturate the one-thread pool so the helper can never start: the
  // caller must still finish every window on its own.
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  pool.Post([&release] {
    while (!release.load()) std::this_thread::yield();
  });
  std::atomic<int> ran{0};
  {
    WindowGang gang(pool, /*helpers=*/1,
                    [&ran](int) { ran.fetch_add(1); });
    for (int w = 0; w < 100; ++w) gang.Run(3);
    release.store(true);
  }
  EXPECT_EQ(ran.load(), 300);
}

// --- shard-count determinism ---------------------------------------------

/// Runs `base` at shards {1, 2, 4, 8} with deliberately mismatched pools
/// (including none at all) and requires one fingerprint across the whole
/// matrix. The merged ledger is part of the fingerprint, so the
/// NetworkInvariants merge is covered by the same comparison; sync_rounds
/// is NOT part of it (it differs across shard counts by design). Returns
/// the matrix's fingerprint.
std::uint64_t ExpectShardCountInvariant(FabricRunConfig base,
                                        const char* tag) {
  ThreadPool small_pool(2);
  ThreadPool big_pool(7);
  struct Variant {
    int shards;
    ThreadPool* pool;
  };
  const Variant variants[] = {
      {1, nullptr},      // degenerate sharding, pure inline
      {2, &big_pool},    // more helpers than shards
      {4, &small_pool},  // fewer helpers than shards
      {8, &big_pool},
  };
  std::uint64_t reference = 0;
  int reference_shards = 0;
  for (const Variant& v : variants) {
    base.shards = v.shards;
    base.shard_pool = v.pool;
    const FabricRunResult r = RunFabricWorkload(base);
    EXPECT_EQ(r.invariant_violations, 0u) << tag << " shards=" << v.shards;
    EXPECT_EQ(r.flows_completed, r.flows) << tag << " shards=" << v.shards;
    const std::uint64_t fp = Fingerprint(r);
    if (reference_shards == 0) {
      reference = fp;
      reference_shards = v.shards;
    } else {
      EXPECT_EQ(fp, reference) << tag << ": shards=" << v.shards
                               << " diverged from shards="
                               << reference_shards;
    }
  }
  return reference;
}

/// The paper's fan-in tiled over a k = 4 fat-tree: two rows of 8 hosts,
/// each aggregating one 12 KiB flow from each of 7 senders.
FabricRunConfig BaseConfig(Protocol protocol, std::uint64_t seed) {
  FabricRunConfig config;
  config.topo = FabricRunConfig::Topo::kFatTree;
  config.fat_tree.k = 4;
  config.pattern = TrafficPattern::kIncastRows;
  config.row_size = 8;
  config.fan_in = 7;
  config.bytes_per_flow = 12 * kKiB;
  config.protocol = protocol;
  config.min_rto = 10 * kMillisecond;
  config.seed = seed;
  return config;
}

TEST(ShardDeterminismTest, CleanDctcpPlus) {
  ExpectShardCountInvariant(BaseConfig(Protocol::kDctcpPlus, 7), "clean+");
}

TEST(ShardDeterminismTest, CleanDctcpOtherSeed) {
  ExpectShardCountInvariant(BaseConfig(Protocol::kDctcp, 42), "clean");
}

TEST(ShardDeterminismTest, ImpairedLinks) {
  // Full fault model in play: loss bursts, reordering, duplication,
  // corruption. Exercises impairment streams, the ledger's duplicated /
  // checksum columns, and retransmission paths across shard boundaries.
  FabricRunConfig config = BaseConfig(Protocol::kDctcpPlus, 7);
  config.link.impairment.random_loss = 0.005;
  config.link.impairment.ge_p_good_to_bad = 0.002;
  config.link.impairment.ge_p_bad_to_good = 0.3;
  config.link.impairment.ge_loss_bad = 0.8;
  config.link.impairment.reorder_prob = 0.01;
  config.link.impairment.reorder_delay_min = 20 * kMicrosecond;
  config.link.impairment.reorder_delay_max = 60 * kMicrosecond;
  config.link.impairment.duplicate_prob = 0.002;
  config.link.impairment.corrupt_prob = 0.001;
  ExpectShardCountInvariant(config, "impaired");
}

TEST(ShardDeterminismTest, BurstLossReorderAndFlaps) {
  // Burst loss and reordering plus deterministic link flaps: flaps down a
  // link mid-transfer, stranding packets and forcing RTO recovery — the
  // slowest, most window-sparse phase every shard count has to chunk
  // identically.
  FabricRunConfig config = BaseConfig(Protocol::kDctcpPlus, 7);
  config.link.impairment.ge_p_good_to_bad = 0.002;
  config.link.impairment.ge_p_bad_to_good = 0.3;
  config.link.impairment.ge_loss_bad = 0.8;
  config.link.impairment.reorder_prob = 0.01;
  config.link.impairment.reorder_delay_min = 20 * kMicrosecond;
  config.link.impairment.reorder_delay_max = 60 * kMicrosecond;
  config.link.impairment.flaps.push_back(
      {5 * kMillisecond, 6 * kMillisecond});
  config.link.impairment.flaps.push_back(
      {20 * kMillisecond, 22 * kMillisecond});
  ExpectShardCountInvariant(config, "flaps");
}

TEST(ShardWindowTest, SyncRoundsAreExactAndPrunedRowsRunOneWindow) {
  // One window rule: W = the cheapest cross-shard channel, so on uniform
  // link delays every window spans one link delay from the earliest
  // pending work. The count depends on simulation data only, so it is
  // exact with or without a pool: 98 windows at S = 4.
  ThreadPool pool(4);
  FabricRunConfig config = BaseConfig(Protocol::kDctcpPlus, 21);
  config.shards = 4;
  config.shard_pool = &pool;
  const FabricRunResult pooled = RunFabricWorkload(config);
  config.shard_pool = nullptr;
  const FabricRunResult inline_run = RunFabricWorkload(config);
  EXPECT_EQ(Fingerprint(inline_run), Fingerprint(pooled));
  EXPECT_EQ(pooled.sync_rounds, 98u);
  EXPECT_EQ(inline_run.sync_rounds, 98u);

  // Rows aligned with pods under the pod partition: every off-diagonal
  // shard pair is pruned, nothing bounds W, and the run is one window.
  FabricRunConfig rows = BaseConfig(Protocol::kDctcpPlus, 7);
  rows.row_size = 4;  // = hosts_per_pod at k = 4
  rows.fan_in = 2;
  rows.shards = 4;
  rows.strategy = PartitionStrategy::kPod;
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    rows.shard_pool = p;
    const FabricRunResult r = RunFabricWorkload(rows);
    EXPECT_EQ(r.pruned_pairs, 4 * 4 - 4);
    EXPECT_EQ(r.sync_rounds, 1u) << "pool=" << (p != nullptr);
    EXPECT_EQ(r.invariant_violations, 0u);
    EXPECT_EQ(r.flows_completed, r.flows);
  }
}

TEST(ShardWindowTest, ImpairedFlappingRunsHaveZeroViolations) {
  // Loss, reordering and link flaps at several shard counts: the engine
  // checks merge causality (no arrival lands behind the horizon its
  // destination already ran to) and the pruned-channel mask at every
  // barrier, both folded into invariant_violations, so asserting zero
  // violations exercises them over every window of the run.
  for (const int shards : {2, 4, 8}) {
    ThreadPool pool(3);
    FabricRunConfig config = BaseConfig(Protocol::kDctcpPlus, 29);
    config.link.impairment.random_loss = 0.005;
    config.link.impairment.reorder_prob = 0.01;
    config.link.impairment.reorder_delay_min = 20 * kMicrosecond;
    config.link.impairment.reorder_delay_max = 60 * kMicrosecond;
    config.link.impairment.flaps.push_back(
        {5 * kMillisecond, 7 * kMillisecond});
    config.shards = shards;
    config.shard_pool = &pool;
    const FabricRunResult r = RunFabricWorkload(config);
    EXPECT_EQ(r.invariant_violations, 0u) << "shards=" << shards;
    EXPECT_EQ(r.flows_completed, r.flows) << "shards=" << shards;
  }
}

TEST(ShardDeterminismTest, RedMarkingAndStagger) {
  // RED draws randomness per mark decision from the port's private
  // stream; the stagger spreads the fan-in's starts. The thresholds sit
  // below the rows' standing queue so RED actually marks: the RED run
  // must differ from the same run under instantaneous-K.
  FabricRunConfig config = BaseConfig(Protocol::kDctcpPlus, 3);
  config.start_stagger = 20 * kMicrosecond;
  config.link.red_config.min_th = 2 * 1024;
  config.link.red_config.max_th = 16 * 1024;
  config.link.red_config.max_p = 0.5;
  config.link.red_config.weight = 0.1;
  const std::uint64_t instant_k = Fingerprint(RunFabricWorkload(config));
  config.link.red = true;
  EXPECT_NE(ExpectShardCountInvariant(config, "red"), instant_k);
}

TEST(ShardDeterminismTest, RepeatedRunIsBitIdentical) {
  // Same config, same shard count, same pool: the engine must also be
  // deterministic against itself (thread scheduling must not leak in).
  ThreadPool pool(4);
  FabricRunConfig config = BaseConfig(Protocol::kDctcpPlus, 11);
  config.shards = 4;
  config.shard_pool = &pool;
  const std::uint64_t a = Fingerprint(RunFabricWorkload(config));
  const std::uint64_t b = Fingerprint(RunFabricWorkload(config));
  EXPECT_EQ(a, b);
}

// --- the sharded egress port ------------------------------------------------

/// Records each delivered packet's arrival tick and ECN codepoint.
class RecordingSink : public PacketSink {
 public:
  explicit RecordingSink(Simulator& sim) : sim_(sim) {}
  void Deliver(const Packet& pkt) override {
    arrivals.emplace_back(sim_.Now(), pkt.ecn);
  }
  std::vector<std::pair<Tick, Ecn>> arrivals;

 private:
  Simulator& sim_;
};

// A port settles serializations lazily and arms no wheel event per
// packet: its Simulator's calendar fires the deliveries, on a serial
// Simulator and at S = 1 (from the port's own wire) and S = 2 (from the
// inbound ring) alike.
TEST(ShardedPortTest, CarriesPacketsWithoutWheelEvents) {
  constexpr int kPackets = 200;
  for (const int shards : {0, 1, 2}) {  // 0: a serial Simulator
    SCOPED_TRACE(shards);
    Simulator serial(1);
    ParallelSimulation psim(1, std::max(shards, 1));
    std::vector<Simulator*> sims;
    for (int i = 0; i < shards; ++i) sims.push_back(&psim.shard(i));
    if (shards == 0) sims.push_back(&serial);
    Simulator& dst = *sims.back();
    RecordingSink sink(dst);
    LinkConfig config;
    config.buffer_bytes = kPackets * (kMss + kHeaderBytes);
    {
      // Torn down before the checks: the destructor runs the port's
      // conservation check once more, on its final counters.
      EgressPort port(*sims.front(), config, sink, &dst);
      for (int i = 0; i < kPackets; ++i) port.Send(EctSegment());
      if (shards == 0) {
        serial.Run();
      } else {
        psim.RunUntil(kTickMax);
      }
    }

    const Tick tx = config.rate.TransmissionTime(kMss + kHeaderBytes);
    ASSERT_EQ(sink.arrivals.size(), static_cast<std::size_t>(kPackets));
    for (int i = 0; i < kPackets; ++i) {
      EXPECT_EQ(sink.arrivals[static_cast<std::size_t>(i)].first,
                (i + 1) * tx + config.propagation_delay);
    }
    std::uint64_t deliveries = 0;
    std::uint64_t events = 0;
    for (Simulator* sim : sims) {
      EXPECT_EQ(sim->scheduler().executed(), 0u);
      EXPECT_EQ(sim->invariants().violations(), 0u);
      deliveries += sim->deliveries();
      events += sim->events_executed();
    }
    EXPECT_EQ(deliveries, static_cast<std::uint64_t>(kPackets));
    EXPECT_EQ(events, static_cast<std::uint64_t>(kPackets));
  }
}

// One equal-tick rule for both engines: a serialization that completes at
// tick t settles before an admission at t. P0 serializes, P1 waits, and P2
// arrives exactly when P0 finishes. Settled first, P1 has left the buffer
// and P2 sees it empty; seen the other way round, P2 would find P1 still
// queued. The config makes that difference flip P2's fate — a CE mark
// (K between one and two packets) or a drop (buffer below two packets) —
// and the serial port and the S = 1 sharded port must agree: unmarked and
// delivered.
TEST(ShardedPortTest, EqualTickCompletionSettlesBeforeAdmission) {
  constexpr Bytes kWire = kMss + kHeaderBytes;
  LinkConfig mark_flips;
  mark_flips.ecn_threshold = kWire + kWire / 2;
  LinkConfig drop_flips;
  drop_flips.buffer_bytes = kWire + kWire / 2;
  for (const LinkConfig& config : {mark_flips, drop_flips}) {
    SCOPED_TRACE(config.buffer_bytes);
    const Tick tx = config.rate.TransmissionTime(kWire);
    // Schedules P2's arrival before P0/P1 are sent, so any event the port
    // arms for P0's finish at tick tx would sort after the arrival.
    auto run = [&](Simulator& sim, EgressPort& port) {
      sim.ScheduleAt(tx, [&port] { port.Send(EctSegment()); });
      port.Send(EctSegment());
      port.Send(EctSegment());
    };

    Simulator serial(1);
    RecordingSink serial_sink(serial);
    {
      EgressPort port(serial, config, serial_sink);
      run(serial, port);
      serial.Run();
    }

    ParallelSimulation psim(1, 1);
    RecordingSink sharded_sink(psim.shard(0));
    {
      EgressPort port(psim.shard(0), config, sharded_sink);
      run(psim.shard(0), port);
      psim.RunUntil(kTickMax);
    }

    ASSERT_EQ(serial_sink.arrivals.size(), 3u);
    EXPECT_EQ(serial_sink.arrivals[2].second, Ecn::kEct);
    EXPECT_EQ(sharded_sink.arrivals, serial_sink.arrivals);
  }
}

// --- one engine ------------------------------------------------------------

/// (tick, uid) of every packet one receiving host took in, in order.
using HostArrivals = std::vector<std::pair<Tick, std::uint64_t>>;

/// One switch, two receivers and six senders; sender i sends three
/// segments at t = 0 to receiver i % 2, the senders called in reverse
/// construction (so reverse port-gid) order. Every sender's first segment
/// reaches the switch on one tick, so only the equal-tick rule decides the
/// order in which the switch queues them toward each receiver. `shards`
/// = 0 builds through Network(Simulator&), otherwise through a
/// ParallelSimulation of that many shards (nodes placed round-robin).
std::vector<HostArrivals> RunEqualTickTree(int shards) {
  constexpr int kSenders = 6;
  constexpr int kReceivers = 2;
  constexpr PortNum kPort = 7;
  Simulator serial(1);
  ParallelSimulation psim(1, std::max(shards, 1));
  std::vector<HostArrivals> arrivals(kReceivers);
  {
    Network net = shards == 0 ? Network(serial) : Network(psim);
    Switch& sw = net.AddSwitch("sw");
    std::vector<Host*> receivers;
    std::vector<Host*> senders;
    for (int r = 0; r < kReceivers; ++r) {
      receivers.push_back(&net.AddHost("r" + std::to_string(r)));
    }
    for (int i = 0; i < kSenders; ++i) {
      senders.push_back(&net.AddHost("s" + std::to_string(i)));
    }
    const LinkConfig config;
    for (Host* h : receivers) net.ConnectHost(*h, sw, config);
    for (Host* h : senders) net.ConnectHost(*h, sw, config);
    net.InstallRoutes();
    for (int r = 0; r < kReceivers; ++r) {
      Host* host = receivers[static_cast<std::size_t>(r)];
      HostArrivals* log = &arrivals[static_cast<std::size_t>(r)];
      host->Listen(kPort, [host, log](const Packet& pkt) {
        log->emplace_back(host->sim().Now(), pkt.uid);
      });
    }
    for (int i = kSenders - 1; i >= 0; --i) {
      Host& sender = *senders[static_cast<std::size_t>(i)];
      for (int k = 0; k < 3; ++k) {
        Packet pkt = EctSegment();
        pkt.src = sender.id();
        pkt.dst = receivers[static_cast<std::size_t>(i % kReceivers)]->id();
        pkt.tcp.dst_port = kPort;
        sender.Send(pkt);
      }
    }
    if (shards == 0) {
      serial.Run();
      EXPECT_EQ(serial.invariants().violations(), 0u);
    } else {
      psim.RunUntil(kTickMax);
      EXPECT_EQ(psim.invariant_violations(), 0u);
    }
  }
  return arrivals;
}

// One delivery order for every engine: equal-tick arrivals leave in port
// gid order, never in the order their senders happened to admit them, so
// the serial Simulator and the sharded engine at S = 1 and S = 2 hand
// every receiver the same (tick, uid) sequence.
TEST(OneEngineTest, SerialAndShardedRunsDeliverIdentically) {
  const std::vector<HostArrivals> serial = RunEqualTickTree(0);
  for (const HostArrivals& a : serial) ASSERT_EQ(a.size(), 9u);
  EXPECT_EQ(RunEqualTickTree(1), serial);
  EXPECT_EQ(RunEqualTickTree(2), serial);
}

TEST(ShardedIncastTest, ProducesSaneResults) {
  ThreadPool pool(4);
  FabricRunConfig config = BaseConfig(Protocol::kDctcpPlus, 5);
  config.shards = 4;
  config.shard_pool = &pool;
  const FabricRunResult r = RunFabricWorkload(config);
  EXPECT_EQ(r.flows, 14);
  EXPECT_EQ(r.flows_completed, r.flows);
  EXPECT_FALSE(r.hit_time_limit);
  EXPECT_EQ(r.bytes_delivered, r.flows * config.bytes_per_flow);
  EXPECT_GT(r.goodput_mbps, 0.0);
  EXPECT_EQ(r.invariant_violations, 0u);
  EXPECT_GT(r.packets_forwarded, 0u);
  EXPECT_GT(r.events, 0u);
}

}  // namespace
}  // namespace dctcpp
