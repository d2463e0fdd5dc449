// Microbenchmarks breaking a parallel window's overhead into its parts:
//
//   publish + spin  BM_WindowGangBarrier — one gang publish, helpers wake
//                   from the escalating backoff, claim, join. The cost
//                   every window with two or more active shards pays.
//   drain           BM_StagingAppendDrain — SoA outbox staging: append a
//                   window's handoffs, walk them, clear.
//   merge           BM_InboundMergeAndDrain — the coordinator's cost of
//                   appending staged handoffs to per-port inbound rings,
//                   plus the destination calendar's drain over them.
//
// These bound the price of sharding: a window is profitable when the
// events it runs cost more than one barrier plus its handoff merges.
// BM_CrossShardFraction closes the loop: it runs a real fat-tree
// permutation under each partition strategy and reports what fraction of
// calendar deliveries actually crossed shards — the quantity all the
// per-handoff costs above get multiplied by.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "dctcpp/net/parallel.h"
#include "dctcpp/util/rng.h"
#include "dctcpp/util/thread_pool.h"
#include "dctcpp/workload/connection_matrix.h"

namespace dctcpp {
namespace {

class NullSink : public PacketSink {
 public:
  void Deliver(const Packet& pkt) override {
    benchmark::DoNotOptimize(pkt.uid);
  }
};

/// Per-packet cost of the cross-shard arrival path: append a window's
/// worth of handoffs to 16 ports' inbound rings (each in wire order, with
/// ticks colliding across ports), then drain the calendar in canonical
/// order — the work MergeStaging plus the next window's delivery loop do
/// per packet.
void BM_InboundMergeAndDrain(benchmark::State& state) {
  constexpr int kPorts = 16;
  const int per_window = static_cast<int>(state.range(0));
  Rng rng(42);
  NullSink sink;
  ArrivalCalendar calendar;
  std::vector<std::unique_ptr<InboundRing>> rings;
  for (int p = 0; p < kPorts; ++p) {
    rings.push_back(std::make_unique<InboundRing>(sink, 1, calendar));
  }
  std::vector<std::uint64_t> seq(kPorts, 0);
  Packet pkt;
  Tick base = 0;
  std::uint64_t drained = 0;
  for (auto _ : state) {
    for (int i = 0; i < per_window; ++i) {
      const auto p = static_cast<std::size_t>(rng.Next() % kPorts);
      const std::uint64_t key = (p << 32) | seq[p]++;
      rings[p]->Append(base + static_cast<Tick>(i / 4), key, pkt);
    }
    while (!calendar.Empty()) {
      calendar.DeliverEarliest();
      ++drained;
    }
    base += per_window;  // windows advance; ticks never repeat across them
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(drained));
  state.counters["ns_per_handoff"] = benchmark::Counter(
      static_cast<double>(drained), benchmark::Counter::kIsRate |
                                        benchmark::Counter::kInvert);
}
BENCHMARK(BM_InboundMergeAndDrain)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

/// Barrier overhead per window: dispatch S no-op shard tasks to the gang
/// and join. This is the fixed cost every multi-shard window pays before
/// any simulation work happens.
void BM_WindowGangBarrier(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  ThreadPool pool(shards - 1);  // caller runs one shard itself
  std::atomic<std::uint64_t> sink{0};
  WindowGang gang(pool, shards - 1, [&sink](int t) {
    sink.fetch_add(static_cast<std::uint64_t>(t) + 1,
                   std::memory_order_relaxed);
  });
  for (auto _ : state) {
    gang.Run(shards);
  }
  benchmark::DoNotOptimize(sink.load());
  state.SetItemsProcessed(state.iterations());
  state.counters["ns_per_window"] = benchmark::Counter(
      static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_WindowGangBarrier)->Arg(2)->Arg(4)->Arg(8);

/// The drain half of a shard run: handoffs accumulate in the SoA staging
/// buffer during the window (branch-light appends into four flat
/// vectors), then the merge walks them once and clears. Per-handoff cost
/// of staging without the calendar.
void BM_StagingAppendDrain(benchmark::State& state) {
  const int per_window = static_cast<int>(state.range(0));
  Rng rng(7);
  OutboxStaging staging;
  Packet pkt;
  Tick base = 0;
  std::uint64_t drained = 0;
  for (auto _ : state) {
    for (int i = 0; i < per_window; ++i) {
      staging.Append(base + static_cast<Tick>(i), rng.Next(), nullptr, pkt);
    }
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < staging.Size(); ++i) {
      acc += static_cast<std::uint64_t>(staging.at[i]) ^ staging.key[i];
    }
    benchmark::DoNotOptimize(acc);
    drained += staging.Size();
    staging.Clear();
    base += 64;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(drained));
  state.counters["ns_per_handoff"] = benchmark::Counter(
      static_cast<double>(drained), benchmark::Counter::kIsRate |
                                        benchmark::Counter::kInvert);
}
BENCHMARK(BM_StagingAppendDrain)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

/// The serial alternative the gang competes with: the same S tasks run
/// inline on the caller. The gap between this and BM_WindowGangBarrier is
/// what a window's real event work must amortize.
void BM_InlineWindowDispatch(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  std::atomic<std::uint64_t> sink{0};
  for (auto _ : state) {
    for (int t = 0; t < shards; ++t) {
      sink.fetch_add(static_cast<std::uint64_t>(t) + 1,
                     std::memory_order_relaxed);
    }
  }
  benchmark::DoNotOptimize(sink.load());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InlineWindowDispatch)->Arg(2)->Arg(4)->Arg(8);

/// End-to-end cross-shard traffic per partition strategy: one k = 4
/// fat-tree permutation at S = 4 per iteration. The wall time here is the
/// whole sharded run; the interesting outputs are the counters —
/// cross_shard_fraction (how much of the calendar traffic the partition
/// failed to keep local) and handoffs_per_sync (how much merge work each
/// causality barrier amortizes). Strategies index PartitionStrategy:
/// 0 = random, 1 = pod, 2 = min_cut.
void BM_CrossShardFraction(benchmark::State& state) {
  FabricRunConfig config;
  config.topo = FabricRunConfig::Topo::kFatTree;
  config.fat_tree.k = 4;
  config.pattern = TrafficPattern::kPermutation;
  config.bytes_per_flow = 16 * kKiB;
  config.shards = 4;
  config.strategy = static_cast<PartitionStrategy>(state.range(0));
  double cross_fraction = 0.0;
  double handoffs_per_sync = 0.0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const FabricRunResult r = RunFabricWorkload(config);
    benchmark::DoNotOptimize(r.flows_completed);
    cross_fraction = r.cross_shard_fraction;
    handoffs_per_sync =
        r.sync_rounds > 0 ? static_cast<double>(r.cross_shard_handoffs) /
                                static_cast<double>(r.sync_rounds)
                          : 0.0;
    events += r.events;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["cross_shard_fraction"] = benchmark::Counter(cross_fraction);
  state.counters["handoffs_per_sync"] = benchmark::Counter(handoffs_per_sync);
}
BENCHMARK(BM_CrossShardFraction)->Arg(0)->Arg(1)->Arg(2);

}  // namespace
}  // namespace dctcpp

BENCHMARK_MAIN();
