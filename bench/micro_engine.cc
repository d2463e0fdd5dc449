// google-benchmark microbenchmarks of the simulator's hot paths: event
// scheduling, queue operations, RNG, the TCP send/ACK loop, and a full
// small incast round. These guard the engine's throughput (a full Fig 7
// sweep executes hundreds of millions of events).
//
// The scheduler benchmarks are templated over both engine backends so the
// timer wheel's margin over the reference heap stays measurable:
//   BM_SchedulerPushPopT<HeapScheduler> vs <TimerWheelScheduler>, and the
//   cancel-heavy BM_SchedulerRtoChurnT (the Misund "Disentangling Flaws in
//   Linux DCTCP" pattern: every ACK cancels and re-arms an RTO that almost
//   never fires). bench/engine_regression.cc records the same scenarios
//   into BENCH_engine.json for the perf trajectory across PRs.
#include <benchmark/benchmark.h>

#include <vector>

#include "dctcpp/net/queue.h"
#include "dctcpp/sim/scheduler.h"
#include "dctcpp/sim/simulator.h"
#include "dctcpp/util/rng.h"
#include "dctcpp/workload/incast.h"
#include "reference/heap_scheduler.h"

namespace dctcpp {
namespace {

void BM_SchedulerPushPop(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  Scheduler sched;
  Tick t = 0;
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      sched.ScheduleAt(t + (i * 7919) % 1000, [] {});
    }
    while (!sched.Empty()) t = sched.RunNext();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SchedulerPushPop)->Arg(16)->Arg(256)->Arg(4096);

template <typename S>
void BM_SchedulerPushPopT(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  S sched;
  Tick t = 0;
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      sched.ScheduleAt(t + (i * 7919) % 1000, [] {});
    }
    while (!sched.Empty()) t = sched.RunNext();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK_TEMPLATE(BM_SchedulerPushPopT, HeapScheduler)
    ->Arg(16)
    ->Arg(256)
    ->Arg(4096);
BENCHMARK_TEMPLATE(BM_SchedulerPushPopT, TimerWheelScheduler)
    ->Arg(16)
    ->Arg(256)
    ->Arg(4096);

void BM_SchedulerCancel(benchmark::State& state) {
  Scheduler sched;
  for (auto _ : state) {
    const EventId id = sched.ScheduleAt(1000, [] {});
    sched.Cancel(id);
    benchmark::DoNotOptimize(sched.PendingCount());
  }
}
BENCHMARK(BM_SchedulerCancel);

/// Cancel-heavy RTO churn: `flows` concurrent senders each keep one RTO
/// armed ~10 ms out; every "ACK" cancels the pending timeout and re-arms
/// it, and only one in `flows` events ever fires. This is the pattern that
/// made the heap backend accumulate tombstones (lazy cancellation) and
/// hash on every operation.
template <typename S>
void BM_SchedulerRtoChurnT(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  S sched;
  std::vector<EventId> pending(static_cast<std::size_t>(flows));
  Tick now = 0;
  std::uint64_t i = 0;
  for (auto _ : state) {
    auto& slot = pending[i % flows];
    sched.Cancel(slot);
    slot = sched.ScheduleAt(now + 10 * kMillisecond + (i % 997), [] {});
    if (++i % flows == 0) now = sched.RunNext();  // one RTO in `flows` fires
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("items = cancel+re-arm pairs");
}
BENCHMARK_TEMPLATE(BM_SchedulerRtoChurnT, HeapScheduler)->Arg(64)->Arg(1024);
BENCHMARK_TEMPLATE(BM_SchedulerRtoChurnT, TimerWheelScheduler)
    ->Arg(64)
    ->Arg(1024);

void BM_QueueEnqueueDequeue(benchmark::State& state) {
  DropTailEcnQueue queue(1 * kMiB, 32 * 1024);
  Packet pkt;
  pkt.payload = 1460;
  pkt.ecn = Ecn::kEct;
  for (auto _ : state) {
    queue.Enqueue(pkt);
    benchmark::DoNotOptimize(queue.Dequeue());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueueEnqueueDequeue);

void BM_RngUniformInt(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.UniformInt(0, 999));
  }
}
BENCHMARK(BM_RngUniformInt);

void BM_RngExponential(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Exponential(1.0));
  }
}
BENCHMARK(BM_RngExponential);

/// One full incast run (small): end-to-end engine throughput in
/// simulated events per second.
void BM_IncastRound(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  std::uint64_t events = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    IncastConfig config;
    config.protocol = Protocol::kDctcp;
    config.num_flows = flows;
    config.rounds = 3;
    config.total_bytes = 256 * 1024;
    config.seed = seed++;
    const IncastResult r = RunIncast(config);
    events += r.events;
    benchmark::DoNotOptimize(r.goodput_mbps);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = simulated events");
}
BENCHMARK(BM_IncastRound)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dctcpp

BENCHMARK_MAIN();
