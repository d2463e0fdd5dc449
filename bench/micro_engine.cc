// google-benchmark microbenchmarks of the simulator's hot paths: event
// scheduling, queue operations, the SACK scoreboard, RNG, ParallelFor
// dispatch and a full small incast round. These guard the engine's
// throughput (a full Fig 7 sweep executes hundreds of millions of events).
//
// Production structures are paired with the tests/reference/ partners
// they replaced, so the margin stays measurable:
//   BM_SchedulerPushPopT<HeapScheduler> vs <TimerWheelScheduler>, the
//   cancel-heavy BM_SchedulerRtoChurnT (the Misund "Disentangling Flaws in
//   Linux DCTCP" pattern: every ACK cancels and re-arms an RTO that almost
//   never fires), and BM_ScoreboardChurnT<IntervalSet> vs
//   <MapIntervalSet>. Wall time between commits is compared with
//   perfbench, not with numbers recorded here.
#include <benchmark/benchmark.h>

#include <atomic>
#include <vector>

#include "dctcpp/net/queue.h"
#include "dctcpp/sim/scheduler.h"
#include "dctcpp/sim/simulator.h"
#include "dctcpp/util/interval_set.h"
#include "dctcpp/util/rng.h"
#include "dctcpp/util/thread_pool.h"
#include "dctcpp/workload/incast.h"
#include "reference/heap_scheduler.h"
#include "reference/map_interval_set.h"

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

/// Scoreboard churn shaped like SACK processing: random segment-sized adds
/// with a cumulative-ACK trim every 32 adds.
template <typename SetT>
void BM_ScoreboardChurnT(benchmark::State& state) {
  Rng rng(7);
  SetT set;
  std::int64_t acked = 0;
  std::uint64_t i = 0;
  for (auto _ : state) {
    const std::int64_t seg =
        acked + 1460 * static_cast<std::int64_t>(rng.UniformInt(1, 64));
    set.Add(seg, seg + 1460);
    if ((++i & 31u) == 0) {
      acked += 1460 * 16;
      set.TrimBelow(acked);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_ScoreboardChurnT, IntervalSet);
BENCHMARK_TEMPLATE(BM_ScoreboardChurnT, MapIntervalSet);

/// ParallelFor dispatch overhead: many tiny bodies, so the timing is the
/// claim/complete machinery rather than the work.
void BM_ParallelForDispatch(benchmark::State& state) {
  const auto tasks = static_cast<std::size_t>(state.range(0));
  ThreadPool pool;
  // Relaxed stores: the cheapest body that the compiler can't delete and
  // TSan has nothing to say about (adjacent indices land on one line, so
  // plain stores would race across workers).
  std::vector<std::atomic<std::uint64_t>> sink(256);
  for (auto _ : state) {
    ParallelFor(pool, tasks, [&sink](std::size_t i) {
      sink[i & 255].store(i, std::memory_order_relaxed);
    });
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tasks));
}
BENCHMARK(BM_ParallelForDispatch)->Arg(20'000);

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
