// Engine regression harness: fixed-workload timings for the event core,
// emitted as JSON so CI (and CHANGES.md) can track events/sec across PRs.
// Unlike the google-benchmark microbenchmarks in micro_engine.cc, this
// binary runs each scenario for a fixed operation count and reports
// absolute numbers — events/sec, ns/event, and peak RSS — for both the
// production TimerWheelScheduler and the reference HeapScheduler.
//
// Usage: engine_regression [output.json]   (default: stdout)
//
// scripts/engine_regression.sh builds and runs this and writes
// BENCH_engine.json at the repo root.
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "dctcpp/sim/scheduler.h"
#include "dctcpp/util/rng.h"
#include "dctcpp/workload/incast.h"
#include "reference/heap_scheduler.h"

namespace dctcpp {
namespace {

struct Result {
  std::string scenario;
  std::string backend;
  std::uint64_t events = 0;
  double seconds = 0.0;

  double EventsPerSec() const { return events / seconds; }
  double NsPerEvent() const { return seconds * 1e9 / events; }
};

double Now() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

/// Schedule `batch` events on a short horizon, drain, repeat. One "event"
/// is one schedule+run pair, matching BM_SchedulerPushPop's items/sec.
template <typename S>
Result PushPop(const char* backend, std::uint64_t total, int batch) {
  S sched;
  Tick t = 0;
  std::uint64_t done = 0;
  const double start = Now();
  while (done < total) {
    for (int i = 0; i < batch; ++i) {
      sched.ScheduleAt(t + (i * 7919) % 1000, [] {});
    }
    while (!sched.Empty()) t = sched.RunNext();
    done += static_cast<std::uint64_t>(batch);
  }
  return Result{"push_pop_batch" + std::to_string(batch), backend, done,
                Now() - start};
}

/// Cancel-heavy RTO churn: `flows` pending timeouts ~10 ms out; each
/// operation cancels one and re-arms it, and one in `flows` ever fires.
/// One "event" is one cancel+re-arm pair.
template <typename S>
Result RtoChurn(const char* backend, std::uint64_t total, int flows) {
  S sched;
  std::vector<EventId> pending(static_cast<std::size_t>(flows));
  Tick now = 0;
  const double start = Now();
  for (std::uint64_t i = 0; i < total; ++i) {
    auto& slot = pending[i % flows];
    sched.Cancel(slot);
    slot = sched.ScheduleAt(now + 10 * kMillisecond + (i % 997), [] {});
    if ((i + 1) % static_cast<std::uint64_t>(flows) == 0) {
      now = sched.RunNext();
    }
  }
  return Result{"rto_churn_flows" + std::to_string(flows), backend, total,
                Now() - start};
}

/// End-to-end: a full DCTCP incast run through the production scheduler.
/// Events here are real simulator events (packets, timers, app callbacks).
Result IncastEndToEnd() {
  IncastConfig config;
  config.protocol = Protocol::kDctcp;
  config.num_flows = 32;
  config.rounds = 5;
  config.total_bytes = 256 * 1024;
  config.seed = 1;
  const double start = Now();
  const IncastResult r = RunIncast(config);
  return Result{"incast_32x5", "wheel", r.events, Now() - start};
}

long PeakRssKb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;  // kilobytes on Linux
}

void WriteJson(std::FILE* out, const std::vector<Result>& results) {
  std::fprintf(out, "{\n  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(out,
                 "    {\"scenario\": \"%s\", \"backend\": \"%s\", "
                 "\"events\": %llu, \"seconds\": %.6f, "
                 "\"events_per_sec\": %.0f, \"ns_per_event\": %.2f}%s\n",
                 r.scenario.c_str(), r.backend.c_str(),
                 static_cast<unsigned long long>(r.events), r.seconds,
                 r.EventsPerSec(), r.NsPerEvent(),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  // Speedups the acceptance gate cares about: wheel vs heap, same scenario.
  std::fprintf(out, "  \"speedup_wheel_over_heap\": {\n");
  bool first = true;
  for (const Result& w : results) {
    if (w.backend != "wheel") continue;
    for (const Result& h : results) {
      if (h.backend == "heap" && h.scenario == w.scenario) {
        std::fprintf(out, "%s    \"%s\": %.2f", first ? "" : ",\n",
                     w.scenario.c_str(),
                     w.EventsPerSec() / h.EventsPerSec());
        first = false;
      }
    }
  }
  std::fprintf(out, "\n  },\n");
  std::fprintf(out, "  \"peak_rss_kb\": %ld\n}\n", PeakRssKb());
}

int Main(int argc, char** argv) {
  constexpr std::uint64_t kPushPopOps = 4'000'000;
  constexpr std::uint64_t kChurnOps = 4'000'000;

  std::vector<Result> results;
  // Warm-up pass so first-touch page faults don't bias the heap (measured
  // first); then measure.
  PushPop<TimerWheelScheduler>("warmup", kPushPopOps / 8, 256);
  for (const int batch : {16, 256, 4096}) {
    results.push_back(PushPop<HeapScheduler>("heap", kPushPopOps, batch));
    results.push_back(
        PushPop<TimerWheelScheduler>("wheel", kPushPopOps, batch));
  }
  for (const int flows : {64, 1024}) {
    results.push_back(RtoChurn<HeapScheduler>("heap", kChurnOps, flows));
    results.push_back(
        RtoChurn<TimerWheelScheduler>("wheel", kChurnOps, flows));
  }

  // Headline aggregates: total events over total time per scenario family,
  // per backend. These are the numbers the >=2x acceptance gate reads.
  for (const char* family : {"push_pop", "rto_churn"}) {
    for (const char* backend : {"heap", "wheel"}) {
      Result total{std::string(family) + "_all", backend, 0, 0.0};
      for (const Result& r : results) {
        if (r.backend == backend &&
            r.scenario.compare(0, std::string(family).size(), family) == 0) {
          total.events += r.events;
          total.seconds += r.seconds;
        }
      }
      results.push_back(total);
    }
  }

  results.push_back(IncastEndToEnd());

  std::FILE* out = stdout;
  if (argc > 1) {
    out = std::fopen(argv[1], "w");
    if (!out) {
      std::perror("engine_regression: fopen");
      return 1;
    }
  }
  WriteJson(out, results);
  if (out != stdout) std::fclose(out);
  return 0;
}

}  // namespace
}  // namespace dctcpp

int main(int argc, char** argv) { return dctcpp::Main(argc, argv); }
