// Datapath harness: the paper's canonical N=40 DCTCP incast, run three
// times in one process, emitted as JSON. Every run must produce
// bit-identical simulation results (goodput bits, timeouts, events,
// packets, rounds): that repeatability gate is the exit status. End-to-end
// equivalence with earlier datapaths is the golden table's job
// (tests/golden_test.cc); wall time is compared only by interleaved
// perfbench runs against the parent commit (DESIGN.md Sec. 7).
//
// What this harness adds over perfbench is the in-program view: the
// per-phase cycle split (`profile`, live with -DDCTCPP_PROFILE=ON) and the
// hardware counters (`hw_counters`) of the first timed run, plus the
// process's peak RSS.
//
// Usage: datapath_regression [--smoke] [output.json]   (default: stdout)
//
// scripts/perf_regression.sh builds and runs this and writes
// BENCH_datapath.json at the repo root; the bench-datapath-smoke ctest
// runs --smoke as a tier-1 repeatability gate.
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "dctcpp/util/profile.h"
#include "dctcpp/workload/incast.h"

namespace dctcpp {
namespace {

double Now() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

struct IncastTiming {
  std::string run;
  double seconds = 0.0;
  std::uint64_t packets = 0;
  std::uint64_t events = 0;
  double goodput_mbps = 0.0;
  std::uint64_t timeouts = 0;
  std::uint64_t rounds = 0;
  prof::Counters profile;  // all-zero unless built with DCTCPP_PROFILE=ON
  prof::HwSnapshotData hw;  // unavailable unless PROFILE=ON + perf access

  double PacketsPerSec() const { return packets / seconds; }
  double EventsPerSec() const { return events / seconds; }
};

IncastConfig CanonicalConfig(int rounds) {
  IncastConfig config;
  config.protocol = Protocol::kDctcp;
  config.num_flows = 40;
  config.rounds = rounds;
  config.total_bytes = 1 * kMiB;
  config.seed = 1;
  return config;
}

IncastTiming TimedIncast(const char* run, int rounds) {
  prof::Reset();
  prof::HwReset();
  const double start = Now();
  const IncastResult r = RunIncast(CanonicalConfig(rounds));
  const double seconds = Now() - start;
  return IncastTiming{run,       seconds,           r.packets_forwarded,
                      r.events,  r.goodput_mbps,    r.timeouts,
                      r.rounds_completed,           prof::Snapshot(),
                      prof::HwSnapshot()};
}

long PeakRssKb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;  // kilobytes on Linux
}

void WriteIncast(std::FILE* out, const IncastTiming& t, const char* trail) {
  std::fprintf(out,
               "    {\"run\": \"%s\", \"seconds\": %.6f, "
               "\"packets\": %llu, \"packets_per_sec\": %.0f, "
               "\"events\": %llu, \"events_per_sec\": %.0f, "
               "\"goodput_mbps\": %.1f, \"timeouts\": %llu, "
               "\"rounds\": %llu}%s\n",
               t.run.c_str(), t.seconds,
               static_cast<unsigned long long>(t.packets), t.PacketsPerSec(),
               static_cast<unsigned long long>(t.events), t.EventsPerSec(),
               t.goodput_mbps, static_cast<unsigned long long>(t.timeouts),
               static_cast<unsigned long long>(t.rounds), trail);
}

int Main(int argc, char** argv) {
  bool smoke = false;
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }

  const int rounds = smoke ? 30 : 300;

  // Warm-up run so first-touch page faults (node pools, ring growth) don't
  // bias the first timed run.
  TimedIncast("warmup", smoke ? 5 : 30);

  // Three timed runs in one process. A use-after-free or stray global
  // would likely break self-agreement first.
  const IncastTiming runs[] = {TimedIncast("run1", rounds),
                               TimedIncast("run2", rounds),
                               TimedIncast("run3", rounds)};
  const IncastTiming& first = runs[0];
  bool deterministic = true;
  for (const IncastTiming& r : runs) {
    deterministic = deterministic && r.goodput_mbps == first.goodput_mbps &&
                    r.timeouts == first.timeouts && r.events == first.events &&
                    r.packets == first.packets && r.rounds == first.rounds;
  }

  std::FILE* out = stdout;
  if (out_path != nullptr) {
    out = std::fopen(out_path, "w");
    if (!out) {
      std::perror("datapath_regression: fopen");
      return 1;
    }
  }

  std::fprintf(out, "{\n  \"scenario\": \"incast_dctcp_n40\",\n");
  std::fprintf(out, "  \"rounds\": %d,\n", rounds);
  std::fprintf(out, "  \"incast\": [\n");
  WriteIncast(out, runs[0], ",");
  WriteIncast(out, runs[1], ",");
  WriteIncast(out, runs[2], "");
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"determinism\": {\"match\": %s, "
               "\"goodput_mbps\": %.1f, \"timeouts\": %llu},\n",
               deterministic ? "true" : "false", first.goodput_mbps,
               static_cast<unsigned long long>(first.timeouts));
  // Per-phase cycle breakdown of the first timed run. All-zero (and
  // "enabled": false) unless built with -DDCTCPP_PROFILE=ON; the phases are
  // exclusive self-times, so they sum to the measured total.
  std::fprintf(out, "  \"profile\": {\"enabled\": %s, \"unit\": \"%s\"",
               prof::kEnabled ? "true" : "false",
               "tsc_cycles");
  if (prof::kEnabled) {
    const prof::Counters& c = first.profile;
    const double total =
        c.TotalCycles() > 0 ? static_cast<double>(c.TotalCycles()) : 1.0;
    std::fprintf(out, ", \"phases\": [\n");
    for (int p = 0; p < prof::kNumPhases; ++p) {
      std::fprintf(out,
                   "    {\"phase\": \"%s\", \"cycles\": %llu, "
                   "\"hits\": %llu, \"pct\": %.1f}%s\n",
                   prof::kPhaseNames[p],
                   static_cast<unsigned long long>(c.cycles[p]),
                   static_cast<unsigned long long>(c.hits[p]),
                   100.0 * static_cast<double>(c.cycles[p]) / total,
                   p + 1 < prof::kNumPhases ? "," : "");
    }
    std::fprintf(out, "  ]},\n");
  } else {
    std::fprintf(out, "},\n");
  }
  // Hardware counters for the first timed run. "available": false with
  // the reason when the build has no profiler or perf_event_open is denied
  // (perf_event_paranoid, seccomp, no PMU) — the bench and CI stay green
  // either way. Per-phase rows appear only in rdpmc mode; totals are exact
  // whenever the events opened at all.
  {
    const prof::HwSnapshotData& hw = first.hw;
    std::fprintf(out,
                 "  \"hw_counters\": {\"available\": %s, \"status\": \"%s\", "
                 "\"per_phase\": %s",
                 hw.available ? "true" : "false", prof::HwStatus(),
                 hw.per_phase ? "true" : "false");
    if (hw.available) {
      const double instr = static_cast<double>(hw.total.instructions);
      const double cyc = static_cast<double>(hw.total.cycles);
      std::fprintf(out,
                   ",\n    \"total\": {\"cycles\": %llu, "
                   "\"instructions\": %llu, \"ipc\": %.2f, "
                   "\"cache_misses\": %llu, \"branch_misses\": %llu}",
                   static_cast<unsigned long long>(hw.total.cycles),
                   static_cast<unsigned long long>(hw.total.instructions),
                   cyc > 0 ? instr / cyc : 0.0,
                   static_cast<unsigned long long>(hw.total.cache_misses),
                   static_cast<unsigned long long>(hw.total.branch_misses));
    }
    if (hw.available && hw.per_phase) {
      std::fprintf(out, ",\n    \"phases\": [\n");
      for (int p = 0; p < prof::kNumPhases; ++p) {
        const prof::HwCounts& c = hw.phase[p];
        const double pc = static_cast<double>(c.cycles);
        std::fprintf(out,
                     "      {\"phase\": \"%s\", \"cycles\": %llu, "
                     "\"instructions\": %llu, \"ipc\": %.2f, "
                     "\"cache_misses\": %llu, \"branch_misses\": %llu}%s\n",
                     prof::kPhaseNames[p],
                     static_cast<unsigned long long>(c.cycles),
                     static_cast<unsigned long long>(c.instructions),
                     pc > 0 ? static_cast<double>(c.instructions) / pc : 0.0,
                     static_cast<unsigned long long>(c.cache_misses),
                     static_cast<unsigned long long>(c.branch_misses),
                     p + 1 < prof::kNumPhases ? "," : "");
      }
      std::fprintf(out, "    ]},\n");
    } else {
      std::fprintf(out, "},\n");
    }
  }
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"peak_rss_kb\": %ld\n}\n", PeakRssKb());
  if (out != stdout) std::fclose(out);

  if (!deterministic) {
    std::fprintf(stderr,
                 "datapath_regression: DETERMINISM FAILURE — repeated "
                 "runs diverged\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace dctcpp

int main(int argc, char** argv) { return dctcpp::Main(argc, argv); }
