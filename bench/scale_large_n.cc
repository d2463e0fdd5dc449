// Large-N scale harness: pushes the incast far past the paper's 40-odd
// concurrent flows to the massive-concurrency regime its title promises
// (N up to 12,000, every point on the serial engine), across TCP, DCTCP,
// and DCTCP+. Extrapolates Fig 7: the paper measures goodput up to the
// flow counts its testbed supports; this harness shows where each
// protocol's goodput collapses when N keeps growing, and doubles as the
// datapath's scale stress test — the events/sec column must not degrade
// as N grows, or the datapath has a superlinear cost hiding somewhere
// (that is what the flat ring buffers and interval-vector scoreboards are
// for).
//
// Each flow sends a fixed 8 KB SRU per round (classic incast scaling: the
// burst grows linearly with N), with a shared 128 KB bottleneck buffer.
//
// Usage: scale_large_n [--smoke] [output.json]   (default table: stdout,
// JSON only when a path is given). --smoke caps N at 200 and trims rounds
// so the bench-smoke ctest finishes in seconds. Exits nonzero if any point
// reports an invariant violation.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "dctcpp/stats/table.h"
#include "dctcpp/workload/incast.h"

namespace dctcpp {
namespace {

double Now() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

struct ScalePoint {
  Protocol protocol{};
  int num_flows = 0;
  double goodput_mbps = 0.0;
  double fct_p50_ms = 0.0;
  double fct_p99_ms = 0.0;
  std::uint64_t timeouts = 0;
  std::uint64_t rounds = 0;
  double wall_seconds = 0.0;
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  bool hit_time_limit = false;
  std::uint64_t violations = 0;

  double EventsPerSec() const { return events / wall_seconds; }
  double PacketsPerSec() const { return packets / wall_seconds; }
};

ScalePoint RunPoint(Protocol protocol, int n, int rounds) {
  IncastConfig config;
  config.protocol = protocol;
  config.num_flows = n;
  config.per_flow_bytes = 8 * 1024;  // fixed SRU: burst grows with N
  config.rounds = rounds;
  config.seed = 1;
  // Large-N rounds take minutes of simulated time once goodput collapses
  // (40 MB per round at a few Mbps); give the points past N=1400 room to
  // finish instead of reporting a truncated zero. From N=5000 a single
  // round is 40-100 MB of burst at collapsed goodput (TCP needs ~225 s
  // per round at N=5000), so those points get a wider window still (and
  // past N=5000 fewer rounds, below).
  config.time_limit = (n >= 5000 ? 2400 : n > 1400 ? 900 : 120) * kSecond;

  const double start = Now();
  const IncastResult r = RunIncast(config);
  ScalePoint p;
  p.protocol = protocol;
  p.num_flows = n;
  p.goodput_mbps = r.goodput_mbps;
  p.fct_p50_ms = r.fct_ms.count() ? r.fct_ms.Quantile(0.5) : 0.0;
  p.fct_p99_ms = r.fct_ms.count() ? r.fct_ms.Quantile(0.99) : 0.0;
  p.timeouts = r.timeouts;
  p.rounds = r.rounds_completed;
  p.wall_seconds = Now() - start;
  p.events = r.events;
  p.packets = r.packets_forwarded;
  p.hit_time_limit = r.hit_time_limit;
  p.violations = r.invariant_violations;
  return p;
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

  // Past 1400 flows, fewer rounds keep the largest points tractable; same
  // fixed 8 KB SRU throughout.
  const std::vector<int> flow_counts =
      smoke ? std::vector<int>{40, 200}
            : std::vector<int>{40, 100, 200, 400, 700, 1000, 1400};
  const std::vector<int> large_counts =
      smoke ? std::vector<int>{}
            : std::vector<int>{2000, 3500, 5000, 8000, 12000};
  const int rounds = smoke ? 3 : 10;
  const std::vector<Protocol> protocols = {
      Protocol::kTcp, Protocol::kDctcp, Protocol::kDctcpPlus};

  std::vector<ScalePoint> points;
  Table table({"protocol", "N", "goodput_mbps", "fct_p50_ms", "fct_p99_ms",
               "timeouts", "wall_s", "events_per_sec"});
  for (const Protocol protocol : protocols) {
    for (const int n : flow_counts) {
      const ScalePoint p = RunPoint(protocol, n, rounds);
      points.push_back(p);
      table.AddRow({ToString(protocol), std::to_string(n),
                    Table::Num(p.goodput_mbps, 1), Table::Num(p.fct_p50_ms, 2),
                    Table::Num(p.fct_p99_ms, 2), std::to_string(p.timeouts),
                    Table::Num(p.wall_seconds, 2),
                    Table::Num(p.EventsPerSec(), 0)});
    }
    for (const int n : large_counts) {
      // Fewer rounds past N=5000: each round is a 64-96 MB burst and the
      // collapsed protocols need several hundred simulated seconds per
      // round, so three rounds already dominates the harness wall-clock.
      const int large_rounds = n > 5000 ? 3 : 5;
      const ScalePoint p = RunPoint(protocol, n, large_rounds);
      points.push_back(p);
      table.AddRow({ToString(protocol), std::to_string(n),
                    Table::Num(p.goodput_mbps, 1), Table::Num(p.fct_p50_ms, 2),
                    Table::Num(p.fct_p99_ms, 2), std::to_string(p.timeouts),
                    Table::Num(p.wall_seconds, 2),
                    Table::Num(p.EventsPerSec(), 0)});
    }
  }
  table.Print();

  if (out_path != nullptr) {
    std::FILE* out = std::fopen(out_path, "w");
    if (!out) {
      std::perror("scale_large_n: fopen");
      return 1;
    }
    std::fprintf(out, "{\n  \"per_flow_bytes\": 8192,\n");
    std::fprintf(out, "  \"rounds\": %d,\n  \"points\": [\n", rounds);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const ScalePoint& p = points[i];
      std::fprintf(
          out,
          "    {\"protocol\": \"%s\", \"n\": %d, "
          "\"goodput_mbps\": %.1f, "
          "\"fct_p50_ms\": %.2f, \"fct_p99_ms\": %.2f, \"timeouts\": %llu, "
          "\"rounds\": %llu, \"wall_seconds\": %.3f, "
          "\"events_per_sec\": %.0f, \"packets_per_sec\": %.0f, "
          "\"hit_time_limit\": %s, \"violations\": %llu}%s\n",
          ToString(p.protocol), p.num_flows, p.goodput_mbps, p.fct_p50_ms,
          p.fct_p99_ms, static_cast<unsigned long long>(p.timeouts),
          static_cast<unsigned long long>(p.rounds), p.wall_seconds,
          p.EventsPerSec(), p.PacketsPerSec(),
          p.hit_time_limit ? "true" : "false",
          static_cast<unsigned long long>(p.violations),
          i + 1 < points.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n  \"smoke\": %s\n}\n",
                 smoke ? "true" : "false");
    std::fclose(out);
  }
  for (const ScalePoint& p : points) {
    if (p.violations != 0) {
      std::fprintf(stderr, "scale_large_n: %s N=%d: %llu invariant "
                   "violation(s)\n", ToString(p.protocol), p.num_flows,
                   static_cast<unsigned long long>(p.violations));
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace dctcpp

int main(int argc, char** argv) { return dctcpp::Main(argc, argv); }
