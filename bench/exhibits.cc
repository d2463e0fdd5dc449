// Every reproduced figure and table of the paper, as checked claims.
//
// kExhibits below is the spec table: one entry per exhibit, each with a
// run body that prints the exhibit's tables and at least one claim about
// its shape. Incast-sweep exhibits are data: edits to the paper's testbed
// config plus protocol arms and flow counts, run through RunIncastSweep.
// The others run their seeds as jobs on the same thread pool.
//
// Every claim is checked on kSeeds seeds. A comparison holds when the
// worst seed of the side claimed better beats the best seed of the other
// side; a threshold holds when every seed clears it. Each claim prints
//   PASS|FAIL <exhibit>.<claim>: <min..max> vs <min..max or limit>
// and any FAIL makes the exit code nonzero. Seeds do not move clean-incast
// DCTCP or TCP runs (they draw no randomness), so their spans have zero
// width.
//
// Usage: exhibits [--only=fig07,table1] [--smoke] [--threads=N]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "dctcpp/stats/cdf.h"
#include "dctcpp/stats/table.h"
#include "dctcpp/util/assert.h"
#include "dctcpp/util/flags.h"
#include "dctcpp/util/thread_pool.h"
#include "dctcpp/workload/benchmark_traffic.h"
#include "dctcpp/workload/deadline_incast.h"
#include "dctcpp/workload/experiment.h"
#include "dctcpp/workload/incast.h"
#include "dctcpp/workload/shuffle.h"

namespace dctcpp {
namespace {

constexpr std::size_t kSeeds = 5;

/// IncastConfig's defaults are the paper's testbed: 1 Gbps links, 128 KB
/// static per-port buffers, K = 32 KB, nine workers, 1 MB per round,
/// RTO_min 200 ms.
IncastConfig PaperIncast(int rounds, int time_limit_s) {
  IncastConfig config;
  config.rounds = rounds;
  config.time_limit = time_limit_s * kSecond;
  return config;
}

std::string Fmt(double v) { return Table::Num(v, std::abs(v) >= 10 ? 1 : 3); }

std::string Span(const SummaryStats& s) {
  return Fmt(s.min()) + ".." + Fmt(s.max());
}

enum Cmp { kBelow, kAbove };

/// What a run body works with: the shared pool and the claim checker.
struct Ctx {
  ThreadPool& pool;
  const char* exhibit;
  int claims = 0;
  int failed = 0;

  /// Every seed of `lhs` above (or below) every seed of `rhs`.
  void Check(const std::string& claim, const SummaryStats& lhs, Cmp cmp,
             const SummaryStats& rhs) {
    const bool ordered =
        cmp == kAbove ? lhs.min() > rhs.max() : lhs.max() < rhs.min();
    Report(claim, ordered && rhs.count() >= kSeeds, lhs, Span(rhs));
  }
  /// Every seed of `lhs` above (or below) `limit`.
  void Check(const std::string& claim, const SummaryStats& lhs, Cmp cmp,
             double limit) {
    const bool ok = cmp == kAbove ? lhs.min() > limit : lhs.max() < limit;
    Report(claim, ok, lhs, (cmp == kAbove ? ">" : "<") + Fmt(limit));
  }

 private:
  void Report(const std::string& claim, bool ok, const SummaryStats& lhs,
              const std::string& rhs) {
    ok = ok && lhs.count() >= kSeeds;
    ++claims;
    failed += ok ? 0 : 1;
    std::printf("%s %s.%s: %s vs %s\n", ok ? "PASS" : "FAIL", exhibit,
                claim.c_str(), Span(lhs).c_str(), rhs.c_str());
  }
};

/// Runs every config at seeds 1..kSeeds as jobs on the pool; the results
/// come back config-major, seed-minor.
template <typename Config, typename Result>
std::vector<Result> RunSeeds(ThreadPool& pool,
                             const std::vector<Config>& configs,
                             Result (*run)(const Config&)) {
  std::vector<Result> out(configs.size() * kSeeds);
  ParallelFor(pool, out.size(), [&](std::size_t j) {
    Config config = configs[j / kSeeds];
    config.seed = 1 + j % kSeeds;
    out[j] = run(config);
  });
  return out;
}

/// One metric of job `job`, one sample per seed.
template <typename Result, typename Metric>
SummaryStats PerSeed(const std::vector<Result>& runs, std::size_t job,
                     Metric metric) {
  SummaryStats s;
  for (std::size_t i = 0; i < kSeeds; ++i) {
    s.Add(metric(runs[job * kSeeds + i]));
  }
  return s;
}

/// "*" when a seed of job `job` hit its simulated-time limit.
template <typename Result>
const char* LimitMark(const std::vector<Result>& runs, std::size_t job) {
  auto limited = [](const Result& r) { return r.hit_time_limit ? 1.0 : 0.0; };
  return PerSeed(runs, job, limited).max() > 0 ? "*" : "";
}

// --- incast-sweep exhibits ---------------------------------------------------

using Metric = double (*)(const IncastResult&);

double Goodput(const IncastResult& r) { return r.goodput_mbps; }
double FctP50(const IncastResult& r) { return r.fct_ms.Quantile(0.5); }
double Timeouts(const IncastResult& r) {
  return static_cast<double>(r.timeouts);
}
/// All-flow FLoss-TO share of the timeouts (Table I's all-flow form).
double FlossShare(const IncastResult& r) {
  const double all = static_cast<double>(r.floss_timeouts + r.lack_timeouts);
  return all == 0 ? 0.0 : static_cast<double>(r.floss_timeouts) / all;
}
/// Share of rounds the tracked flow spent at the minimum cwnd under ECE.
double AtMinEce(const IncastResult& r) {
  return r.rounds_completed == 0
             ? 0.0
             : static_cast<double>(r.tracked_rounds_at_min_ece) /
                   static_cast<double>(r.rounds_completed);
}
/// Share of per-ACK cwnd samples at 1-2 MSS.
double CwndFloor(const IncastResult& r) {
  return r.cwnd_hist.CumulativeFraction(2);
}
/// Median Switch-1 queue (KB) over the samples where it is non-empty. A
/// collapsed protocol idles in RTO wait most of the time, which piles
/// plain-CDF mass at 0; the busy period is the queue while traffic flows,
/// the distinction the paper's Fig 9 draws.
double BusyMedianKb(const IncastResult& r) {
  Cdf busy;
  for (const auto& q : r.queue_samples) {
    if (q.value > 0) busy.Add(q.value / 1024.0);
  }
  return busy.empty() ? 0.0 : busy.Quantile(0.5);
}
/// Switch-1 queue (KB) in Fig 14's first 50 ms bucket, before any ECN
/// feedback exists (`first`), or over the rest of the run.
constexpr Tick kBucket = 50 * kMillisecond;
SummaryStats QueueKb(const IncastResult& r, bool first) {
  SummaryStats s;
  for (const auto& q : r.queue_samples) {
    if ((q.at < kBucket) == first) s.Add(q.value / 1024.0);
  }
  return s;
}
double FirstBucketMaxKb(const IncastResult& r) {
  return QueueKb(r, true).max();
}
double SettledMeanKb(const IncastResult& r) { return QueueKb(r, false).mean(); }
/// Within a full-size packet of the 128 KB buffer.
constexpr double kOverflowKb = (128 * 1024 - 1600) / 1024.0;
/// Throughput of the slower background long flow.
double SlowerLongFlow(const IncastResult& r) {
  return r.bg_throughput_mbps.empty()
             ? 0.0
             : *std::min_element(r.bg_throughput_mbps.begin(),
                                 r.bg_throughput_mbps.end());
}

/// One column group of a sweep: a protocol, optionally under a config
/// edit. Arms with the same edit share one RunIncastSweep call.
struct Arm {
  const char* label;
  Protocol protocol;
  void (*edit)(IncastConfig&) = nullptr;
};

struct Side {
  const char* arm = nullptr;
  int n = 0;
};

/// `metric` at `lhs` claimed above (or below) `rhs`, or `limit` when
/// `rhs` names no arm.
struct Claim {
  const char* name;
  Metric metric;
  Side lhs;
  Cmp cmp;
  Side rhs;
  double limit = 0;
};

struct Exhibit;

/// A finished sweep: the merged point and the per-seed runs of every
/// (arm, N) cell, arm-major.
struct Sweep {
  const Exhibit* spec = nullptr;
  std::vector<IncastSweepPoint> points;
  std::vector<IncastResult> runs;  ///< kSeeds per point

  std::size_t Cell(const char* arm, int n) const;
  const IncastSweepPoint& At(const char* arm, int n) const {
    return points[Cell(arm, n)];
  }
  SummaryStats Seeds(Side side, Metric metric) const {
    return PerSeed(runs, Cell(side.arm, side.n), metric);
  }
};

struct Exhibit {
  const char* name;
  const char* title;
  bool smoke = false;  ///< part of the ctest smoke (--smoke)
  // Sweep exhibits: PaperIncast(rounds, time_limit_s) edited by `base`,
  // then every arm crossed with every flow count.
  int rounds = 0;
  int time_limit_s = 300;
  void (*base)(IncastConfig&) = nullptr;
  std::vector<Arm> arms = {};
  std::vector<int> flows = {};
  std::vector<Claim> claims = {};
  bool fct_columns = true;  ///< goodput table carries FCT p50/p99 columns
  /// A sweep exhibit's extra tables; every other exhibit's whole body.
  void (*run)(Ctx&, const Sweep&) = nullptr;
};

std::size_t Sweep::Cell(const char* arm, int n) const {
  const auto& arms = spec->arms;
  const auto& flows = spec->flows;
  const auto a = std::find_if(arms.begin(), arms.end(), [arm](const Arm& x) {
    return std::strcmp(x.label, arm) == 0;
  });
  const auto f = std::find(flows.begin(), flows.end(), n);
  DCTCPP_ASSERT(a != arms.end() && f != flows.end());
  return static_cast<std::size_t>(a - arms.begin()) * flows.size() +
         static_cast<std::size_t>(f - flows.begin());
}

Sweep RunSweep(const Exhibit& e, ThreadPool& pool) {
  const std::size_t nf = e.flows.size();
  Sweep s;
  s.spec = &e;
  s.points.resize(e.arms.size() * nf);
  s.runs.resize(e.arms.size() * nf * kSeeds);
  std::vector<bool> done(e.arms.size(), false);
  for (std::size_t a = 0; a < e.arms.size(); ++a) {
    if (done[a]) continue;
    std::vector<std::size_t> group;
    std::vector<Protocol> protocols;
    for (std::size_t b = a; b < e.arms.size(); ++b) {
      if (!done[b] && e.arms[b].edit == e.arms[a].edit) {
        done[b] = true;
        group.push_back(b);
        protocols.push_back(e.arms[b].protocol);
      }
    }
    IncastConfig base = PaperIncast(e.rounds, e.time_limit_s);
    if (e.base) e.base(base);
    if (e.arms[a].edit) e.arms[a].edit(base);
    std::vector<IncastResult> runs;
    auto points = RunIncastSweep(base, protocols, e.flows, kSeeds, pool,
                                 &runs);
    for (std::size_t g = 0; g < group.size(); ++g) {
      for (std::size_t ni = 0; ni < nf; ++ni) {
        const std::size_t from = g * nf + ni;
        const std::size_t to = group[g] * nf + ni;
        s.points[to] = std::move(points[from]);
        std::move(runs.begin() + from * kSeeds,
                  runs.begin() + (from + 1) * kSeeds,
                  s.runs.begin() + to * kSeeds);
      }
    }
  }
  return s;
}

/// N, then per arm the mean goodput over seeds and the FCT quantiles over
/// every round of every seed.
void PrintGoodput(const Sweep& s) {
  const Exhibit& e = *s.spec;
  std::vector<std::string> headers{"N"};
  for (const Arm& arm : e.arms) {
    headers.push_back(std::string(arm.label) + " Mbps");
    if (e.fct_columns) {
      headers.push_back(std::string(arm.label) + " FCT p50/p99 ms");
    }
  }
  Table table(std::move(headers));
  for (int n : e.flows) {
    std::vector<std::string> row{Table::Int(n)};
    for (const Arm& arm : e.arms) {
      const IncastSweepPoint& p = s.At(arm.label, n);
      row.push_back(Table::Num(p.goodput_mbps.mean(), 1) +
                    (p.hit_time_limit ? "*" : ""));
      if (!e.fct_columns) continue;
      row.push_back(p.fct_ms.count() == 0
                        ? "- / -"  // no round ever completed
                        : Table::Num(p.fct_ms.Quantile(0.5), 2) + " / " +
                              Table::Num(p.fct_ms.Quantile(0.99), 2));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf("(Mbps: mean over %zu seeds; * = a seed hit its simulated-time "
              "limit before finishing all rounds)\n\n",
              kSeeds);
}

double Pct(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : 100.0 * static_cast<double>(part) /
                          static_cast<double>(whole);
}

void Fig02Cwnd(Ctx&, const Sweep& s) {
  std::printf("cwnd frequency distribution (per-ACK samples, all seeds):\n");
  for (int n : s.spec->flows) {
    std::printf("\n-- N = %d --\n", n);
    const Histogram& dctcp = s.At("dctcp", n).cwnd_hist;
    const Histogram& tcp = s.At("tcp", n).cwnd_hist;
    Table table({"cwnd (MSS)", "dctcp %", "tcp %"});
    for (int w = 1; w <= 10; ++w) {
      table.AddRow({Table::Int(w), Table::Num(dctcp.FractionAt(w) * 100, 2),
                    Table::Num(tcp.FractionAt(w) * 100, 2)});
    }
    table.AddRow({">10",
                  Table::Num(100 * (1 - dctcp.CumulativeFraction(10)), 2),
                  Table::Num(100 * (1 - tcp.CumulativeFraction(10)), 2)});
    table.Print();
  }
  std::printf("\n");
}

void Table1Taxonomy(Ctx&, const Sweep& s) {
  std::printf("tracked-flow taxonomy (all seeds) and the all-flow split:\n");
  Table table({"N", "cwnd@min,ECE=1 (dctcp) %", "timeout (dctcp) %",
               "timeout (tcp) %", "FLoss-TO (dctcp) %", "LAck-TO (dctcp) %",
               "all-flow FLoss-TO (dctcp) %"});
  for (int n : s.spec->flows) {
    const IncastSweepPoint& d = s.At("dctcp", n);
    const IncastSweepPoint& t = s.At("tcp", n);
    const std::uint64_t tos = d.tracked_floss + d.tracked_lack;
    table.AddRow({Table::Int(n),
                  Table::Num(Pct(d.tracked_rounds_at_min_ece, d.rounds), 2),
                  Table::Num(Pct(d.tracked_rounds_with_timeout, d.rounds), 2),
                  Table::Num(Pct(t.tracked_rounds_with_timeout, t.rounds), 2),
                  Table::Num(Pct(d.tracked_floss, tos), 2),
                  Table::Num(Pct(d.tracked_lack, tos), 2),
                  Table::Num(Pct(d.floss_timeouts,
                                 d.floss_timeouts + d.lack_timeouts),
                             2)});
  }
  table.Print();
  std::printf("\n");
}

void Fig07Timeouts(Ctx&, const Sweep& s) {
  Table table({"N", "dctcp+ timeouts", "dctcp timeouts", "tcp timeouts"});
  for (int n : s.spec->flows) {
    std::vector<std::string> row{Table::Int(n)};
    for (const char* arm : {"dctcp+", "dctcp", "tcp"}) {
      row.push_back(Table::Num(s.Seeds({arm, n}, Timeouts).mean(), 1));
    }
    table.AddRow(std::move(row));
  }
  std::printf("timeouts per run (mean over seeds):\n");
  table.Print();
  std::printf("\n");
}

void Fig11LongFlows(Ctx&, const Sweep& s) {
  const std::size_t cell = s.Cell("dctcp+", 40);
  auto flow = [&](std::size_t f) {
    return PerSeed(s.runs, cell, [f](const IncastResult& r) {
             return r.bg_throughput_mbps[f];
           }).mean();
  };
  std::printf("DCTCP+ background long flows at N=40, mean over seeds: %.1f "
              "and %.1f Mbps\n\n",
              flow(0), flow(1));
}

void SampleQueue(IncastConfig& c) { c.sample_queue = true; }
void FourMbFlows(IncastConfig& c) {
  c.sample_queue = true;
  c.per_flow_bytes = 4 * kMiB;
}
void Rto10ms(IncastConfig& c) { c.min_rto = 10 * kMillisecond; }
void Sack(IncastConfig& c) { c.socket.sack = true; }
void Red(IncastConfig& c) { c.link.red = true; }  // min 16K, max 64K, p 0.1

// Against a buffer saturated by the long flows, a collapsed TCP flow's
// retransmissions can starve through repeated unlucky drops, and Linux-style
// 60 s backoff would freeze a round for minutes: cap the backoff (and the
// horizon, 90 s) so a starved round shows as a time-limited point.
void TwoLongFlows(IncastConfig& c) {
  c.background_flows = 2;
  c.socket.rto.max_rto = 2 * kSecond;
}

// --- exhibits that are not incast sweeps -------------------------------------

void Fig09QueueCdf(Ctx&, const Sweep& s) {
  const char* arms[] = {"dctcp+", "dctcp", "tcp"};
  for (int n : s.spec->flows) {
    std::printf("Switch-1 queue CDF at N = %d (all seeds):\n", n);
    std::vector<Cdf> all(3), busy(3);
    for (std::size_t a = 0; a < 3; ++a) {
      for (std::size_t i = 0; i < kSeeds; ++i) {
        const IncastResult& r = s.runs[s.Cell(arms[a], n) * kSeeds + i];
        for (const auto& q : r.queue_samples) {
          all[a].Add(q.value / 1024.0);
          if (q.value > 0) busy[a].Add(q.value / 1024.0);
        }
      }
    }
    Table table({"queue (KB)", "dctcp+ CDF", "dctcp CDF", "tcp CDF",
                 "dctcp+ busy", "dctcp busy", "tcp busy"});
    for (double kb : {0.0, 4.0, 8.0, 16.0, 32.0, 48.0, 64.0, 96.0, 112.0,
                      127.0}) {
      std::vector<std::string> row{Table::Num(kb, 0)};
      for (const auto* cdfs : {&all, &busy}) {
        for (const Cdf& cdf : *cdfs) row.push_back(Table::Num(cdf.At(kb), 3));
      }
      table.AddRow(std::move(row));
    }
    table.Print();
    std::printf("busy-period medians (KB): dctcp+ %.1f, dctcp %.1f, "
                "tcp %.1f\n\n",
                busy[0].Quantile(0.5), busy[1].Quantile(0.5),
                busy[2].Quantile(0.5));
  }
}

void Fig13BenchmarkTraffic(Ctx& ctx, const Sweep&) {
  const std::vector<int> fan_ins{200, 300};
  std::vector<BenchmarkTrafficConfig> configs;
  for (int fan_in : fan_ins) {
    for (Protocol p : {Protocol::kDctcpPlus, Protocol::kDctcp}) {
      BenchmarkTrafficConfig c;
      c.protocol = p;
      c.num_queries = 700;  // paper: 7000
      c.num_background_flows = 700;
      c.query_mean_interarrival = 10 * kMillisecond;
      // Busy enough that query incasts contend with background bursts,
      // as on the production cluster.
      c.background_mean_interarrival = 3 * kMillisecond;
      c.query_fan_in = fan_in;
      c.min_rto = 10 * kMillisecond;  // both protocols, as in the paper
      configs.push_back(c);
    }
  }
  const auto runs = RunSeeds(ctx.pool, configs, RunBenchmarkTraffic);
  auto print = [&](std::size_t fi, bool queries) {
    Table table({"protocol", "mean", "p50", "p95", "p99", "completed"});
    for (std::size_t pi = 0; pi < 2; ++pi) {
      Percentile fct;
      std::uint64_t completed = 0;
      for (std::size_t i = 0; i < kSeeds; ++i) {
        const auto& r = runs[(fi * 2 + pi) * kSeeds + i];
        fct.Merge(queries ? r.query_fct_ms : r.background_fct_ms);
        completed +=
            queries ? r.queries_completed : r.background_flows_completed;
      }
      table.AddRow({ToString(configs[pi].protocol), Table::Num(fct.Mean(), 2),
                    Table::Num(fct.Quantile(0.5), 2),
                    Table::Num(fct.Quantile(0.95), 2),
                    Table::Num(fct.Quantile(0.99), 2),
                    Table::Int(static_cast<long long>(completed))});
    }
    table.Print();
  };
  for (std::size_t fi = 0; fi < fan_ins.size(); ++fi) {
    std::printf("Fig 13(a): query FCT (ms), fan-in %d, RTO_min = 10 ms, "
                "all seeds\n",
                fan_ins[fi]);
    print(fi, true);
    if (fi == 0) {
      std::printf("\nFig 13(b): background/short-message FCT (ms), "
                  "fan-in 200, all seeds\n");
      print(fi, false);
    }
    std::printf("\n");
  }
  auto mean = [](const BenchmarkTrafficResult& r) {
    return r.query_fct_ms.Mean();
  };
  auto p50 = [](const BenchmarkTrafficResult& r) {
    return r.query_fct_ms.Quantile(0.5);
  };
  SummaryStats gap[2];
  for (std::size_t fi = 0; fi < fan_ins.size(); ++fi) {
    const std::string at = "_fanin" + std::to_string(fan_ins[fi]);
    const SummaryStats plus = PerSeed(runs, fi * 2, mean);
    const SummaryStats dctcp = PerSeed(runs, fi * 2 + 1, mean);
    ctx.Check("plus_mean_below_dctcp" + at, plus, kBelow, dctcp);
    if (fi == 0) {
      ctx.Check("plus_p50_below_dctcp" + at, PerSeed(runs, 0, p50), kBelow,
                PerSeed(runs, 1, p50));
    }
    for (std::size_t i = 0; i < kSeeds; ++i) {
      gap[fi].Add(mean(runs[(fi * 2 + 1) * kSeeds + i]) -
                  mean(runs[fi * 2 * kSeeds + i]));
    }
  }
  ctx.Check("mean_gap_widens_fanin300", gap[1], kAbove, gap[0]);
}

void Fig14Convergence(Ctx&, const Sweep& s) {
  // The first seed's 100 us samples in 50 ms buckets: max and mean.
  const IncastResult& r = s.runs[0];
  std::printf("Switch-1 queue, first seed (N=50 x 4 MB):\n");
  Table table({"t (ms)", "queue max (KB)", "queue mean (KB)",
               "at buffer limit?"});
  std::size_t i = 0;
  for (int b = 0; b < 40 && i < r.queue_samples.size(); ++b) {
    const Tick start = r.queue_samples[i].at;
    double max_kb = 0, sum_kb = 0;
    std::size_t n = 0;
    for (; i < r.queue_samples.size() &&
           r.queue_samples[i].at < start + kBucket;
         ++i, ++n) {
      max_kb = std::max(max_kb, r.queue_samples[i].value / 1024.0);
      sum_kb += r.queue_samples[i].value / 1024.0;
    }
    table.AddRow({Table::Num(ToMillis(start), 0), Table::Num(max_kb, 1),
                  Table::Num(sum_kb / static_cast<double>(n), 1),
                  max_kb >= kOverflowKb ? "OVERFLOW" : ""});
  }
  table.Print();
  std::printf("\nfirst seed: rounds completed %llu, FCT per round (ms) p50 "
              "%.1f p99 %.1f,\ntimeouts %llu, drops at bottleneck %llu\n\n",
              static_cast<unsigned long long>(r.rounds_completed),
              r.fct_ms.Quantile(0.5), r.fct_ms.Quantile(0.99),
              static_cast<unsigned long long>(r.timeouts),
              static_cast<unsigned long long>(r.bottleneck_drops));
}

void AblationParameters(Ctx& ctx, const Sweep&) {
  struct Knob {
    const char* name;
    std::vector<int> values;
    void (*set)(IncastConfig&, int);
  };
  const Knob knobs[] = {
      {"backoff_time_unit (us)", {25, 50, 100, 200, 400},
       [](IncastConfig& c, int us) {
         c.options.regulator.backoff_time_unit = us * kMicrosecond;
       }},
      {"divisor_factor", {2, 4, 8},
       [](IncastConfig& c, int v) { c.options.regulator.divisor_factor = v; }},
      {"clean_evals_per_decay", {1, 2, 3, 4},
       [](IncastConfig& c, int v) {
         c.options.regulator.clean_evals_per_decay = v;
       }},
      {"randomized (1 = dctcp+, 0 = dctcp+nosync)", {1, 0},
       [](IncastConfig& c, int v) {
         if (v == 0) c.protocol = Protocol::kDctcpPlusPartial;
       }},
  };
  std::vector<IncastConfig> configs;
  for (const Knob& knob : knobs) {
    for (int v : knob.values) {
      IncastConfig c = PaperIncast(50, 600);
      c.protocol = Protocol::kDctcpPlus;
      c.num_flows = 120;
      knob.set(c, v);
      configs.push_back(c);
    }
  }
  const auto runs = RunSeeds(ctx.pool, configs, RunIncast);
  auto goodput = [&](std::size_t k, int v) {
    std::size_t job = 0;
    for (std::size_t i = 0; i < k; ++i) job += knobs[i].values.size();
    const auto& values = knobs[k].values;
    job += std::find(values.begin(), values.end(), v) - values.begin();
    return PerSeed(runs, job, Goodput);
  };
  std::printf("DCTCP+ at N = 120, one knob moved at a time from its default "
              "(100 us, 2, 2, 1).\nThe paper advises a backoff unit of the "
              "baseline RTT (~100 us) and divisor 2;\ndecay cadence 1 is the "
              "literal Algorithm 1 (Sec. VII's \"finer regulation law\").\n"
              "Mbps: mean over seeds\n");
  for (std::size_t k = 0; k < std::size(knobs); ++k) {
    Table table({knobs[k].name, "goodput (Mbps)"});
    for (int v : knobs[k].values) {
      table.AddRow({Table::Int(v), Table::Num(goodput(k, v).mean(), 1)});
    }
    std::printf("\n");
    table.Print();
  }
  std::printf("\n");
  ctx.Check("unit_400us_over_25us", goodput(0, 400), kAbove, goodput(0, 25));
  ctx.Check("divisor_2_over_4", goodput(1, 2), kAbove, goodput(1, 4));
  ctx.Check("divisor_2_over_8", goodput(1, 2), kAbove, goodput(1, 8));
  ctx.Check("cadence_3_over_literal", goodput(2, 3), kAbove, goodput(2, 1));
  ctx.Check("deterministic_over_randomized_n120", goodput(3, 0), kAbove,
            goodput(3, 1));
}

void ExtD2tcpDeadlines(Ctx& ctx, const Sweep&) {
  const std::vector<Protocol> protocols{Protocol::kDctcp, Protocol::kD2tcp,
                                        Protocol::kDctcpPlus,
                                        Protocol::kD2tcpPlus};
  // Two regimes: 200 KB responses under a 25 ms deadline while windows
  // have room, then 20 KB responses under 40 ms at N = 100, where windows
  // sit at the floor. Deadlines are uniform in [0.4, 1.6] x the deadline.
  struct Row {
    int n, kb, deadline_ms;
  };
  const std::vector<Row> rows{{5, 200, 25},  {10, 200, 25}, {15, 200, 25},
                              {20, 200, 25}, {40, 200, 25}, {60, 200, 25},
                              {100, 20, 40}};
  std::vector<DeadlineIncastConfig> configs;
  for (const Row& row : rows) {
    for (Protocol p : protocols) {
      DeadlineIncastConfig c;
      c.protocol = p;
      c.num_flows = row.n;
      c.rounds = 40;
      c.per_flow_bytes = row.kb * 1024;
      c.deadline = row.deadline_ms * kMillisecond;
      c.deadline_spread = 0.6;
      configs.push_back(c);
    }
  }
  const auto runs = RunSeeds(ctx.pool, configs, RunDeadlineIncast);
  auto miss = [](const DeadlineIncastResult& r) { return r.MissFraction(); };
  Table table({"N", "KB", "deadline ms", "dctcp miss", "d2tcp miss",
               "dctcp+ miss", "d2tcp+ miss", "d2tcp+ FCT p99 ms"});
  for (std::size_t ri = 0; ri < rows.size(); ++ri) {
    std::vector<std::string> row{Table::Int(rows[ri].n),
                                 Table::Int(rows[ri].kb),
                                 Table::Int(rows[ri].deadline_ms)};
    Percentile d2p_fct;
    for (std::size_t pi = 0; pi < protocols.size(); ++pi) {
      const std::size_t job = ri * protocols.size() + pi;
      for (std::size_t i = 0; pi == 3 && i < kSeeds; ++i) {
        d2p_fct.Merge(runs[job * kSeeds + i].fct_ms);
      }
      row.push_back(Table::Num(PerSeed(runs, job, miss).mean(), 3) +
                    LimitMark(runs, job));
    }
    row.push_back(Table::Num(d2p_fct.Quantile(0.99), 2));
    table.AddRow(std::move(row));
  }
  std::printf("deadline-miss fraction, mean over seeds (* = a seed hit its "
              "time limit)\n");
  table.Print();
  std::printf("\n");
  auto at = [&](int n, std::size_t pi) {
    const auto r = std::find_if(rows.begin(), rows.end(),
                                [n](const Row& x) { return x.n == n; });
    return PerSeed(runs, (r - rows.begin()) * protocols.size() + pi, miss);
  };
  ctx.Check("d2tcp_plus_below_d2tcp_n10", at(10, 3), kBelow, at(10, 1));
  ctx.Check("d2tcp_plus_below_dctcp_plus_n10", at(10, 3), kBelow, at(10, 2));
  ctx.Check("dctcp_plus_bounded_n100", at(100, 2), kBelow, 0.1);
  ctx.Check("d2tcp_plus_bounded_n100", at(100, 3), kBelow, 0.1);
}

void ExtAdmissionControl(Ctx& ctx, const Sweep&) {
  const std::vector<int> staggers_us{0, 50, 100, 200, 500};
  std::vector<IncastConfig> configs;
  for (int us : staggers_us) {
    for (Protocol p : {Protocol::kDctcp, Protocol::kDctcpPlus}) {
      IncastConfig c = PaperIncast(40, 300);
      c.protocol = p;
      c.num_flows = 100;
      c.request_stagger = us * kMicrosecond;
      configs.push_back(c);
    }
  }
  const auto runs = RunSeeds(ctx.pool, configs, RunIncast);
  auto at = [&](int us, std::size_t pi, Metric metric) {
    const auto s = std::find(staggers_us.begin(), staggers_us.end(), us);
    return PerSeed(runs, (s - staggers_us.begin()) * 2 + pi, metric);
  };
  std::printf("request staggering at N = 100 (mean per run over seeds)\n");
  Table table({"stagger (us/flow)", "dctcp Mbps", "dctcp timeouts",
               "dctcp+ Mbps", "dctcp+ timeouts"});
  for (int us : staggers_us) {
    table.AddRow({Table::Int(us), Table::Num(at(us, 0, Goodput).mean(), 1),
                  Table::Num(at(us, 0, Timeouts).mean(), 1),
                  Table::Num(at(us, 1, Goodput).mean(), 1),
                  Table::Num(at(us, 1, Timeouts).mean(), 1)});
  }
  table.Print();
  std::printf("\n");
  ctx.Check("stagger50_leaves_dctcp_collapsed", at(50, 0, Goodput), kBelow,
            100);
  ctx.Check("stagger50_cuts_plus_timeouts", at(50, 1, Timeouts), kBelow,
            at(0, 1, Timeouts));
  ctx.Check("stagger500_no_dctcp_timeouts", at(500, 0, Timeouts), kBelow, 1);
  ctx.Check("stagger500_throttles_plus", at(500, 1, Goodput), kBelow,
            at(100, 1, Goodput));
}

void ExtShuffle(Ctx& ctx, const Sweep&) {
  const std::vector<Protocol> protocols{Protocol::kTcp, Protocol::kDctcp,
                                        Protocol::kDctcpPlus};
  const std::vector<int> per_pair{1, 2, 4, 8, 16};
  std::vector<ShuffleConfig> configs;
  for (int f : per_pair) {
    for (Protocol p : protocols) {
      ShuffleConfig c;
      c.protocol = p;
      c.mappers = 5;
      c.reducers = 4;
      c.flows_per_pair = f;
      c.bytes_per_pair = 4096 * 1024;
      c.time_limit = 120 * kSecond;
      configs.push_back(c);
    }
  }
  const auto runs = RunSeeds(ctx.pool, configs, RunShuffle);
  auto completion = [](const ShuffleResult& r) {
    return ToMillis(r.completion_time);
  };
  auto fairness = [](const ShuffleResult& r) { return r.completion_fairness; };
  auto timeouts = [](const ShuffleResult& r) {
    return static_cast<double>(r.timeouts);
  };
  std::printf("5x4 shuffle, 4096 KB per pair (per-reducer fan-in = 5 x F); "
              "ms: mean over seeds\n");
  Table table({"F (flows/pair)", "total flows", "tcp (ms)", "dctcp (ms)",
               "dctcp+ (ms)", "dctcp+ fairness"});
  for (std::size_t fi = 0; fi < per_pair.size(); ++fi) {
    std::vector<std::string> row{Table::Int(per_pair[fi]),
                                 Table::Int(runs[fi * 3 * kSeeds].flows)};
    for (std::size_t pi = 0; pi < protocols.size(); ++pi) {
      const std::size_t job = fi * protocols.size() + pi;
      row.push_back(Table::Num(PerSeed(runs, job, completion).mean(), 1) +
                    LimitMark(runs, job));
    }
    row.push_back(Table::Num(PerSeed(runs, fi * 3 + 2, fairness).mean(), 3));
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf("\n");
  // Job of (F, protocol index): tcp 0, dctcp 1, dctcp+ 2.
  auto job = [&](int f, std::size_t pi) {
    const auto at = std::find(per_pair.begin(), per_pair.end(), f);
    return static_cast<std::size_t>(at - per_pair.begin()) * 3 + pi;
  };
  const SummaryStats plus16 = PerSeed(runs, job(16, 2), completion);
  ctx.Check("plus_before_dctcp_f16", plus16, kBelow,
            PerSeed(runs, job(16, 1), completion));
  ctx.Check("plus_before_tcp_f16", plus16, kBelow,
            PerSeed(runs, job(16, 0), completion));
  ctx.Check("plus_fair_f16", PerSeed(runs, job(16, 2), fairness), kAbove,
            0.9);
  ctx.Check("plus_pays_timeouts_f4", PerSeed(runs, job(4, 2), timeouts),
            kAbove, 0);
}

// --- the spec table ----------------------------------------------------------

const std::vector<Arm> kPlusDctcpTcp{{"dctcp+", Protocol::kDctcpPlus},
                                     {"dctcp", Protocol::kDctcp},
                                     {"tcp", Protocol::kTcp}};

const Exhibit kExhibits[] = {
    {.name = "fig01",
     .title = "Fig 1: incast goodput vs concurrent flows (TCP vs DCTCP)",
     .smoke = true,
     .rounds = 40,
     .arms = {{"tcp", Protocol::kTcp}, {"dctcp", Protocol::kDctcp}},
     .flows = {1, 2, 5, 8, 10, 15, 20, 25, 30, 35, 40, 50, 60, 80, 100},
     .claims = {{"dctcp_line_rate_n35", Goodput, {"dctcp", 35}, kAbove, {},
                 900},
                {"dctcp_collapsed_n50", Goodput, {"dctcp", 50}, kBelow, {},
                 100},
                {"tcp_collapsed_n10", Goodput, {"tcp", 10}, kBelow, {}, 100}}},
    {.name = "fig02",
     .title = "Fig 2: cwnd frequency distribution, DCTCP and TCP",
     .rounds = 60,
     .arms = {{"dctcp", Protocol::kDctcp}, {"tcp", Protocol::kTcp}},
     .flows = {10, 20, 40, 60},
     .claims = {{"dctcp_floor_majority_n20", CwndFloor, {"dctcp", 20}, kAbove,
                 {}, 0.5},
                {"dctcp_floor_grows_n10_to_n20", CwndFloor, {"dctcp", 20},
                 kAbove, {"dctcp", 10}},
                {"dctcp_floor_majority_n60", CwndFloor, {"dctcp", 60}, kAbove,
                 {}, 0.5}},
     .run = Fig02Cwnd},
    {.name = "table1",
     .title = "Table I: congestion/timeout taxonomy (DCTCP, TCP)",
     .smoke = true,
     .rounds = 150,
     .time_limit_s = 600,
     .arms = {{"dctcp", Protocol::kDctcp}, {"tcp", Protocol::kTcp}},
     .flows = {20, 40, 60, 200},
     .claims = {{"at_min_ece_pervasive_n40", AtMinEce, {"dctcp", 40}, kAbove,
                 {}, 0.5},
                {"timeouts_emerge_n40_to_n60", Timeouts, {"dctcp", 60},
                 kAbove, {"dctcp", 40}},
                {"floss_share_grows_n60_to_n200", FlossShare, {"dctcp", 200},
                 kAbove, {"dctcp", 60}},
                {"floss_dominates_n200", FlossShare, {"dctcp", 200}, kAbove,
                 {}, 0.5}},
     .run = Table1Taxonomy},
    {.name = "fig06",
     .title = "Fig 6: partial DCTCP+ (interval regulation only, no "
              "desynchronization)",
     .rounds = 60,
     .time_limit_s = 600,
     .arms = {{"dctcp+nosync", Protocol::kDctcpPlusPartial},
              {"dctcp", Protocol::kDctcp}},
     .flows = {20, 40, 60, 80, 100, 120, 140, 160, 200},
     .claims = {{"partial_over_dctcp_n100", Goodput, {"dctcp+nosync", 100},
                 kAbove, {"dctcp", 100}},
                {"partial_collapsed_n200", Goodput, {"dctcp+nosync", 200},
                 kBelow, {}, 100}}},
    {.name = "fig07",
     .title = "Fig 7: fully implemented DCTCP+ vs DCTCP vs TCP",
     .smoke = true,
     .rounds = 60,
     .time_limit_s = 600,
     .arms = kPlusDctcpTcp,
     .flows = {10, 20, 40, 60, 80, 100, 140, 180, 200, 240},
     .claims = {{"plus_over_dctcp_n240", Goodput, {"dctcp+", 240}, kAbove,
                 {"dctcp", 240}},
                {"plus_over_tcp_n240", Goodput, {"dctcp+", 240}, kAbove,
                 {"tcp", 240}},
                {"plus_fct_p50_n240", FctP50, {"dctcp+", 240}, kBelow, {}, 20},
                {"dctcp_rto_bound_n60", FctP50, {"dctcp", 60}, kAbove, {},
                 200},
                {"tcp_rto_bound_n10", FctP50, {"tcp", 10}, kAbove, {}, 200}},
     .run = Fig07Timeouts},
    {.name = "fig08",
     .title = "Fig 8: DCTCP+ (RTO_min 200 ms) vs DCTCP/TCP (RTO_min 10 ms)",
     .rounds = 60,
     .time_limit_s = 600,
     .arms = {{"dctcp+ rto=200ms", Protocol::kDctcpPlus},
              {"dctcp rto=10ms", Protocol::kDctcp, Rto10ms},
              {"tcp rto=10ms", Protocol::kTcp, Rto10ms}},
     .flows = {20, 40, 60, 80, 100, 140, 200},
     .claims = {{"rto10_lifts_dctcp_n100", Goodput, {"dctcp rto=10ms", 100},
                 kAbove, {}, 500},
                {"rto10_lifts_tcp_n100", Goodput, {"tcp rto=10ms", 100},
                 kAbove, {}, 500}}},
    {.name = "fig09",
     .title = "Fig 9: CDF of Switch-1 queue length (100 us samples)",
     .rounds = 40,
     .time_limit_s = 600,
     .base = SampleQueue,
     .arms = kPlusDctcpTcp,
     .flows = {30, 50, 80},
     .claims = {{"plus_queue_below_dctcp_n50", BusyMedianKb, {"dctcp+", 50},
                 kBelow, {"dctcp", 50}},
                {"plus_queue_below_tcp_n50", BusyMedianKb, {"dctcp+", 50},
                 kBelow, {"tcp", 50}},
                {"plus_queue_below_dctcp_n80", BusyMedianKb, {"dctcp+", 80},
                 kBelow, {"dctcp", 80}},
                {"plus_queue_below_tcp_n80", BusyMedianKb, {"dctcp+", 80},
                 kBelow, {"tcp", 80}}},
     .run = Fig09QueueCdf},
    {.name = "fig11_12",
     .title = "Figs 11-12: incast with 2 background long flows",
     .rounds = 25,
     .time_limit_s = 90,
     .base = TwoLongFlows,
     .arms = kPlusDctcpTcp,
     .flows = {20, 40, 60, 120, 200},
     .claims = {{"plus_over_dctcp_n60", Goodput, {"dctcp+", 60}, kAbove,
                 {"dctcp", 60}},
                {"plus_over_tcp_n60", Goodput, {"dctcp+", 60}, kAbove,
                 {"tcp", 60}},
                {"plus_fct_p50_n120", FctP50, {"dctcp+", 120}, kBelow, {},
                 100},
                {"dctcp_rto_bound_n120", FctP50, {"dctcp", 120}, kAbove, {},
                 200},
                {"long_flows_isolated_n40", SlowerLongFlow, {"dctcp+", 40},
                 kAbove, {}, 300}},
     .run = Fig11LongFlows},
    {.name = "fig13",
     .title = "Fig 13: production benchmark traffic, DCTCP+ vs DCTCP",
     .run = Fig13BenchmarkTraffic},
    {.name = "fig14",
     .title = "Fig 14: Switch-1 queue during DCTCP+ convergence",
     .rounds = 8,
     .time_limit_s = 600,
     .base = FourMbFlows,
     .arms = {{"dctcp+", Protocol::kDctcpPlus}},
     .flows = {50},
     .claims = {{"first_bucket_overflows", FirstBucketMaxKb, {"dctcp+", 50},
                 kAbove, {}, kOverflowKb},
                {"settled_mean_below_half_buffer", SettledMeanKb,
                 {"dctcp+", 50}, kBelow, {}, 64}},
     .run = Fig14Convergence},
    {.name = "ablation_parameters",
     .title = "DCTCP+ parameter ablation (Secs. V-C, VII)",
     .run = AblationParameters},
    {.name = "ablation_marking",
     .title = "Marking ablation: instantaneous K = 32 KB vs RED",
     .rounds = 40,
     .arms = {{"dctcp/K", Protocol::kDctcp},
              {"dctcp/RED", Protocol::kDctcp, Red},
              {"dctcp+/K", Protocol::kDctcpPlus},
              {"dctcp+/RED", Protocol::kDctcpPlus, Red}},
     .flows = {10, 20, 30, 40, 60},
     .claims = {{"dctcp_k_over_red_n20", Goodput, {"dctcp/K", 20}, kAbove,
                 {"dctcp/RED", 20}},
                {"plus_k_over_red_n60", Goodput, {"dctcp+/K", 60}, kAbove,
                 {"dctcp+/RED", 60}}},
     .fct_columns = false},
    {.name = "sack_ablation",
     .title = "SACK ablation: no-SACK vs SACK",
     .rounds = 40,
     .arms = {{"tcp", Protocol::kTcp},
              {"tcp+sack", Protocol::kTcp, Sack},
              {"dctcp", Protocol::kDctcp},
              {"dctcp+sack", Protocol::kDctcp, Sack},
              {"dctcp+", Protocol::kDctcpPlus},
              {"dctcp+ +sack", Protocol::kDctcpPlus, Sack}},
     .flows = {10, 40, 80, 160},
     .claims = {{"tcp_sack_collapsed_n10", Goodput, {"tcp+sack", 10}, kBelow,
                 {}, 100},
                {"dctcp_sack_collapsed_n80", Goodput, {"dctcp+sack", 80},
                 kBelow, {}, 100},
                {"plus_over_dctcp_with_sack_n80", Goodput,
                 {"dctcp+ +sack", 80}, kAbove, {"dctcp+sack", 80}}},
     .fct_columns = false},
    {.name = "ext_tcp_plus",
     .title = "Sec. VII extension: the enhancement mechanism on plain TCP "
              "(TCP+)",
     .rounds = 50,
     .time_limit_s = 600,
     .arms = {{"tcp+", Protocol::kTcpPlus},
              {"tcp", Protocol::kTcp},
              {"dctcp+", Protocol::kDctcpPlus}},
     .flows = {5, 10, 20, 40, 60, 100, 160, 200},
     .claims = {{"tcp_plus_collapsed_n100", Goodput, {"tcp+", 100}, kBelow,
                 {}, 100},
                {"plus_over_tcp_plus_n100", Goodput, {"dctcp+", 100}, kAbove,
                 {"tcp+", 100}}}},
    {.name = "ext_d2tcp",
     .title = "Sec. VII extension: deadline incast, D2TCP and D2TCP+",
     .run = ExtD2tcpDeadlines},
    {.name = "ext_admission",
     .title = "Sec. VII extension: admission control (request staggering)",
     .run = ExtAdmissionControl},
    {.name = "ext_shuffle",
     .title = "Motivation workload: MapReduce shuffle",
     .run = ExtShuffle},
};

int Main(int argc, char** argv) {
  Flags flags;
  flags.DefineString("only", "", "comma-separated exhibit names (all if "
                                 "empty)");
  flags.DefineBool("smoke", false,
                   "only the exhibits the ctest smoke runs (Fig 1, Fig 7, "
                   "Table I)");
  flags.DefineInt("threads", 0, "worker threads (0 = hardware)");
  if (!flags.Parse(argc, argv)) return flags.Failed() ? 2 : 0;

  const std::string only = flags.GetString("only");
  auto selected = [&](const Exhibit& e) {
    if (flags.GetBool("smoke") && !e.smoke) return false;
    return only.empty() ||
           ("," + only + ",").find("," + std::string(e.name) + ",") !=
               std::string::npos;
  };
  const auto names = std::count(only.begin(), only.end(), ',') + 1;
  if (!only.empty() && std::count_if(std::begin(kExhibits),
                                     std::end(kExhibits), selected) != names) {
    std::fprintf(stderr,
                 "exhibits: --only=%s names an unknown or repeated exhibit\n",
                 only.c_str());
    return 2;
  }

  using Clock = std::chrono::steady_clock;
  auto seconds_since = [](Clock::time_point t) {
    return std::chrono::duration<double>(Clock::now() - t).count();
  };
  ThreadPool pool(static_cast<std::size_t>(flags.GetInt("threads")));
  const auto start = Clock::now();
  int claims = 0, failed = 0;
  for (const Exhibit& e : kExhibits) {
    if (!selected(e)) continue;
    const auto t0 = Clock::now();
    std::printf("== %s: %s ==\n", e.name, e.title);
    Ctx ctx{pool, e.name};
    Sweep sweep;
    if (!e.arms.empty()) {
      sweep = RunSweep(e, pool);
      PrintGoodput(sweep);
    }
    if (e.run) e.run(ctx, sweep);
    for (const Claim& c : e.claims) {
      const SummaryStats lhs = sweep.Seeds(c.lhs, c.metric);
      if (c.rhs.arm) {
        ctx.Check(c.name, lhs, c.cmp, sweep.Seeds(c.rhs, c.metric));
      } else {
        ctx.Check(c.name, lhs, c.cmp, c.limit);
      }
    }
    if (ctx.claims == 0) {
      std::printf("FAIL %s: no claim checked\n", e.name);
      ctx.failed = 1;
    }
    claims += ctx.claims;
    failed += ctx.failed;
    std::printf("[%s] %.2f s\n\n", e.name, seconds_since(t0));
  }
  std::printf("exhibits: %d claims, %d failed, %zu seeds each, %.1f s\n",
              claims, failed, kSeeds, seconds_since(start));
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dctcpp

int main(int argc, char** argv) { return dctcpp::Main(argc, argv); }
